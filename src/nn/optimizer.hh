/**
 * @file
 * Optimizers over Param sets: SGD with momentum and Adam. Parameter
 * lists are deduplicated by pointer so tied weights update once.
 */

#ifndef OPTIMUS_NN_OPTIMIZER_HH
#define OPTIMUS_NN_OPTIMIZER_HH

#include <vector>

#include "nn/param.hh"

namespace optimus
{

/** Base optimizer interface. */
class Optimizer
{
  public:
    explicit Optimizer(std::vector<ParamPtr> params);
    virtual ~Optimizer() = default;

    /** Apply one update from the accumulated gradients. */
    virtual void step() = 0;

    /** Zero all gradient accumulators. */
    void zeroGrad();

    /** Scale all gradients by a constant (micro-batch averaging);
     * a factor of 1 (one micro-batch) leaves them as they are. */
    void scaleGrad(float factor);

    /** Managed (deduplicated) parameters. */
    const std::vector<ParamPtr> &params() const { return params_; }

  protected:
    std::vector<ParamPtr> params_;
};

/** SGD with classical momentum: v = m*v + g; w -= lr * v. */
class SgdOptimizer : public Optimizer
{
  public:
    SgdOptimizer(std::vector<ParamPtr> params, float lr,
                 float momentum = 0.0f);

    void step() override;

    float learningRate() const { return lr_; }
    void setLearningRate(float lr) { lr_ = lr; }

  private:
    float lr_;
    float momentum_;
    std::vector<Tensor> velocity_;
};

/** Adam (Kingma & Ba) with bias correction. */
class AdamOptimizer : public Optimizer
{
  public:
    AdamOptimizer(std::vector<ParamPtr> params, float lr,
                  float beta1 = 0.9f, float beta2 = 0.999f,
                  float eps = 1e-8f);

    void step() override;

    float learningRate() const { return lr_; }
    void setLearningRate(float lr) { lr_ = lr; }

  private:
    float lr_;
    float beta1_;
    float beta2_;
    float eps_;
    int64_t t_;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
};

} // namespace optimus

#endif // OPTIMUS_NN_OPTIMIZER_HH
