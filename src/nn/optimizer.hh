/**
 * @file
 * The Adam optimizer over a Param set. Parameter lists are
 * deduplicated by pointer so tied weights update once.
 */

#ifndef OPTIMUS_NN_OPTIMIZER_HH
#define OPTIMUS_NN_OPTIMIZER_HH

#include <vector>

#include "nn/param.hh"

namespace optimus
{

/**
 * Adam (Kingma & Ba) with bias correction, the paper's optimizer
 * and the only one the trainer runs.
 */
class AdamOptimizer
{
  public:
    AdamOptimizer(std::vector<ParamPtr> params, float lr,
                  float beta1 = 0.9f, float beta2 = 0.999f,
                  float eps = 1e-8f);

    /** Apply one update from the accumulated gradients. */
    void step();

    /** Zero all gradient accumulators. */
    void zeroGrad();

    /** Scale all gradients by a constant (micro-batch averaging);
     * a factor of 1 (one micro-batch) leaves them as they are. */
    void scaleGrad(float factor);

    /** Managed (deduplicated) parameters. */
    const std::vector<ParamPtr> &params() const { return params_; }

  private:
    std::vector<ParamPtr> params_;
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
