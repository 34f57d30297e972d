/**
 * @file
 * Elementwise activation layers (GELU, the GPT MLP nonlinearity,
 * plus ReLU for tests).
 */

#ifndef OPTIMUS_NN_ACTIVATION_HH
#define OPTIMUS_NN_ACTIVATION_HH

#include "nn/layer.hh"
#include "util/reuse_ring.hh"

namespace optimus
{

/** GELU with the tanh approximation used by GPT-2/Megatron. */
class Gelu : public Layer
{
  public:
    Gelu() = default;

    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<ParamPtr> params() const override { return {}; }
    std::string name() const override { return "gelu"; }
    void clearStash() override { stash_.clear(); }
    size_t stashDepth() const override { return stash_.size(); }

    /** One element through the Scalar (std::tanh) kernel tier —
     * the reference the vector tiers are tested against. */
    static float value(float x);
    static float derivative(float x);

  private:
    ReuseRing<Tensor> stash_;
};

/** ReLU (parameter-free), used in unit tests and the MLP toy model. */
class Relu : public Layer
{
  public:
    Relu() = default;

    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<ParamPtr> params() const override { return {}; }
    std::string name() const override { return "relu"; }
    void clearStash() override { stash_.clear(); }
    size_t stashDepth() const override { return stash_.size(); }

  private:
    ReuseRing<Tensor> stash_;
};

} // namespace optimus

#endif // OPTIMUS_NN_ACTIVATION_HH
