/**
 * @file
 * Row-wise layer normalization with learned gain/bias. The paper's
 * Eq. 14 argument leans on normalization keeping activation averages
 * near zero, which the Fig 11 reproduction verifies empirically.
 */

#ifndef OPTIMUS_NN_LAYERNORM_HH
#define OPTIMUS_NN_LAYERNORM_HH

#include "nn/layer.hh"
#include "util/reuse_ring.hh"

namespace optimus
{

/** y = gamma * (x - mean(x)) / sqrt(var(x) + eps) + beta, per row. */
class LayerNorm : public Layer
{
  public:
    /**
     * @param label Parameter name prefix.
     * @param features Normalized feature count.
     * @param eps Variance floor.
     */
    LayerNorm(const std::string &label, int64_t features,
              float eps = 1e-5f);

    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<ParamPtr> params() const override;
    std::string name() const override;
    void clearStash() override { stash_.clear(); }
    size_t stashDepth() const override { return stash_.size(); }

  private:
    struct Stash
    {
        Tensor normalized; // x_hat, needed for dgamma and dx
        std::vector<float> invStd;
    };

    ParamPtr gamma_;
    ParamPtr beta_;
    float eps_;
    ReuseRing<Stash> stash_;
};

} // namespace optimus

#endif // OPTIMUS_NN_LAYERNORM_HH
