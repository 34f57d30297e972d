/**
 * @file
 * Fully connected layer Y = X * W + b with W stored [in x out].
 *
 * Train and Infer run the same forward (the packed-panel GEMM plus
 * a bias sweep); Infer only skips the stash. The GEMM is batch
 * invariant — a row's bits never depend on how many rows share the
 * call (see layer.hh) — so serving stacks every sequence's rows
 * into one call.
 */

#ifndef OPTIMUS_NN_LINEAR_HH
#define OPTIMUS_NN_LINEAR_HH

#include "nn/layer.hh"
#include "util/random.hh"
#include "util/reuse_ring.hh"

namespace optimus
{

/** Affine layer with GPT-style N(0, init_std) weight init. */
class Linear : public Layer
{
  public:
    /**
     * @param label Parameter name prefix.
     * @param in Input feature count.
     * @param out Output feature count.
     * @param rng Initialization stream.
     * @param init_std Weight init standard deviation.
     */
    Linear(const std::string &label, int64_t in, int64_t out, Rng &rng,
           float init_std = 0.02f);

    /** Wrap pre-existing parameters (used by tensor parallelism). */
    Linear(ParamPtr weight, ParamPtr bias);

    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<ParamPtr> params() const override;
    std::string name() const override;
    void clearStash() override { stash_.clear(); }
    size_t stashDepth() const override { return stash_.size(); }

    int64_t inFeatures() const { return weight_->value.rows(); }
    int64_t outFeatures() const { return weight_->value.cols(); }

    ParamPtr weight() const { return weight_; }
    ParamPtr bias() const { return bias_; }

  private:
    ParamPtr weight_;
    ParamPtr bias_;
    ReuseRing<Tensor> stash_;
};

} // namespace optimus

#endif // OPTIMUS_NN_LINEAR_HH
