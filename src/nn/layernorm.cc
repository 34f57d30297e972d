#include "nn/layernorm.hh"

#include "runtime/runtime.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

LayerNorm::LayerNorm(const std::string &label, int64_t features,
                     float eps)
    : gamma_(std::make_shared<Param>(
          label + ".gamma", Tensor::full({features}, 1.0f))),
      beta_(std::make_shared<Param>(label + ".beta",
                                    Tensor::zeros(features))),
      eps_(eps)
{
}

// optlint:hot — steady-state step and serving path (zero-allocation
// contract).
Tensor
LayerNorm::forward(const Tensor &x)
{
    OPTIMUS_ASSERT(x.rank() == 2);
    const int64_t rows = x.rows();
    const int64_t f = x.cols();
    OPTIMUS_ASSERT(f == gamma_->value.size());

    // Train mode stashes x_hat and the inverse std devs; Infer
    // runs the same arithmetic and writes only the output. Assign
    // into the ring slot: steady state reuses the previous stash's
    // tensor block and vector capacity in place.
    float *nd = nullptr;
    float *inv_std_out = nullptr;
    if (mode() == Mode::Train) {
        Stash &st = stash_.pushSlot();
        if (st.normalized.rank() != 2 || st.normalized.rows() != rows ||
            st.normalized.cols() != f) {
            st.normalized = Tensor({rows, f});
        }
        // optlint:coldalloc — warmup capacity ratchet.
        st.invStd.resize(rows);
        nd = st.normalized.data();
        inv_std_out = st.invStd.data();
    }

    Tensor y({rows, f});
    const float *xd = x.data();
    const float *g = gamma_->value.data();
    const float *b = beta_->value.data();
    float *yd = y.data();
    const simd::Tier tier = simd::tier();

    // Rows are independent (each owns its statistics and output
    // slice), so normalization parallelizes with bitwise-identical
    // results at any thread count, chunking and batch composition.
    // Its serial double sums make an element cost ~128 multiply-adds.
    parallelFor(0, rows, grainForWork(128 * f),
                [&](int64_t lo, int64_t hi) {
        simd::layerNormForward(tier, yd + lo * f,
                               nd ? nd + lo * f : nullptr,
                               inv_std_out ? inv_std_out + lo : nullptr,
                               xd + lo * f, g, b, f, hi - lo, f, eps_);
    });
    return y;
}

Tensor
LayerNorm::backward(const Tensor &dy)
{
    OPTIMUS_ASSERT(mode() == Mode::Train);
    OPTIMUS_ASSERT(!stash_.empty());
    const Stash &st = stash_.front();

    const int64_t rows = dy.rows();
    const int64_t f = dy.cols();
    OPTIMUS_ASSERT(st.normalized.rows() == rows);

    Tensor dx({rows, f});
    const float *dyd = dy.data();
    const float *nd = st.normalized.data();
    const float *g = gamma_->value.data();
    float *dxd = dx.data();

    // dx rows are independent and parallelize; the dgamma/dbeta
    // accumulation sums over rows into shared vectors, so it stays a
    // serial sweep in row order — any parallel split would change
    // the float addition order with the thread count. An element
    // costs ~128 multiply-adds, as in the forward.
    const simd::Tier tier = simd::tier();
    parallelFor(0, rows, grainForWork(128 * f),
                [&](int64_t lo, int64_t hi) {
        simd::layerNormBackward(tier, dxd + lo * f, dyd + lo * f,
                                nd + lo * f, st.invStd.data() + lo, g, f,
                                hi - lo, f);
    });
    simd::layerNormParamGrads(tier, gamma_->grad.data(),
                              beta_->grad.data(), dyd, nd, f, rows, f);
    stash_.popFront();
    return dx;
}

std::vector<ParamPtr>
LayerNorm::params() const
{
    return {gamma_, beta_};
}

std::string
LayerNorm::name() const
{
    return "layernorm(" + gamma_->name + ")";
}

} // namespace optimus
