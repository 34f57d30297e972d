#include "nn/layernorm.hh"

#include <cmath>

#include "runtime/runtime.hh"
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

    // Rows are independent (each owns its statistics and output
    // slice), so normalization parallelizes with bitwise-identical
    // results at any thread count, chunking and batch composition.
    // Its serial double sums make an element cost ~128 multiply-adds.
    parallelFor(0, rows, grainForWork(128 * f),
                [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            const float *row = xd + i * f;
            double sum = 0.0;
            for (int64_t j = 0; j < f; ++j)
                sum += row[j];
            const float mu = static_cast<float>(sum / f);
            double var = 0.0;
            for (int64_t j = 0; j < f; ++j) {
                const float d = row[j] - mu;
                var += static_cast<double>(d) * d;
            }
            const float inv_std = 1.0f /
                std::sqrt(static_cast<float>(var / f) + eps_);
            // Two copies of the output sweep keep the stash test out
            // of the vectorized inner loop.
            if (nd != nullptr) {
                inv_std_out[i] = inv_std;
                for (int64_t j = 0; j < f; ++j) {
                    const float xn = (row[j] - mu) * inv_std;
                    nd[i * f + j] = xn;
                    yd[i * f + j] = g[j] * xn + b[j];
                }
            } else {
                for (int64_t j = 0; j < f; ++j) {
                    const float xn = (row[j] - mu) * inv_std;
                    yd[i * f + j] = g[j] * xn + b[j];
                }
            }
        }
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
    float *dgd = gamma_->grad.data();
    float *dbd = beta_->grad.data();
    float *dxd = dx.data();

    // dx rows are independent and parallelize; the dgamma/dbeta
    // accumulation sums over rows into shared vectors, so it stays a
    // serial sweep in row order — any parallel split would change
    // the float addition order with the thread count. An element
    // costs ~128 multiply-adds, as in the forward.
    parallelFor(0, rows, grainForWork(128 * f),
                [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            const float *dyr = dyd + i * f;
            const float *nr = nd + i * f;
            float *dxr = dxd + i * f;
            // dl/dx_hat = dy * gamma; need its row mean and its
            // x_hat-weighted row mean for the normalization
            // backward.
            double sum_dxhat = 0.0;
            double sum_dxhat_xhat = 0.0;
            for (int64_t j = 0; j < f; ++j) {
                const float dxhat = dyr[j] * g[j];
                sum_dxhat += dxhat;
                sum_dxhat_xhat +=
                    static_cast<double>(dxhat) * nr[j];
            }
            const float mean_dxhat =
                static_cast<float>(sum_dxhat / f);
            const float mean_dxhat_xhat =
                static_cast<float>(sum_dxhat_xhat / f);
            const float inv_std = st.invStd[i];
            for (int64_t j = 0; j < f; ++j) {
                const float dxhat = dyr[j] * g[j];
                dxr[j] = inv_std *
                    (dxhat - mean_dxhat - nr[j] * mean_dxhat_xhat);
            }
        }
    });
    for (int64_t i = 0; i < rows; ++i) {
        const float *dyr = dyd + i * f;
        const float *nr = nd + i * f;
        for (int64_t j = 0; j < f; ++j) {
            dgd[j] += dyr[j] * nr[j];
            dbd[j] += dyr[j];
        }
    }
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
