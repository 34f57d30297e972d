#include "nn/loss.hh"

#include <cmath>

#include "runtime/runtime.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/** Row-wise softmax into a new tensor, returning mean NLL. */
double
softmaxAndNll(const Tensor &logits, const std::vector<int32_t> &targets,
              Tensor &probs)
{
    OPTIMUS_ASSERT(logits.rank() == 2);
    const int64_t n = logits.rows();
    const int64_t v = logits.cols();
    OPTIMUS_ASSERT(static_cast<int64_t>(targets.size()) == n);

    if (probs.rank() != 2 || probs.rows() != n || probs.cols() != v)
        probs = Tensor({n, v});
    const float *ld = logits.data();
    float *pd = probs.data();
    // Rows softmax independently; per-row NLL terms are combined in
    // row order (grain 1 makes each partial one row), matching the
    // serial accumulation bit for bit. An exp costs ~256
    // multiply-adds.
    const double total_nll = parallelReduceSum(
        0, n, 1, 256 * v, [&](int64_t lo, int64_t hi) {
            double nll = 0.0;
            for (int64_t i = lo; i < hi; ++i) {
                const float *lrow = ld + i * v;
                float *prow = pd + i * v;
                float max_val = lrow[0];
                for (int64_t j = 1; j < v; ++j) {
                    if (lrow[j] > max_val)
                        max_val = lrow[j];
                }
                double denom = 0.0;
                for (int64_t j = 0; j < v; ++j) {
                    prow[j] = std::exp(lrow[j] - max_val);
                    denom += prow[j];
                }
                const float inv = static_cast<float>(1.0 / denom);
                for (int64_t j = 0; j < v; ++j)
                    prow[j] *= inv;
                const int32_t t = targets[i];
                OPTIMUS_ASSERT(t >= 0 && t < v);
                nll -= std::log(std::max(1e-30, (double)prow[t]));
            }
            return nll;
        });
    return total_nll / static_cast<double>(n);
}

} // namespace

// optlint:hot — steady-state step path (zero-allocation contract).
double
SoftmaxCrossEntropy::forward(const Tensor &logits,
                             const std::vector<int32_t> &targets)
{
    // Assign into the ring slot so the probs block and the targets
    // capacity are reused in place each micro-batch.
    Stash &st = stash_.pushSlot();
    const double nll = softmaxAndNll(logits, targets, st.probs);
    st.targets = targets;
    return nll;
}

// optlint:hot — steady-state step path (zero-allocation contract).
Tensor
SoftmaxCrossEntropy::backward()
{
    OPTIMUS_ASSERT(!stash_.empty());
    // Move the probs tensor out (its block recycles through the
    // workspace when the gradient dies); targets stay in the slot.
    Stash &st = stash_.front();
    Tensor dlogits = std::move(st.probs);
    const int64_t n = dlogits.rows();
    const int64_t v = dlogits.cols();
    const float inv_n = 1.0f / static_cast<float>(n);
    float *dd = dlogits.data();
    // ~32 multiply-adds an element (a strided scale pass).
    parallelFor(0, n, grainForWork(32 * v), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            dd[i * v + st.targets[i]] -= 1.0f;
            for (int64_t j = 0; j < v; ++j)
                dd[i * v + j] *= inv_n;
        }
    });
    stash_.popFront();
    return dlogits;
}

double
SoftmaxCrossEntropy::perplexity(double mean_nll)
{
    return std::exp(mean_nll);
}

double
SoftmaxCrossEntropy::evaluate(const Tensor &logits,
                              const std::vector<int32_t> &targets)
{
    Tensor probs;
    return softmaxAndNll(logits, targets, probs);
}

} // namespace optimus
