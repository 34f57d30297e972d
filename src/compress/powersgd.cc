#include "compress/powersgd.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "runtime/runtime.hh"
#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/**
 * Row-reduction grain for the Gram-Schmidt dot products. Fixed so
 * the chunked double-precision partial sums — combined in chunk
 * order — are reproducible at any thread count.
 */
constexpr int64_t kOrthoGrain = 2048;

} // namespace

// optlint:hot
void
orthonormalizeColumns(Tensor &m)
{
    OPTIMUS_ASSERT(m.rank() == 2);
    const int64_t rows = m.rows();
    const int64_t cols = m.cols();
    float *data = m.data();
    const simd::Tier tier = simd::tier();

    // Gather-free: the matrix is row-major, so column j is the span
    // data[j], data[j + cols], ... — walked in place through the
    // strided simd:: kernels. Per tier, each strided kernel is
    // bit-identical to gathering the column contiguous and running
    // the contiguous kernel (the strided dot replicates the tier's
    // exact lane order), so dropping the gather/scatter copies — and
    // the rows*cols staging buffer — moves no bits at any tier and
    // keeps the Scalar tier pinned to the pre-dispatch history.
    auto colDot = [&](const float *x, const float *y) {
        return parallelReduceSum(
            0, rows, kOrthoGrain, [&](int64_t lo, int64_t hi) {
                return simd::dotDoubleStrided(
                    tier, x + lo * cols, cols, y + lo * cols, cols,
                    hi - lo);
            });
    };

    for (int64_t j = 0; j < cols; ++j) {
        float *cj = data + j;
        const double norm_before_sq = colDot(cj, cj);
        // Subtract projections onto previous columns (modified
        // Gram-Schmidt: re-read the updated column each time).
        for (int64_t p = 0; p < j; ++p) {
            const float *cp = data + p;
            const double proj = colDot(cj, cp);
            parallelFor(0, rows, kOrthoGrain,
                        [&](int64_t lo, int64_t hi) {
                            simd::subScaledStrided(
                                tier, cj + lo * cols, cols,
                                cp + lo * cols, cols,
                                static_cast<float>(proj), hi - lo);
                        });
        }
        const double norm_sq = colDot(cj, cj);
        const double norm = std::sqrt(norm_sq);
        // A column that lost (almost) all of its norm to the
        // projections is linearly dependent on earlier columns;
        // renormalizing it would amplify float noise into a random
        // direction, so zero it instead.
        if (norm < 1e-8 || norm_sq < 1e-10 * norm_before_sq) {
            for (int64_t i = 0; i < rows; ++i)
                cj[i * cols] = 0.0f;
        } else {
            const float inv = static_cast<float>(1.0 / norm);
            parallelFor(0, rows, kOrthoGrain,
                        [&](int64_t lo, int64_t hi) {
                            simd::scaleStrided(tier, cj + lo * cols,
                                               cols, inv, hi - lo);
                        });
        }
    }
}

namespace
{

/** Clamp the configured rank to the matrix dimensions. */
int
effectiveRank(int rank, int64_t rows, int64_t cols)
{
    const int64_t limit = std::min(rows, cols);
    return static_cast<int>(std::min<int64_t>(rank, limit));
}

/** Ensure q is [cols x r]; (re)initialize randomly when stale. */
void
ensureWarmQ(Tensor &q, int64_t cols, int r, Rng &rng)
{
    if (q.rank() == 2 && q.rows() == cols && q.cols() == r)
        return;
    q = Tensor::randn({cols, r}, rng);
    orthonormalizeColumns(q);
}

/** Ensure scratch is a zeroed [rows x cols] tensor, reusing storage. */
void
ensureZeroed(Tensor &scratch, int64_t rows, int64_t cols)
{
    if (scratch.rank() == 2 && scratch.rows() == rows &&
        scratch.cols() == cols) {
        scratch.setZero();
        return;
    }
    scratch = Tensor({rows, cols});
}

} // namespace

DistributedPowerSgd::DistributedPowerSgd(int workers, int rank,
                                         uint64_t seed)
    : workers_(workers), rank_(rank), seed_(seed), rng_(seed)
{
    OPTIMUS_ASSERT(workers >= 1);
    OPTIMUS_ASSERT(rank >= 1);
}

// optlint:hot — steady-state step path (zero-allocation contract).
int64_t
DistributedPowerSgd::reduce(const std::vector<const Tensor *> &inputs,
                            Tensor &mean_output)
{
    OPTIMUS_ASSERT(!inputs.empty() && inputs[0] != nullptr);
    obs::ScopedSpan span("compress", "powersgd.reduce", -1, "elems",
                         inputs[0]->size());
    return iterate(inputs, mean_output);
}

// optlint:hot — steady-state step path (zero-allocation contract).
int64_t
DistributedPowerSgd::iterate(const std::vector<const Tensor *> &inputs,
                             Tensor &mean_output)
{
    OPTIMUS_ASSERT(static_cast<int>(inputs.size()) == workers_);
    OPTIMUS_ASSERT(inputs[0] != nullptr && inputs[0]->rank() == 2);
    const int64_t rows = inputs[0]->rows();
    const int64_t cols = inputs[0]->cols();
    for (const Tensor *t : inputs) {
        OPTIMUS_ASSERT(t != nullptr && t->rank() == 2);
        OPTIMUS_ASSERT(t->rows() == rows && t->cols() == cols);
    }
    const int r = effectiveRank(rank_, rows, cols);

    ensureWarmQ(q_, cols, r, rng_);

    // Phase 1: local P_d = M_d * Q, then all-reduce(sum).
    ensureZeroed(pScratch_, rows, r);
    for (const Tensor *t : inputs)
        matmulAcc(pScratch_, *t, q_);
    orthonormalizeColumns(pScratch_);

    // Phase 2: local Q_d = M_d^T * P_hat, then all-reduce(mean).
    ensureZeroed(qScratch_, cols, r);
    for (const Tensor *t : inputs)
        matmulAccTN(qScratch_, *t, pScratch_);
    qScratch_.scale(1.0f / static_cast<float>(workers_));
    // The old Q's storage becomes the next call's Q scratch.
    std::swap(q_, qScratch_);

    ensureZeroed(mean_output, rows, cols);
    matmulAccNT(mean_output, pScratch_, q_);
    return payloadBytes(rows, cols);
}

int64_t
DistributedPowerSgd::payloadBytes(int64_t rows, int64_t cols) const
{
    const int r = effectiveRank(rank_, rows, cols);
    return static_cast<int64_t>(sizeof(float)) * r * (rows + cols);
}

void
DistributedPowerSgd::reset()
{
    q_ = Tensor();
    pScratch_ = Tensor();
    qScratch_ = Tensor();
    rng_.seed(seed_);
}

int64_t
DistributedPowerSgd::stateBytes() const
{
    return static_cast<int64_t>(sizeof(float)) * q_.size();
}

PowerSgdCompressor::PowerSgdCompressor(int rank, uint64_t seed)
    : iteration_(1, rank, seed), inputs_(1, nullptr)
{
}

// optlint:hot — steady-state step path (zero-allocation contract).
int64_t
PowerSgdCompressor::compress(const Tensor &input, Tensor &output)
{
    obs::ScopedSpan span("compress", "powersgd.compress", -1,
                         "elems", input.size());
    inputs_[0] = &input;
    return iteration_.iterate(inputs_, output);
}

int64_t
PowerSgdCompressor::payloadBytes(int64_t rows, int64_t cols) const
{
    return iteration_.payloadBytes(rows, cols);
}

void
PowerSgdCompressor::reset()
{
    iteration_.reset();
}

int64_t
PowerSgdCompressor::stateBytes() const
{
    return iteration_.stateBytes();
}

} // namespace optimus
