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
 * Partial grid of the Gram-Schmidt dot products. Fixed so the
 * double-precision partial sums — combined in partial order — are
 * reproducible at any thread count.
 */
constexpr int64_t kOrthoGrain = 2048;

} // namespace

// optlint:hot
void
orthonormalizeRows(Tensor &m)
{
    OPTIMUS_ASSERT(m.rank() == 2);
    const int64_t rows = m.rows();
    const int64_t len = m.cols();
    float *data = m.data();
    const simd::Tier tier = simd::tier();

    // Each vector is a contiguous row, so the Gram-Schmidt runs the
    // contiguous simd:: kernels in place; a streaming element update
    // costs ~8 multiply-adds.
    auto rowDot = [&](const float *x, const float *y) {
        return parallelReduceSum(
            0, len, kOrthoGrain, 8, [&](int64_t lo, int64_t hi) {
                return simd::dotDouble(tier, x + lo, y + lo, hi - lo);
            });
    };

    for (int64_t j = 0; j < rows; ++j) {
        float *vj = data + j * len;
        const double norm_before_sq = rowDot(vj, vj);
        // Subtract projections onto previous rows (modified
        // Gram-Schmidt: re-read the updated row each time).
        for (int64_t p = 0; p < j; ++p) {
            const float *vp = data + p * len;
            const double proj = rowDot(vj, vp);
            parallelFor(0, len, grainForWork(8),
                        [&](int64_t lo, int64_t hi) {
                            simd::subScaled(tier, vj + lo, vp + lo,
                                            static_cast<float>(proj),
                                            hi - lo);
                        });
        }
        const double norm_sq = rowDot(vj, vj);
        const double norm = std::sqrt(norm_sq);
        // A row that lost (almost) all of its norm to the
        // projections is linearly dependent on earlier rows;
        // renormalizing it would amplify float noise into a random
        // direction, so zero it instead.
        if (norm < 1e-8 || norm_sq < 1e-10 * norm_before_sq) {
            std::fill(vj, vj + len, 0.0f);
        } else {
            const float inv = static_cast<float>(1.0 / norm);
            parallelFor(0, len, grainForWork(8),
                        [&](int64_t lo, int64_t hi) {
                            simd::scaleInPlace(tier, vj + lo, inv,
                                               hi - lo);
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

/**
 * Ensure qt is Q^T [r x cols]; (re)initialize randomly when stale.
 * Q is drawn [cols x r] and transposed once, so the RNG stream, and
 * with it every warm start, is the one the column layout drew.
 */
void
ensureWarmQ(Tensor &qt, int64_t cols, int r, Rng &rng)
{
    if (qt.rank() == 2 && qt.rows() == r && qt.cols() == cols)
        return;
    qt = Tensor::randn({cols, r}, rng).transposed();
    orthonormalizeRows(qt);
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

    // The factors are stored transposed (P^T [r x rows], Q^T
    // [r x cols]) so each of the r vectors is a contiguous row. Each
    // GEMM builds every element from the same k-ordered products as
    // the column-layout form, so the layout moves no bits.

    // Phase 1: local P_d^T = Q^T * M_d^T, then all-reduce(sum).
    ensureZeroed(pScratch_, r, rows);
    for (const Tensor *t : inputs)
        matmulAccNT(pScratch_, q_, *t);
    orthonormalizeRows(pScratch_);

    // Phase 2: local Q_d^T = P_hat^T * M_d, then all-reduce(mean).
    ensureZeroed(qScratch_, r, cols);
    for (const Tensor *t : inputs)
        matmulAcc(qScratch_, pScratch_, *t);
    qScratch_.scale(1.0f / static_cast<float>(workers_));
    // The old Q's storage becomes the next call's Q scratch.
    std::swap(q_, qScratch_);

    // mean(M) ~= P_hat * Q^T = (P_hat^T)^T * Q^T.
    ensureZeroed(mean_output, rows, cols);
    matmulAccTN(mean_output, pScratch_, q_);
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
