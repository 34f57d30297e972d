/**
 * @file
 * Runtime SIMD dispatch for the dense and compression hot paths.
 *
 * Every vectorized kernel in the tree (the GEMM micro-kernels in
 * gemm_kernels.cc, and the compression primitives, the in-process
 * all-reduce, the serve attention row kernels, the residual add/sub,
 * the Linear bias passes, LayerNorm, GELU and the Adam step
 * implemented in simd.cc) is selected through a `simd::Tier`:
 *
 *   Scalar — the portable kernels the tree shipped with; always
 *            available and the bit-exact baseline.
 *   Avx2   — 8-wide float kernels (AVX2 + FMA + POPCNT).
 *   Avx512 — the AVX2 element-wise kernels plus a 14x32 zmm GEMM
 *            tile (AVX-512F).
 *
 * The active tier is resolved once, at first use, from the CPU
 * (via `__builtin_cpu_supports`) and the `OPTIMUS_SIMD` environment
 * variable (`scalar|avx2|avx512|auto`); requesting a tier the CPU
 * lacks warns and clamps to the best supported one, exactly like an
 * oversized `OPTIMUS_THREADS`. Tests and benches may switch tiers
 * mid-process with `setTier()` (kernels read the tier per call).
 *
 * Determinism contract (see DESIGN.md section 8): every kernel is
 * bitwise deterministic *per tier* at any `OPTIMUS_THREADS` setting,
 * because the parallel chunk grids are functions of the problem
 * shape only and each chunk's lane/accumulator order is fixed by the
 * kernel. Reductions accumulate into a fixed number of double lanes
 * and combine them in one documented order (the shared
 * horizontal-reduction helper in simd_internal.hh), so a tier never
 * depends on thread count. The two vector tiers run one kernel per
 * element-wise primitive, and their GEMM tiles build every element
 * with the same FMA chain, so Avx2 and Avx512 are bitwise equal;
 * Scalar and the vector tiers round reductions differently and
 * agree only to tolerance. The Scalar tier reproduces the
 * pre-dispatch tree bit-for-bit.
 *
 * This header is intrinsics-free on purpose: raw `_mm*` usage is
 * confined to simd.cc and gemm_kernels.cc (lint rule SIM01).
 */

#ifndef OPTIMUS_TENSOR_SIMD_HH
#define OPTIMUS_TENSOR_SIMD_HH

#include <cstdint>

namespace optimus
{
namespace simd
{

/** Dispatch tiers, ordered from narrowest to widest. */
enum class Tier
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Widest tier this CPU supports (cached after first call). */
Tier cap();

/** True when @p t is available on this CPU. */
bool supported(Tier t);

/**
 * The active tier: `OPTIMUS_SIMD` override (clamped to cap(), with
 * a warning when clamping or unparsable) or cap() when unset/auto.
 * Resolved once; later `setTier()` calls replace it.
 */
Tier tier();

/**
 * Force the active tier (testing/bench hook — this is how one
 * process measures every tier). Clamps to cap() with a warning,
 * like the environment override. Not meant to be called
 * concurrently with running kernels.
 */
void setTier(Tier t);

/** Lower-case tier name ("scalar", "avx2", "avx512"). */
const char *tierName(Tier t);

/**
 * Parse a tier name (the `OPTIMUS_SIMD` syntax; "auto" maps to
 * cap()). @return false when @p name is not a known spelling.
 */
bool parseTier(const char *name, Tier &out);

// ---------------------------------------------------------------
// Tier-dispatched vector primitives (contiguous spans). The Scalar
// implementations are the exact loops the compression kernels used
// before dispatch existed; both vector tiers run one AVX2 kernel
// (see simd.cc for its lane order). All are safe for any n >= 0 and
// never read past x[n-1].
// ---------------------------------------------------------------

/**
 * Double-precision dot product of two float spans. Scalar: one
 * running double in element order. Vector tiers: 16 fixed
 * double-lane accumulators combined by the shared
 * horizontal-reduction helper, then the scalar tail in element
 * order.
 */
double dotDouble(Tier t, const float *x, const float *y, int64_t n);

/**
 * Scaled dot products of one vector against @p count rows @p ld
 * floats apart (attention scores of one query against cached keys):
 *   out[j] = float(dotDouble(t, q, rows + j*ld, n)) * scale.
 * Each tier runs exactly its own dotDouble arithmetic per row —
 * Scalar sums in element order, the vector tiers keep dotDouble's
 * four accumulator registers and (l0 + l1) + (l2 + l3) reduction —
 * so the result is bitwise equal to the per-row loop. The vector
 * tiers score four rows per pass over q. @pre ld >= n
 */
void dotRowsScaled(Tier t, float *out, const float *q, const float *rows,
                   int64_t ld, int64_t count, int64_t n, float scale);

/**
 * Weighted row sum (attention context over cached values):
 *   out[c] = sum over j ascending of w[j] * rows[j*ld + c],
 * starting from 0.0f, each step one float multiply then one float
 * add. Every tier keeps the running sums in registers and rounds
 * each step exactly like the scalar loop, so all tiers are bitwise
 * equal. @pre ld >= n, @p out does not overlap @p rows or @p w
 */
void weightedRowSum(Tier t, float *out, const float *w,
                    const float *rows, int64_t ld, int64_t count,
                    int64_t n);

/** y[i] -= a * x[i] (one multiply, one subtract per lane — every
 * tier rounds identically to the scalar loop). */
void subScaled(Tier t, float *y, const float *x, float a, int64_t n);

/** x[i] *= a (lane-exact across tiers). */
void scaleInPlace(Tier t, float *x, float a, int64_t n);

/** dst[i] = |src[i]| (lane-exact across tiers). */
void absVals(Tier t, float *dst, const float *src, int64_t n);

/** dst[i] = |src[i]| / scale — IEEE division, so every tier matches
 * the scalar loop bit-for-bit. @pre scale != 0 */
void absDiv(Tier t, float *dst, const float *src, float scale,
            int64_t n);

/**
 * Signed partition sums for the one-bit quantizer: accumulates
 * src[i] into @p pos_sum / @p neg_sum (double) and counts each side,
 * splitting on src[i] >= 0. Fixed accumulation order per tier
 * (one order for both vector tiers).
 */
void signedSums(Tier t, const float *src, int64_t n, double &pos_sum,
                double &neg_sum, int64_t &pos_count,
                int64_t &neg_count);

/** dst[i] = src[i] >= 0 ? pos : neg (lane-exact across tiers). */
void selectBySign(Tier t, float *dst, const float *src, float pos,
                  float neg, int64_t n);

/**
 * Top-k keep pass: for every i with mag[i] > thresh, store
 * dst[i] = src[i] (dst elsewhere untouched). @return the number of
 * kept elements. Strictly-greater on purpose: ties at the threshold
 * are filled afterwards in index order, making the kept set
 * independent of any library partition order.
 */
int64_t keepAbove(Tier t, float *dst, const float *src,
                  const float *mag, float thresh, int64_t n);

/**
 * In-process all-reduce of one element range over @p ranks buffers:
 * for k in [begin, end), v = float((sum over d ascending of
 * double(bufs[d][k]), from 0.0) * scale), then bufs[d][k] = v for
 * every d. Lanes are elements, so every tier is bitwise equal to the
 * scalar loop.
 */
void combineRanks(Tier t, float *const *bufs, int ranks, int64_t begin,
                  int64_t end, double scale);

// ---------------------------------------------------------------
// Element-wise layer kernels (the nn hot loops). Every kernel but
// GELU is bitwise equal to its Scalar loop on every tier: the vector
// tiers keep each output's chain of IEEE operations, in the same
// order, and only run several chains side by side. The row kernels
// take @p rows rows of @p n floats, @p ld floats apart (ld >= n),
// and touch nothing past a row's n-th float.
// ---------------------------------------------------------------

/** dst[i] = a[i] + b[i]. @p dst may be @p a or @p b itself, but may
 * not overlap either partially. */
void addVals(Tier t, float *dst, const float *a, const float *b,
             int64_t n);

/** dst[i] = a[i] - b[i], with addVals's aliasing rule. */
void subVals(Tier t, float *dst, const float *a, const float *b,
             int64_t n);

/** Bias add across rows: y[i*ld + j] += bias[j]. */
void addRowBias(Tier t, float *y, const float *bias, int64_t ld,
                int64_t rows, int64_t n);

/** Column sums accumulated rows in order: acc[j] += x[i*ld + j] for
 * i ascending (the vector tiers run 8 columns per register). */
void addColSums(Tier t, float *acc, const float *x, int64_t ld,
                int64_t rows, int64_t n);

/**
 * LayerNorm forward over rows. Per row: mu = float(sum / n) and
 * var = sum of double(x - mu)^2, each one double chain in element
 * order; inv = 1 / sqrt(float(var / n) + eps); then
 * xn = (x - mu) * inv and y = gamma * xn + beta, one multiply and one
 * add. When @p xhat is non-null, xn goes to xhat (same ld) and inv to
 * inv_std[i]; Infer passes both null. The vector tiers run the row
 * chains of four or eight rows per pass, one row per double lane,
 * and the sweeps 8 columns per register.
 */
void layerNormForward(Tier t, float *y, float *xhat, float *inv_std,
                      const float *x, const float *gamma,
                      const float *beta, int64_t ld, int64_t rows,
                      int64_t n, float eps);

/**
 * LayerNorm input gradient over rows, with dxhat = dy * gamma:
 * md = float(sum dxhat / n) and mdx = float(sum dxhat * xhat / n),
 * both double chains in element order (row lanes, as in the
 * forward), then dx = inv_std[i] * ((dxhat - md) - xhat * mdx).
 */
void layerNormBackward(Tier t, float *dx, const float *dy,
                       const float *xhat, const float *inv_std,
                       const float *gamma, int64_t ld, int64_t rows,
                       int64_t n);

/** LayerNorm parameter gradients, rows in order:
 * dgamma[j] += dy[i*ld + j] * xhat[i*ld + j], one multiply and one
 * add, and dbeta[j] += dy[i*ld + j]. */
void layerNormParamGrads(Tier t, float *dgamma, float *dbeta,
                         const float *dy, const float *xhat, int64_t ld,
                         int64_t rows, int64_t n);

/**
 * GELU, tanh approximation: y[i] = 0.5 x (1 + tanh(k (x + c x^3))).
 * Scalar: the historical loop with std::tanh. AVX2 evaluates tanh
 * from one fixed exp polynomial with IEEE mul, add, sub, div and
 * round only (masked tails, no FMA) and agrees with Scalar to the
 * bound pinned in test_simd_dispatch; Avx512 runs the same AVX2
 * kernel, so the two vector tiers are bitwise equal. Non-finite
 * inputs give the Scalar form's NaN/Inf class.
 */
void geluForward(Tier t, float *y, const float *x, int64_t n);

/** GELU backward: dx[i] = dy[i] * gelu'(x[i]), same per-tier
 * contract as geluForward. */
void geluBackward(Tier t, float *dx, const float *dy, const float *x,
                  int64_t n);

/**
 * One Adam update over a contiguous span, in the historical order:
 *   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
 *   w = w - (alpha*m) / (sqrt(v) + eps).
 * Every step is one IEEE-rounded operation, so every tier is
 * bitwise equal to the scalar loop.
 */
void adamStep(Tier t, float *m, float *v, float *w, const float *g,
              int64_t n, float beta1, float beta2, float eps,
              float alpha);

} // namespace simd
} // namespace optimus

#endif // OPTIMUS_TENSOR_SIMD_HH
