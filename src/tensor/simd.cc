#include "tensor/simd.hh"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "tensor/simd_internal.hh"
#include "util/logging.hh"

/*
 * Per-tier vector primitives. Layout of this file:
 *
 *   1. tier detection / OPTIMUS_SIMD resolution / setTier
 *   2. Scalar kernels — verbatim the loops the compression code,
 *      the GELU layer, the Adam step and the serve attention rows
 *      used before dispatch existed (bit-exact baseline)
 *   3. AVX2 kernels (8-wide, target attribute, no -mavx2 needed),
 *      which both vector tiers run
 *   4. public dispatch wrappers
 *
 * Determinism: every reduction keeps a fixed number of double-lane
 * accumulators, combines adjacent accumulator pairs lanewise, and
 * funnels the final register through hsum4d (simd_internal.hh),
 * then appends the scalar tail in element order.
 * Nothing here depends on OPTIMUS_THREADS — callers parallelize over
 * shape-derived chunk grids and invoke these on each chunk.
 *
 * This translation unit is compiled with -ffp-contract=off (see
 * tensor/CMakeLists.txt) so the scalar loops and tails can never be
 * FMA-contracted; fused operations appear only where an explicit
 * intrinsic asks for them. That keeps the "lane-exact across tiers"
 * guarantees of simd.hh true in every build configuration.
 */

namespace optimus
{
namespace simd
{

// ----------------------------------------------------------------
// Tier detection and selection
// ----------------------------------------------------------------

namespace
{

Tier
detectCap()
{
#if OPTIMUS_SIMD_X86
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("popcnt"))
        return Tier::Avx512;
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma") &&
        __builtin_cpu_supports("popcnt"))
        return Tier::Avx2;
#endif
    return Tier::Scalar;
}

/** Active tier; -1 until first resolution. */
std::atomic<int> g_tier{-1};

Tier
resolveFromEnv()
{
    const Tier best = cap();
    const char *env = std::getenv("OPTIMUS_SIMD");
    if (env == nullptr || *env == '\0')
        return best;
    Tier want;
    if (!parseTier(env, want))
    {
        warn("OPTIMUS_SIMD=%s is not scalar|avx2|avx512|auto; "
             "using %s",
             env, tierName(best));
        return best;
    }
    if (!supported(want))
    {
        warn("OPTIMUS_SIMD=%s not supported by this CPU; clamping "
             "to %s",
             env, tierName(best));
        return best;
    }
    return want;
}

} // namespace

Tier
cap()
{
    static const Tier t = detectCap();
    return t;
}

bool
supported(Tier t)
{
    return static_cast<int>(t) <= static_cast<int>(cap());
}

Tier
tier()
{
    int t = g_tier.load(std::memory_order_relaxed);
    if (t < 0)
    {
        const Tier resolved = resolveFromEnv();
        g_tier.store(static_cast<int>(resolved),
                     std::memory_order_relaxed);
        return resolved;
    }
    return static_cast<Tier>(t);
}

void
setTier(Tier t)
{
    if (!supported(t))
    {
        warn("setTier(%s) not supported by this CPU; clamping to %s",
             tierName(t), tierName(cap()));
        t = cap();
    }
    g_tier.store(static_cast<int>(t), std::memory_order_relaxed);
}

const char *
tierName(Tier t)
{
    switch (t)
    {
    case Tier::Avx512:
        return "avx512";
    case Tier::Avx2:
        return "avx2";
    case Tier::Scalar:
    default:
        return "scalar";
    }
}

bool
parseTier(const char *name, Tier &out)
{
    if (name == nullptr)
        return false;
    if (std::strcmp(name, "scalar") == 0)
        out = Tier::Scalar;
    else if (std::strcmp(name, "avx2") == 0)
        out = Tier::Avx2;
    else if (std::strcmp(name, "avx512") == 0)
        out = Tier::Avx512;
    else if (std::strcmp(name, "auto") == 0)
        out = cap();
    else
        return false;
    return true;
}

// ----------------------------------------------------------------
// Scalar kernels — the pre-dispatch loops, bit for bit
// ----------------------------------------------------------------

namespace
{

double
dotScalar(const float *x, const float *y, int64_t n)
{
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i)
        s += static_cast<double>(x[i]) * y[i];
    return s;
}

void
subScaledScalar(float *y, const float *x, float a, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] -= a * x[i];
}

void
scaleScalar(float *x, float a, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        x[i] *= a;
}

void
absScalar(float *dst, const float *src, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

void
absDivScalar(float *dst, const float *src, float scale, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = std::fabs(src[i]) / scale;
}

void
signedSumsScalar(const float *src, int64_t n, double &pos_sum,
                 double &neg_sum, int64_t &pos_count,
                 int64_t &neg_count)
{
    double ps = 0.0;
    double ns = 0.0;
    int64_t pc = 0;
    int64_t nc = 0;
    for (int64_t i = 0; i < n; ++i)
    {
        if (src[i] >= 0.0f)
        {
            ps += static_cast<double>(src[i]);
            ++pc;
        }
        else
        {
            ns += static_cast<double>(src[i]);
            ++nc;
        }
    }
    pos_sum = ps;
    neg_sum = ns;
    pos_count = pc;
    neg_count = nc;
}

void
selectBySignScalar(float *dst, const float *src, float pos,
                   float neg, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = src[i] >= 0.0f ? pos : neg;
}

int64_t
keepAboveScalar(float *dst, const float *src, const float *mag,
                float thresh, int64_t n)
{
    int64_t kept = 0;
    for (int64_t i = 0; i < n; ++i)
    {
        if (mag[i] > thresh)
        {
            dst[i] = src[i];
            ++kept;
        }
    }
    return kept;
}

// GELU (tanh form) constants, shared by every tier.
constexpr float kGeluK = 0.7978845608028654f; // sqrt(2 / pi)
constexpr float kGeluC = 0.044715f;
constexpr float kGeluC3 = 3.0f * kGeluC;

void
geluForwardScalar(float *y, const float *x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        const float xi = x[i];
        const float inner = kGeluK * (xi + kGeluC * xi * xi * xi);
        y[i] = 0.5f * xi * (1.0f + std::tanh(inner));
    }
}

void
geluBackwardScalar(float *dx, const float *dy, const float *x,
                   int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        const float xi = x[i];
        const float inner = kGeluK * (xi + kGeluC * xi * xi * xi);
        const float t = std::tanh(inner);
        const float sech2 = 1.0f - t * t;
        const float dinner = kGeluK * (1.0f + kGeluC3 * xi * xi);
        dx[i] = dy[i] * (0.5f * (1.0f + t) +
                         0.5f * xi * sech2 * dinner);
    }
}

void
adamScalar(float *m, float *v, float *w, const float *g, int64_t n,
           float beta1, float beta2, float eps, float alpha)
{
    for (int64_t j = 0; j < n; ++j) {
        m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
        v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
        w[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps);
    }
}

void
dotRowsScaledScalar(float *out, const float *q, const float *rows,
                    int64_t ld, int64_t count, int64_t n, float scale)
{
    for (int64_t j = 0; j < count; ++j)
        out[j] = static_cast<float>(dotScalar(q, rows + j * ld, n)) * scale;
}

/** Sixteen columns at a time in a local block the compiler keeps in
 * registers; each column still sums j-ascending from 0.0f. */
void
weightedRowSumScalar(float *out, const float *w, const float *rows,
                     int64_t ld, int64_t count, int64_t n)
{
    constexpr int64_t kCols = 16;
    for (int64_t c0 = 0; c0 < n; c0 += kCols) {
        float acc[kCols] = {};
        const float *base = rows + c0;
        if (c0 + kCols <= n) {
            for (int64_t j = 0; j < count; ++j) {
                const float wj = w[j];
                const float *row = base + j * ld;
                for (int64_t c = 0; c < kCols; ++c)
                    acc[c] += wj * row[c];
            }
            for (int64_t c = 0; c < kCols; ++c)
                out[c0 + c] = acc[c];
        } else {
            const int64_t cols = n - c0;
            for (int64_t j = 0; j < count; ++j) {
                const float wj = w[j];
                const float *row = base + j * ld;
                for (int64_t c = 0; c < cols; ++c)
                    acc[c] += wj * row[c];
            }
            for (int64_t c = 0; c < cols; ++c)
                out[c0 + c] = acc[c];
        }
    }
}


void
combineRanksScalar(float *const *bufs, int ranks, int64_t begin,
                   int64_t end, double scale)
{
    for (int64_t k = begin; k < end; ++k) {
        double acc = 0.0;
        for (int d = 0; d < ranks; ++d)
            acc += bufs[d][k];
        const float v = static_cast<float>(acc * scale);
        for (int d = 0; d < ranks; ++d)
            bufs[d][k] = v;
    }
}

void
addValsScalar(float *dst, const float *a, const float *b, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = a[i] + b[i];
}

void
subValsScalar(float *dst, const float *a, const float *b, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = a[i] - b[i];
}

void
addRowBiasScalar(float *y, const float *bias, int64_t ld, int64_t rows,
                 int64_t n)
{
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < n; ++j)
            y[i * ld + j] += bias[j];
    }
}

void
addColSumsScalar(float *acc, const float *x, int64_t ld, int64_t rows,
                 int64_t n)
{
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < n; ++j)
            acc[j] += x[i * ld + j];
    }
}

void
layerNormForwardScalar(float *y, float *xhat, float *inv_std,
                       const float *x, const float *g, const float *b,
                       int64_t ld, int64_t rows, int64_t n, float eps)
{
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = x + i * ld;
        double sum = 0.0;
        for (int64_t j = 0; j < n; ++j)
            sum += row[j];
        const float mu = static_cast<float>(sum / n);
        double var = 0.0;
        for (int64_t j = 0; j < n; ++j) {
            const float d = row[j] - mu;
            var += static_cast<double>(d) * d;
        }
        const float inv =
            1.0f / std::sqrt(static_cast<float>(var / n) + eps);
        float *yr = y + i * ld;
        // Two copies of the output sweep keep the stash test out of
        // the inner loop.
        if (xhat != nullptr) {
            inv_std[i] = inv;
            float *nr = xhat + i * ld;
            for (int64_t j = 0; j < n; ++j) {
                const float xn = (row[j] - mu) * inv;
                nr[j] = xn;
                yr[j] = g[j] * xn + b[j];
            }
        } else {
            for (int64_t j = 0; j < n; ++j) {
                const float xn = (row[j] - mu) * inv;
                yr[j] = g[j] * xn + b[j];
            }
        }
    }
}

void
layerNormBackwardScalar(float *dx, const float *dy, const float *xhat,
                        const float *inv_std, const float *g,
                        int64_t ld, int64_t rows, int64_t n)
{
    for (int64_t i = 0; i < rows; ++i) {
        const float *dyr = dy + i * ld;
        const float *nr = xhat + i * ld;
        float *dxr = dx + i * ld;
        // dl/dx_hat = dy * gamma; need its row mean and its
        // x_hat-weighted row mean for the normalization backward.
        double sum_dxhat = 0.0;
        double sum_dxhat_xhat = 0.0;
        for (int64_t j = 0; j < n; ++j) {
            const float dxhat = dyr[j] * g[j];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += static_cast<double>(dxhat) * nr[j];
        }
        const float mean_dxhat = static_cast<float>(sum_dxhat / n);
        const float mean_dxhat_xhat =
            static_cast<float>(sum_dxhat_xhat / n);
        const float inv = inv_std[i];
        for (int64_t j = 0; j < n; ++j) {
            const float dxhat = dyr[j] * g[j];
            dxr[j] = inv * (dxhat - mean_dxhat - nr[j] * mean_dxhat_xhat);
        }
    }
}

void
layerNormParamGradsScalar(float *dgamma, float *dbeta, const float *dy,
                          const float *xhat, int64_t ld, int64_t rows,
                          int64_t n)
{
    for (int64_t i = 0; i < rows; ++i) {
        const float *dyr = dy + i * ld;
        const float *nr = xhat + i * ld;
        for (int64_t j = 0; j < n; ++j) {
            dgamma[j] += dyr[j] * nr[j];
            dbeta[j] += dyr[j];
        }
    }
}

#if OPTIMUS_SIMD_X86

/*
 * Vector tanh of the GELU kernels, built only from IEEE
 * mul/add/sub/div, round-to-nearest-even and exact bit operations:
 *
 *   a = |u|;  z = min(kTanhClamp, a + a)   (NaN stays NaN)
 *   k = round(z * log2 e);  r = (z - k*kLn2Hi) - k*kLn2Lo
 *   e = (p(r) * r^2 + r + 1) * 2^k          (Cephes expf polynomial)
 *   tanh(u) = copysign(1 - 2 / (e + 1), u)
 *
 * tanh(20) already rounds to 1.0f, so clamping 2|u| at 40 keeps e
 * finite without changing a result; min() returns its second
 * operand when either is NaN, which is why z is min(clamp, 2a).
 */
constexpr float kTanhClamp = 40.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

// ----------------------------------------------------------------
// AVX2 kernels (8 floats / 4 doubles per register)
// ----------------------------------------------------------------

OPTIMUS_TARGET_AVX2 double
dotAvx2(const float *x, const float *y, int64_t n)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
    {
        acc0 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(x + i)),
            _mm256_cvtps_pd(_mm_loadu_ps(y + i)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4)),
            _mm256_cvtps_pd(_mm_loadu_ps(y + i + 4)), acc1);
        acc2 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(x + i + 8)),
            _mm256_cvtps_pd(_mm_loadu_ps(y + i + 8)), acc2);
        acc3 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(x + i + 12)),
            _mm256_cvtps_pd(_mm_loadu_ps(y + i + 12)), acc3);
    }
    double s = hsum4d(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3)));
    for (; i < n; ++i)
        s += static_cast<double>(x[i]) * y[i];
    return s;
}

OPTIMUS_TARGET_AVX2 void
subScaledAvx2(float *y, const float *x, float a, int64_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 prod =
            _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(
            y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), prod));
    }
    for (; i < n; ++i)
        y[i] -= a * x[i];
}

OPTIMUS_TARGET_AVX2 void
scaleAvx2(float *x, float a, int64_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(x + i,
                         _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        x[i] *= a;
}

/** Sign-bit clear mask — fabs as a bit operation, like the FPU. */
OPTIMUS_TARGET_AVX2 inline __m256
absMask256()
{
    return _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
}

OPTIMUS_TARGET_AVX2 void
absAvx2(float *dst, const float *src, int64_t n)
{
    const __m256 mask = absMask256();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            dst + i, _mm256_and_ps(mask, _mm256_loadu_ps(src + i)));
    for (; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

OPTIMUS_TARGET_AVX2 void
absDivAvx2(float *dst, const float *src, float scale, int64_t n)
{
    const __m256 mask = absMask256();
    const __m256 sv = _mm256_set1_ps(scale);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 av =
            _mm256_and_ps(mask, _mm256_loadu_ps(src + i));
        _mm256_storeu_ps(dst + i, _mm256_div_ps(av, sv));
    }
    for (; i < n; ++i)
        dst[i] = std::fabs(src[i]) / scale;
}

OPTIMUS_TARGET_AVX2 void
signedSumsAvx2(const float *src, int64_t n, double &pos_sum,
               double &neg_sum, int64_t &pos_count,
               int64_t &neg_count)
{
    const __m256 zero = _mm256_setzero_ps();
    __m256d pacc0 = _mm256_setzero_pd();
    __m256d pacc1 = _mm256_setzero_pd();
    __m256d nacc0 = _mm256_setzero_pd();
    __m256d nacc1 = _mm256_setzero_pd();
    int64_t pc = 0;
    int64_t nc = 0;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 v = _mm256_loadu_ps(src + i);
        const __m256 ge = _mm256_cmp_ps(v, zero, _CMP_GE_OQ);
        // Masked-out lanes become +0.0, the additive identity for
        // every value these accumulators can hold.
        const __m256 pos = _mm256_and_ps(ge, v);
        const __m256 neg = _mm256_andnot_ps(ge, v);
        pacc0 = _mm256_add_pd(
            pacc0, _mm256_cvtps_pd(_mm256_castps256_ps128(pos)));
        pacc1 = _mm256_add_pd(
            pacc1, _mm256_cvtps_pd(_mm256_extractf128_ps(pos, 1)));
        nacc0 = _mm256_add_pd(
            nacc0, _mm256_cvtps_pd(_mm256_castps256_ps128(neg)));
        nacc1 = _mm256_add_pd(
            nacc1, _mm256_cvtps_pd(_mm256_extractf128_ps(neg, 1)));
        const int bits = _mm256_movemask_ps(ge);
        const int64_t ones =
            _mm_popcnt_u32(static_cast<unsigned>(bits));
        pc += ones;
        nc += 8 - ones;
    }
    double ps = hsum4d(_mm256_add_pd(pacc0, pacc1));
    double ns = hsum4d(_mm256_add_pd(nacc0, nacc1));
    for (; i < n; ++i)
    {
        if (src[i] >= 0.0f)
        {
            ps += static_cast<double>(src[i]);
            ++pc;
        }
        else
        {
            ns += static_cast<double>(src[i]);
            ++nc;
        }
    }
    pos_sum = ps;
    neg_sum = ns;
    pos_count = pc;
    neg_count = nc;
}

OPTIMUS_TARGET_AVX2 void
selectBySignAvx2(float *dst, const float *src, float pos, float neg,
                 int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    const __m256 pv = _mm256_set1_ps(pos);
    const __m256 nv = _mm256_set1_ps(neg);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 ge = _mm256_cmp_ps(_mm256_loadu_ps(src + i),
                                        zero, _CMP_GE_OQ);
        _mm256_storeu_ps(dst + i, _mm256_blendv_ps(nv, pv, ge));
    }
    for (; i < n; ++i)
        dst[i] = src[i] >= 0.0f ? pos : neg;
}

OPTIMUS_TARGET_AVX2 int64_t
keepAboveAvx2(float *dst, const float *src, const float *mag,
              float thresh, int64_t n)
{
    const __m256 tv = _mm256_set1_ps(thresh);
    int64_t kept = 0;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 gt = _mm256_cmp_ps(_mm256_loadu_ps(mag + i),
                                        tv, _CMP_GT_OQ);
        const int bits = _mm256_movemask_ps(gt);
        if (bits == 0)
            continue;
        _mm256_maskstore_ps(dst + i, _mm256_castps_si256(gt),
                            _mm256_loadu_ps(src + i));
        kept += _mm_popcnt_u32(static_cast<unsigned>(bits));
    }
    for (; i < n; ++i)
    {
        if (mag[i] > thresh)
        {
            dst[i] = src[i];
            ++kept;
        }
    }
    return kept;
}

/** The vector tanh (see kTanhClamp), 8 lanes. */
OPTIMUS_TARGET_AVX2 inline __m256
tanhAvx2(__m256 u)
{
    const __m256i sign_bit = _mm256_set1_epi32(INT32_MIN);
    const __m256 a = _mm256_and_ps(absMask256(), u);
    const __m256 z =
        _mm256_min_ps(_mm256_set1_ps(kTanhClamp), _mm256_add_ps(a, a));
    const __m256 k = _mm256_round_ps(
        _mm256_mul_ps(z, _mm256_set1_ps(kLog2e)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256 r = _mm256_sub_ps(
        _mm256_sub_ps(z, _mm256_mul_ps(k, _mm256_set1_ps(kLn2Hi))),
        _mm256_mul_ps(k, _mm256_set1_ps(kLn2Lo)));
    __m256 p = _mm256_set1_ps(kExpP0);
    for (float c : {kExpP1, kExpP2, kExpP3, kExpP4, kExpP5})
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
    __m256 e = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
        _mm256_set1_ps(1.0f));
    const __m256i pow2 = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvtps_epi32(k), _mm256_set1_epi32(127)),
        23);
    e = _mm256_mul_ps(e, _mm256_castsi256_ps(pow2));
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 t = _mm256_sub_ps(
        one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
    return _mm256_or_ps(
        t, _mm256_and_ps(u, _mm256_castsi256_ps(sign_bit)));
}

/** inner = k * (x + c*x*x*x), in the scalar association. */
OPTIMUS_TARGET_AVX2 inline __m256
geluInnerAvx2(__m256 x)
{
    const __m256 cube = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluC), x), x), x);
    return _mm256_mul_ps(_mm256_set1_ps(kGeluK), _mm256_add_ps(x, cube));
}

OPTIMUS_TARGET_AVX2 inline __m256
geluForwardLanesAvx2(__m256 x)
{
    const __m256 t = tanhAvx2(geluInnerAvx2(x));
    return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                         _mm256_add_ps(_mm256_set1_ps(1.0f), t));
}

OPTIMUS_TARGET_AVX2 inline __m256
geluBackwardLanesAvx2(__m256 dy, __m256 x)
{
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 t = tanhAvx2(geluInnerAvx2(x));
    const __m256 sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
    const __m256 dinner = _mm256_mul_ps(
        _mm256_set1_ps(kGeluK),
        _mm256_add_ps(
            one,
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluC3), x), x)));
    const __m256 d = _mm256_add_ps(
        _mm256_mul_ps(half, _mm256_add_ps(one, t)),
        _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(half, x), sech2),
                      dinner));
    return _mm256_mul_ps(dy, d);
}

/** Lane mask selecting the first @p rem (0 < rem < 8) lanes. */
OPTIMUS_TARGET_AVX2 inline __m256i
tailMaskAvx2(int64_t rem)
{
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(rem)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

OPTIMUS_TARGET_AVX2 void
geluForwardAvx2(float *y, const float *x, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i,
                         geluForwardLanesAvx2(_mm256_loadu_ps(x + i)));
    if (i < n) {
        const __m256i mask = tailMaskAvx2(n - i);
        _mm256_maskstore_ps(
            y + i, mask,
            geluForwardLanesAvx2(_mm256_maskload_ps(x + i, mask)));
    }
}

OPTIMUS_TARGET_AVX2 void
geluBackwardAvx2(float *dx, const float *dy, const float *x, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dx + i,
                         geluBackwardLanesAvx2(_mm256_loadu_ps(dy + i),
                                               _mm256_loadu_ps(x + i)));
    if (i < n) {
        const __m256i mask = tailMaskAvx2(n - i);
        _mm256_maskstore_ps(
            dx + i, mask,
            geluBackwardLanesAvx2(_mm256_maskload_ps(dy + i, mask),
                                  _mm256_maskload_ps(x + i, mask)));
    }
}

OPTIMUS_TARGET_AVX2 void
adamAvx2(float *m, float *v, float *w, const float *g, int64_t n,
         float beta1, float beta2, float eps, float alpha)
{
    const __m256 b1 = _mm256_set1_ps(beta1);
    const __m256 c1 = _mm256_set1_ps(1.0f - beta1);
    const __m256 b2 = _mm256_set1_ps(beta2);
    const __m256 c2 = _mm256_set1_ps(1.0f - beta2);
    const __m256 ev = _mm256_set1_ps(eps);
    const __m256 av = _mm256_set1_ps(alpha);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 gj = _mm256_loadu_ps(g + j);
        const __m256 mj =
            _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + j)),
                          _mm256_mul_ps(c1, gj));
        const __m256 vj = _mm256_add_ps(
            _mm256_mul_ps(b2, _mm256_loadu_ps(v + j)),
            _mm256_mul_ps(_mm256_mul_ps(c2, gj), gj));
        const __m256 step =
            _mm256_div_ps(_mm256_mul_ps(av, mj),
                          _mm256_add_ps(_mm256_sqrt_ps(vj), ev));
        _mm256_storeu_ps(m + j, mj);
        _mm256_storeu_ps(v + j, vj);
        _mm256_storeu_ps(w + j,
                         _mm256_sub_ps(_mm256_loadu_ps(w + j), step));
    }
    adamScalar(m + j, v + j, w + j, g + j, n - j, beta1, beta2, eps,
               alpha);
}

/**
 * dotAvx2's 16-element blocks for two rows at once, sharing one
 * conversion of q: each row keeps its own four accumulators, and the
 * result is their lanewise (acc0 + acc1) + (acc2 + acc3), the
 * register dotAvx2 hands to hsum4d.
 */
OPTIMUS_TARGET_AVX2 inline void
dotBlocksPairAvx2(const float *q, const float *ra, const float *rb,
                  int64_t len, __m256d &va, __m256d &vb)
{
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    __m256d b0 = _mm256_setzero_pd();
    __m256d b1 = _mm256_setzero_pd();
    __m256d b2 = _mm256_setzero_pd();
    __m256d b3 = _mm256_setzero_pd();
    for (int64_t i = 0; i < len; i += 16) {
        const __m256d q0 = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
        const __m256d q1 = _mm256_cvtps_pd(_mm_loadu_ps(q + i + 4));
        const __m256d q2 = _mm256_cvtps_pd(_mm_loadu_ps(q + i + 8));
        const __m256d q3 = _mm256_cvtps_pd(_mm_loadu_ps(q + i + 12));
        a0 = _mm256_fmadd_pd(q0, _mm256_cvtps_pd(_mm_loadu_ps(ra + i)), a0);
        a1 = _mm256_fmadd_pd(q1, _mm256_cvtps_pd(_mm_loadu_ps(ra + i + 4)),
                             a1);
        a2 = _mm256_fmadd_pd(q2, _mm256_cvtps_pd(_mm_loadu_ps(ra + i + 8)),
                             a2);
        a3 = _mm256_fmadd_pd(q3,
                             _mm256_cvtps_pd(_mm_loadu_ps(ra + i + 12)), a3);
        b0 = _mm256_fmadd_pd(q0, _mm256_cvtps_pd(_mm_loadu_ps(rb + i)), b0);
        b1 = _mm256_fmadd_pd(q1, _mm256_cvtps_pd(_mm_loadu_ps(rb + i + 4)),
                             b1);
        b2 = _mm256_fmadd_pd(q2, _mm256_cvtps_pd(_mm_loadu_ps(rb + i + 8)),
                             b2);
        b3 = _mm256_fmadd_pd(q3,
                             _mm256_cvtps_pd(_mm_loadu_ps(rb + i + 12)), b3);
    }
    va = _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
    vb = _mm256_add_pd(_mm256_add_pd(b0, b1), _mm256_add_pd(b2, b3));
}

/**
 * Four rows per group, one row per double lane. The block part is
 * dotBlocksPairAvx2; two hadds and a 128-bit swap then form every
 * lane's (l0 + l1) + (l2 + l3) exactly as hsum4d does, and the tail
 * elements are added to all four lanes in element order, as dotAvx2
 * adds them to its scalar sum. Products of two floats are exact in
 * double, so each step rounds once, like dotAvx2's. A short last
 * group repeats its final row in the spare lanes and stores only
 * the live ones.
 */
OPTIMUS_TARGET_AVX2 void
dotRowsScaledAvx2(float *out, const float *q, const float *rows,
                  int64_t ld, int64_t count, int64_t n, float scale)
{
    const int64_t blocks = n - n % 16;
    const __m128 sv = _mm_set1_ps(scale);
    for (int64_t j = 0; j < count; j += 4) {
        const int64_t live = count - j < 4 ? count - j : 4;
        const float *r[4];
        for (int64_t l = 0; l < 4; ++l)
            r[l] = rows + (j + (l < live ? l : live - 1)) * ld;
        __m256d v0, v1, v2, v3;
        dotBlocksPairAvx2(q, r[0], r[1], blocks, v0, v1);
        dotBlocksPairAvx2(q, r[2], r[3], blocks, v2, v3);
        const __m256d h01 = _mm256_hadd_pd(v0, v1);
        const __m256d h23 = _mm256_hadd_pd(v2, v3);
        __m256d s = _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20),
                                  _mm256_permute2f128_pd(h01, h23, 0x31));
        for (int64_t i = blocks; i < n; ++i) {
            const __m128 c =
                _mm_setr_ps(r[0][i], r[1][i], r[2][i], r[3][i]);
            s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(q[i]),
                                               _mm256_cvtps_pd(c)));
        }
        const __m128 o = _mm_mul_ps(_mm256_cvtpd_ps(s), sv);
        if (live == 4) {
            _mm_storeu_ps(out + j, o);
        } else {
            alignas(16) float lanes[4];
            _mm_store_ps(lanes, o);
            for (int64_t l = 0; l < live; ++l)
                out[j + l] = lanes[l];
        }
    }
}

/**
 * weightedRowSum over R full registers of columns: the running sums
 * stay in registers for the whole j loop, and each step is a
 * separate multiply and add (this file is built with
 * -ffp-contract=off, so the compiler does not fuse them).
 */
template <int R>
OPTIMUS_TARGET_AVX2 inline void
weightedColsAvx2(float *out, const float *w, const float *rows,
                 int64_t ld, int64_t count)
{
    __m256 acc[R];
    for (int r = 0; r < R; ++r)
        acc[r] = _mm256_setzero_ps();
    for (int64_t j = 0; j < count; ++j) {
        const __m256 wj = _mm256_set1_ps(w[j]);
        const float *row = rows + j * ld;
        for (int r = 0; r < R; ++r)
            acc[r] = _mm256_add_ps(
                acc[r], _mm256_mul_ps(wj, _mm256_loadu_ps(row + 8 * r)));
    }
    for (int r = 0; r < R; ++r)
        _mm256_storeu_ps(out + 8 * r, acc[r]);
}

OPTIMUS_TARGET_AVX2 void
weightedRowSumAvx2(float *out, const float *w, const float *rows,
                   int64_t ld, int64_t count, int64_t n)
{
    int64_t c = 0;
    for (; c + 16 <= n; c += 16)
        weightedColsAvx2<2>(out + c, w, rows + c, ld, count);
    if (c + 8 <= n) {
        weightedColsAvx2<1>(out + c, w, rows + c, ld, count);
        c += 8;
    }
    if (c < n) {
        const __m256i mask = tailMaskAvx2(n - c);
        __m256 acc = _mm256_setzero_ps();
        for (int64_t j = 0; j < count; ++j)
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(_mm256_set1_ps(w[j]),
                                   _mm256_maskload_ps(rows + j * ld + c,
                                                      mask)));
        _mm256_maskstore_ps(out + c, mask, acc);
    }
}


OPTIMUS_TARGET_AVX2 void
combineRanksAvx2(float *const *bufs, int ranks, int64_t begin,
                 int64_t end, double scale)
{
    const __m256d sv = _mm256_set1_pd(scale);
    int64_t k = begin;
    for (; k + 8 <= end; k += 8) {
        __m256d lo = _mm256_setzero_pd();
        __m256d hi = _mm256_setzero_pd();
        for (int d = 0; d < ranks; ++d) {
            lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm_loadu_ps(bufs[d] + k)));
            hi = _mm256_add_pd(
                hi, _mm256_cvtps_pd(_mm_loadu_ps(bufs[d] + k + 4)));
        }
        const __m256 v =
            _mm256_set_m128(_mm256_cvtpd_ps(_mm256_mul_pd(hi, sv)),
                            _mm256_cvtpd_ps(_mm256_mul_pd(lo, sv)));
        for (int d = 0; d < ranks; ++d)
            _mm256_storeu_ps(bufs[d] + k, v);
    }
    combineRanksScalar(bufs, ranks, k, end, scale);
}

OPTIMUS_TARGET_AVX2 void
addValsAvx2(float *dst, const float *a, const float *b, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
    addValsScalar(dst + i, a + i, b + i, n - i);
}

OPTIMUS_TARGET_AVX2 void
subValsAvx2(float *dst, const float *a, const float *b, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
    subValsScalar(dst + i, a + i, b + i, n - i);
}

OPTIMUS_TARGET_AVX2 void
addRowBiasAvx2(float *y, const float *bias, int64_t ld, int64_t rows,
               int64_t n)
{
    const int64_t blocks = n - n % 8;
    for (int64_t i = 0; i < rows; ++i) {
        float *yr = y + i * ld;
        for (int64_t j = 0; j < blocks; j += 8)
            _mm256_storeu_ps(yr + j, _mm256_add_ps(_mm256_loadu_ps(yr + j),
                                                   _mm256_loadu_ps(bias + j)));
        for (int64_t j = blocks; j < n; ++j)
            yr[j] += bias[j];
    }
}

/** addColSums over R full registers of columns, kept in registers
 * while the rows are added in order. */
template <int R>
OPTIMUS_TARGET_AVX2 inline void
colSumsAvx2(float *acc, const float *x, int64_t ld, int64_t rows)
{
    __m256 s[R];
    for (int r = 0; r < R; ++r)
        s[r] = _mm256_loadu_ps(acc + 8 * r);
    for (int64_t i = 0; i < rows; ++i)
        for (int r = 0; r < R; ++r)
            s[r] = _mm256_add_ps(s[r], _mm256_loadu_ps(x + i * ld + 8 * r));
    for (int r = 0; r < R; ++r)
        _mm256_storeu_ps(acc + 8 * r, s[r]);
}

OPTIMUS_TARGET_AVX2 void
addColSumsAvx2(float *acc, const float *x, int64_t ld, int64_t rows,
               int64_t n)
{
    int64_t j = 0;
    for (; j + 32 <= n; j += 32)
        colSumsAvx2<4>(acc + j, x + j, ld, rows);
    for (; j + 8 <= n; j += 8)
        colSumsAvx2<1>(acc + j, x + j, ld, rows);
    addColSumsScalar(acc + j, x + j, ld, rows, n - j);
}

/**
 * The columns of a 4 x 8 block (rows a0..a3): c[k] holds column k
 * of the four rows in its low half and column k + 4 in its high
 * half, one row per lane.
 */
OPTIMUS_TARGET_AVX2 inline void
transpose4x8(__m256 a0, __m256 a1, __m256 a2, __m256 a3, __m256 c[4])
{
    const __m256 t0 = _mm256_unpacklo_ps(a0, a1);
    const __m256 t1 = _mm256_unpackhi_ps(a0, a1);
    const __m256 t2 = _mm256_unpacklo_ps(a2, a3);
    const __m256 t3 = _mm256_unpackhi_ps(a2, a3);
    c[0] = _mm256_shuffle_ps(t0, t2, 0x44);
    c[1] = _mm256_shuffle_ps(t0, t2, 0xee);
    c[2] = _mm256_shuffle_ps(t1, t3, 0x44);
    c[3] = _mm256_shuffle_ps(t1, t3, 0xee);
}

/** Column k (0 <= k < 8) of a transpose4x8 result, one row per lane. */
OPTIMUS_TARGET_AVX2 inline __m128
column4x8(const __m256 c[4], int k)
{
    return k < 4 ? _mm256_castps256_ps128(c[k])
                 : _mm256_extractf128_ps(c[k - 4], 1);
}

/** Column @p j of four rows, one row per lane. */
OPTIMUS_TARGET_AVX2 inline __m128
gather4(const float *const *r, int64_t j)
{
    return _mm_setr_ps(r[0][j], r[1][j], r[2][j], r[3][j]);
}

/** 4 x 8 block at column @p j of the four rows @p r, transposed. */
OPTIMUS_TARGET_AVX2 inline void
loadColumns4x8(const float *const *r, int64_t j, __m256 c[4])
{
    transpose4x8(_mm256_loadu_ps(r[0] + j), _mm256_loadu_ps(r[1] + j),
                 _mm256_loadu_ps(r[2] + j), _mm256_loadu_ps(r[3] + j), c);
}

/**
 * LayerNorm row statistics of 4R rows, one row per double lane: the
 * sum and the squared-deviation sum each run one chain per row in
 * element order, exactly the scalar loop's, and R groups of four rows
 * run side by side. Writes mu and inv for the 4R lanes.
 */
template <int R>
OPTIMUS_TARGET_AVX2 inline void
layerNormStatsAvx2(const float *const *r, int64_t n, float eps,
                   float *mu, float *inv)
{
    const int64_t blocks = n - n % 8;
    const __m256d nv = _mm256_set1_pd(static_cast<double>(n));
    __m256d s[R];
    for (int g = 0; g < R; ++g)
        s[g] = _mm256_setzero_pd();
    for (int64_t j = 0; j < blocks; j += 8)
        for (int g = 0; g < R; ++g) {
            __m256 c[4];
            loadColumns4x8(r + 4 * g, j, c);
            for (int k = 0; k < 8; ++k)
                s[g] = _mm256_add_pd(s[g], _mm256_cvtps_pd(column4x8(c, k)));
        }
    for (int64_t j = blocks; j < n; ++j)
        for (int g = 0; g < R; ++g)
            s[g] = _mm256_add_pd(s[g], _mm256_cvtps_pd(gather4(r + 4 * g, j)));
    __m128 m[R];
    __m256d v[R];
    for (int g = 0; g < R; ++g) {
        m[g] = _mm256_cvtpd_ps(_mm256_div_pd(s[g], nv));
        v[g] = _mm256_setzero_pd();
    }
    for (int64_t j = 0; j < blocks; j += 8)
        for (int g = 0; g < R; ++g) {
            __m256 c[4];
            loadColumns4x8(r + 4 * g, j, c);
            for (int k = 0; k < 8; ++k) {
                const __m256d d =
                    _mm256_cvtps_pd(_mm_sub_ps(column4x8(c, k), m[g]));
                v[g] = _mm256_add_pd(v[g], _mm256_mul_pd(d, d));
            }
        }
    for (int64_t j = blocks; j < n; ++j)
        for (int g = 0; g < R; ++g) {
            const __m256d d =
                _mm256_cvtps_pd(_mm_sub_ps(gather4(r + 4 * g, j), m[g]));
            v[g] = _mm256_add_pd(v[g], _mm256_mul_pd(d, d));
        }
    for (int g = 0; g < R; ++g) {
        const __m128 var = _mm256_cvtpd_ps(_mm256_div_pd(v[g], nv));
        _mm_storeu_ps(mu + 4 * g, m[g]);
        _mm_storeu_ps(inv + 4 * g,
                      _mm_div_ps(_mm_set1_ps(1.0f),
                                 _mm_sqrt_ps(_mm_add_ps(var, _mm_set1_ps(eps)))));
    }
}

/** One row's normalize/affine sweep, 8 columns per register. */
OPTIMUS_TARGET_AVX2 inline void
layerNormRowAvx2(float *yr, float *nr, const float *xr, const float *g,
                 const float *b, int64_t n, float mu, float inv)
{
    const __m256 mv = _mm256_set1_ps(mu);
    const __m256 iv = _mm256_set1_ps(inv);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 xn =
            _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xr + j), mv), iv);
        if (nr != nullptr)
            _mm256_storeu_ps(nr + j, xn);
        _mm256_storeu_ps(yr + j,
                         _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(g + j), xn),
                                       _mm256_loadu_ps(b + j)));
    }
    for (; j < n; ++j) {
        const float xn = (xr[j] - mu) * inv;
        if (nr != nullptr)
            nr[j] = xn;
        yr[j] = g[j] * xn + b[j];
    }
}

/**
 * Row groups of eight (four when at most four rows are left), each
 * row's statistics in its own double lane; a short group repeats its
 * last row in the spare lanes and drops their results. Each group's
 * rows are then normalized while they are still in cache.
 */
OPTIMUS_TARGET_AVX2 void
layerNormForwardAvx2(float *y, float *xhat, float *inv_std,
                     const float *x, const float *g, const float *b,
                     int64_t ld, int64_t rows, int64_t n, float eps)
{
    for (int64_t i = 0; i < rows; i += 8) {
        const int64_t live = rows - i < 8 ? rows - i : 8;
        const float *r[8];
        for (int64_t l = 0; l < 8; ++l)
            r[l] = x + (i + (l < live ? l : live - 1)) * ld;
        float mu[8];
        float inv[8];
        if (live > 4)
            layerNormStatsAvx2<2>(r, n, eps, mu, inv);
        else
            layerNormStatsAvx2<1>(r, n, eps, mu, inv);
        for (int64_t l = 0; l < live; ++l) {
            const int64_t row = i + l;
            float *nr = nullptr;
            if (xhat != nullptr) {
                nr = xhat + row * ld;
                inv_std[row] = inv[l];
            }
            layerNormRowAvx2(y + row * ld, nr, r[l], g, b, n, mu[l], inv[l]);
        }
    }
}

/**
 * The backward's two row means for 4R rows, one row per double lane:
 * sum dxhat and sum dxhat * xhat, each one chain per row in element
 * order, with dxhat = dy * gamma rounded to float first.
 */
template <int R>
OPTIMUS_TARGET_AVX2 inline void
layerNormGradMeansAvx2(const float *const *dy, const float *const *nr,
                       const float *g, int64_t n, float *md, float *mdx)
{
    const int64_t blocks = n - n % 8;
    const __m256d nv = _mm256_set1_pd(static_cast<double>(n));
    __m256d s1[R];
    __m256d s2[R];
    for (int q = 0; q < R; ++q) {
        s1[q] = _mm256_setzero_pd();
        s2[q] = _mm256_setzero_pd();
    }
    for (int64_t j = 0; j < blocks; j += 8) {
        const __m256 gv = _mm256_loadu_ps(g + j);
        for (int q = 0; q < R; ++q) {
            const float *const *d = dy + 4 * q;
            __m256 cd[4];
            __m256 cn[4];
            transpose4x8(_mm256_mul_ps(_mm256_loadu_ps(d[0] + j), gv),
                         _mm256_mul_ps(_mm256_loadu_ps(d[1] + j), gv),
                         _mm256_mul_ps(_mm256_loadu_ps(d[2] + j), gv),
                         _mm256_mul_ps(_mm256_loadu_ps(d[3] + j), gv), cd);
            loadColumns4x8(nr + 4 * q, j, cn);
            for (int k = 0; k < 8; ++k) {
                const __m256d dv = _mm256_cvtps_pd(column4x8(cd, k));
                s1[q] = _mm256_add_pd(s1[q], dv);
                s2[q] = _mm256_add_pd(
                    s2[q],
                    _mm256_mul_pd(dv, _mm256_cvtps_pd(column4x8(cn, k))));
            }
        }
    }
    for (int64_t j = blocks; j < n; ++j)
        for (int q = 0; q < R; ++q) {
            const __m256d dv = _mm256_cvtps_pd(
                _mm_mul_ps(gather4(dy + 4 * q, j), _mm_set1_ps(g[j])));
            s1[q] = _mm256_add_pd(s1[q], dv);
            s2[q] = _mm256_add_pd(
                s2[q],
                _mm256_mul_pd(dv, _mm256_cvtps_pd(gather4(nr + 4 * q, j))));
        }
    for (int q = 0; q < R; ++q) {
        _mm_storeu_ps(md + 4 * q, _mm256_cvtpd_ps(_mm256_div_pd(s1[q], nv)));
        _mm_storeu_ps(mdx + 4 * q, _mm256_cvtpd_ps(_mm256_div_pd(s2[q], nv)));
    }
}

/** One row's dx sweep, 8 columns per register. */
OPTIMUS_TARGET_AVX2 inline void
layerNormGradRowAvx2(float *dxr, const float *dyr, const float *nr,
                     const float *g, int64_t n, float md, float mdx,
                     float inv)
{
    const __m256 mv = _mm256_set1_ps(md);
    const __m256 mxv = _mm256_set1_ps(mdx);
    const __m256 iv = _mm256_set1_ps(inv);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 dxhat =
            _mm256_mul_ps(_mm256_loadu_ps(dyr + j), _mm256_loadu_ps(g + j));
        const __m256 t = _mm256_sub_ps(
            _mm256_sub_ps(dxhat, mv),
            _mm256_mul_ps(_mm256_loadu_ps(nr + j), mxv));
        _mm256_storeu_ps(dxr + j, _mm256_mul_ps(iv, t));
    }
    for (; j < n; ++j) {
        const float dxhat = dyr[j] * g[j];
        dxr[j] = inv * (dxhat - md - nr[j] * mdx);
    }
}

/** Row groups as in layerNormForwardAvx2. */
OPTIMUS_TARGET_AVX2 void
layerNormBackwardAvx2(float *dx, const float *dy, const float *xhat,
                      const float *inv_std, const float *g, int64_t ld,
                      int64_t rows, int64_t n)
{
    for (int64_t i = 0; i < rows; i += 8) {
        const int64_t live = rows - i < 8 ? rows - i : 8;
        const float *rd[8];
        const float *rn[8];
        for (int64_t l = 0; l < 8; ++l) {
            const int64_t row = i + (l < live ? l : live - 1);
            rd[l] = dy + row * ld;
            rn[l] = xhat + row * ld;
        }
        float md[8];
        float mdx[8];
        if (live > 4)
            layerNormGradMeansAvx2<2>(rd, rn, g, n, md, mdx);
        else
            layerNormGradMeansAvx2<1>(rd, rn, g, n, md, mdx);
        for (int64_t l = 0; l < live; ++l)
            layerNormGradRowAvx2(dx + (i + l) * ld, rd[l], rn[l], g, n,
                                 md[l], mdx[l], inv_std[i + l]);
    }
}

/** layerNormParamGrads over R full registers of columns. */
template <int R>
OPTIMUS_TARGET_AVX2 inline void
paramGradColsAvx2(float *dgamma, float *dbeta, const float *dy,
                  const float *xhat, int64_t ld, int64_t rows)
{
    __m256 dg[R];
    __m256 db[R];
    for (int r = 0; r < R; ++r) {
        dg[r] = _mm256_loadu_ps(dgamma + 8 * r);
        db[r] = _mm256_loadu_ps(dbeta + 8 * r);
    }
    for (int64_t i = 0; i < rows; ++i)
        for (int r = 0; r < R; ++r) {
            const __m256 d = _mm256_loadu_ps(dy + i * ld + 8 * r);
            dg[r] = _mm256_add_ps(
                dg[r], _mm256_mul_ps(d, _mm256_loadu_ps(xhat + i * ld + 8 * r)));
            db[r] = _mm256_add_ps(db[r], d);
        }
    for (int r = 0; r < R; ++r) {
        _mm256_storeu_ps(dgamma + 8 * r, dg[r]);
        _mm256_storeu_ps(dbeta + 8 * r, db[r]);
    }
}

OPTIMUS_TARGET_AVX2 void
layerNormParamGradsAvx2(float *dgamma, float *dbeta, const float *dy,
                        const float *xhat, int64_t ld, int64_t rows,
                        int64_t n)
{
    int64_t j = 0;
    for (; j + 16 <= n; j += 16)
        paramGradColsAvx2<2>(dgamma + j, dbeta + j, dy + j, xhat + j, ld,
                             rows);
    for (; j + 8 <= n; j += 8)
        paramGradColsAvx2<1>(dgamma + j, dbeta + j, dy + j, xhat + j, ld,
                             rows);
    layerNormParamGradsScalar(dgamma + j, dbeta + j, dy + j, xhat + j, ld,
                              rows, n - j);
}

#endif // OPTIMUS_SIMD_X86

} // namespace

// ----------------------------------------------------------------
// Public dispatch wrappers. Tiers are cumulative, so the Avx512 tier
// runs the AVX2 kernels: one vector kernel per primitive makes the
// two vector tiers bitwise equal by construction, and on these
// memory-bound streams wider registers measured no faster
// (DESIGN.md section 8).
// ----------------------------------------------------------------

double
dotDouble(Tier t, const float *x, const float *y, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return dotAvx2(x, y, n);
#endif
    (void)t;
    return dotScalar(x, y, n);
}

void
dotRowsScaled(Tier t, float *out, const float *q, const float *rows,
              int64_t ld, int64_t count, int64_t n, float scale)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return dotRowsScaledAvx2(out, q, rows, ld, count, n, scale);
#endif
    (void)t;
    dotRowsScaledScalar(out, q, rows, ld, count, n, scale);
}

void
weightedRowSum(Tier t, float *out, const float *w, const float *rows,
               int64_t ld, int64_t count, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return weightedRowSumAvx2(out, w, rows, ld, count, n);
#endif
    (void)t;
    weightedRowSumScalar(out, w, rows, ld, count, n);
}

void
subScaled(Tier t, float *y, const float *x, float a, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return subScaledAvx2(y, x, a, n);
#endif
    (void)t;
    subScaledScalar(y, x, a, n);
}

void
scaleInPlace(Tier t, float *x, float a, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return scaleAvx2(x, a, n);
#endif
    (void)t;
    scaleScalar(x, a, n);
}

void
absVals(Tier t, float *dst, const float *src, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return absAvx2(dst, src, n);
#endif
    (void)t;
    absScalar(dst, src, n);
}

void
absDiv(Tier t, float *dst, const float *src, float scale, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return absDivAvx2(dst, src, scale, n);
#endif
    (void)t;
    absDivScalar(dst, src, scale, n);
}

void
signedSums(Tier t, const float *src, int64_t n, double &pos_sum,
           double &neg_sum, int64_t &pos_count, int64_t &neg_count)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return signedSumsAvx2(src, n, pos_sum, neg_sum, pos_count,
                              neg_count);
#endif
    (void)t;
    signedSumsScalar(src, n, pos_sum, neg_sum, pos_count,
                     neg_count);
}

void
selectBySign(Tier t, float *dst, const float *src, float pos,
             float neg, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return selectBySignAvx2(dst, src, pos, neg, n);
#endif
    (void)t;
    selectBySignScalar(dst, src, pos, neg, n);
}

int64_t
keepAbove(Tier t, float *dst, const float *src, const float *mag,
          float thresh, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return keepAboveAvx2(dst, src, mag, thresh, n);
#endif
    (void)t;
    return keepAboveScalar(dst, src, mag, thresh, n);
}

void
geluForward(Tier t, float *y, const float *x, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return geluForwardAvx2(y, x, n);
#endif
    (void)t;
    geluForwardScalar(y, x, n);
}

void
geluBackward(Tier t, float *dx, const float *dy, const float *x,
             int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return geluBackwardAvx2(dx, dy, x, n);
#endif
    (void)t;
    geluBackwardScalar(dx, dy, x, n);
}

void
adamStep(Tier t, float *m, float *v, float *w, const float *g,
         int64_t n, float beta1, float beta2, float eps, float alpha)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return adamAvx2(m, v, w, g, n, beta1, beta2, eps, alpha);
#endif
    (void)t;
    adamScalar(m, v, w, g, n, beta1, beta2, eps, alpha);
}

void
combineRanks(Tier t, float *const *bufs, int ranks, int64_t begin,
             int64_t end, double scale)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return combineRanksAvx2(bufs, ranks, begin, end, scale);
#endif
    (void)t;
    combineRanksScalar(bufs, ranks, begin, end, scale);
}

void
addVals(Tier t, float *dst, const float *a, const float *b, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return addValsAvx2(dst, a, b, n);
#endif
    (void)t;
    addValsScalar(dst, a, b, n);
}

void
subVals(Tier t, float *dst, const float *a, const float *b, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return subValsAvx2(dst, a, b, n);
#endif
    (void)t;
    subValsScalar(dst, a, b, n);
}

void
addRowBias(Tier t, float *y, const float *bias, int64_t ld, int64_t rows,
           int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return addRowBiasAvx2(y, bias, ld, rows, n);
#endif
    (void)t;
    addRowBiasScalar(y, bias, ld, rows, n);
}

void
addColSums(Tier t, float *acc, const float *x, int64_t ld, int64_t rows,
           int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return addColSumsAvx2(acc, x, ld, rows, n);
#endif
    (void)t;
    addColSumsScalar(acc, x, ld, rows, n);
}

void
layerNormForward(Tier t, float *y, float *xhat, float *inv_std,
                 const float *x, const float *gamma, const float *beta,
                 int64_t ld, int64_t rows, int64_t n, float eps)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return layerNormForwardAvx2(y, xhat, inv_std, x, gamma, beta, ld,
                                    rows, n, eps);
#endif
    (void)t;
    layerNormForwardScalar(y, xhat, inv_std, x, gamma, beta, ld, rows, n,
                           eps);
}

void
layerNormBackward(Tier t, float *dx, const float *dy, const float *xhat,
                  const float *inv_std, const float *gamma, int64_t ld,
                  int64_t rows, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return layerNormBackwardAvx2(dx, dy, xhat, inv_std, gamma, ld, rows,
                                     n);
#endif
    (void)t;
    layerNormBackwardScalar(dx, dy, xhat, inv_std, gamma, ld, rows, n);
}

void
layerNormParamGrads(Tier t, float *dgamma, float *dbeta, const float *dy,
                    const float *xhat, int64_t ld, int64_t rows, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t != Tier::Scalar)
        return layerNormParamGradsAvx2(dgamma, dbeta, dy, xhat, ld, rows, n);
#endif
    (void)t;
    layerNormParamGradsScalar(dgamma, dbeta, dy, xhat, ld, rows, n);
}

} // namespace simd
} // namespace optimus
