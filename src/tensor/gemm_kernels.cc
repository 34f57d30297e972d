#include "tensor/gemm_kernels.hh"

#include <algorithm>
#include <cstring>

#include "tensor/simd_internal.hh"

/*
 * AVX2 and AVX-512 GEMM panel kernels (see gemm_kernels.hh for the
 * driver/panel split). Both follow the same shape as the scalar
 * panel in matmul.cc:
 *
 *   - pack the group's A rows into contiguous, MR-interleaved
 *     scratch (apack[p*MR + r]) so the k loop broadcasts from one
 *     cache line regardless of transA;
 *   - run an MR x JW register-tile micro-kernel per column tile:
 *     accumulators start at zero and are added to C once per pc
 *     block, so each C element sees K/KC + 1 memory-order additions
 *     at any thread count;
 *   - ragged right edges (cols < JW) spill the accumulators to a
 *     stack tile and add the live columns scalarly, exactly like
 *     the scalar micro-kernel's tail path.
 *
 * Tile choices (one broadcast + two B registers + MR*2
 * accumulators): AVX-512 uses MR=14 (31 of 32 zmm), AVX2 uses MR=6
 * (15 of 16 ymm). The micro-kernels are templates with unroll
 * pragmas — written as plain arrays GCC 12 spills the accumulator
 * tile at -O3, costing ~10x.
 */

namespace optimus
{

namespace
{

/**
 * Pack rows [i, i+MR) of op(A) depth-major: apack[p*MR + r]. For
 * transposed A the logical rows are contiguous columns, so each
 * depth step is one memcpy; otherwise each A row is walked once.
 */
template <int MR>
inline void
packA(const GemmBlockCtx &ctx, int64_t i, float *apack)
{
    if (!ctx.transA) {
        for (int r = 0; r < MR; ++r) {
            const float *src = ctx.a + (i + r) * ctx.lda + ctx.pc;
            for (int64_t p = 0; p < ctx.kc; ++p)
                apack[p * MR + r] = src[p];
        }
    } else {
        for (int64_t p = 0; p < ctx.kc; ++p)
            std::memcpy(apack + p * MR,
                        ctx.a + (ctx.pc + p) * ctx.lda + i,
                        sizeof(float) * MR);
    }
}

#if OPTIMUS_SIMD_X86

// ----------------------------------------------------------------
// AVX-512 tier: MR x 32 zmm tile
// ----------------------------------------------------------------

constexpr int64_t kJw512 = 32;

template <int MR>
OPTIMUS_TARGET_AVX512 void
micro512(float *c, int64_t ldc, const float *apack,
         const float *bp0, int64_t kc, int64_t ldb, int64_t cols)
{
    __m512 q[MR][2];
#pragma GCC unroll 14
    for (int r = 0; r < MR; ++r) {
        q[r][0] = _mm512_setzero_ps();
        q[r][1] = _mm512_setzero_ps();
    }
    const float *bp = bp0;
    const float *ap = apack;
    for (int64_t p = 0; p < kc; ++p, bp += ldb, ap += MR) {
        _mm_prefetch(reinterpret_cast<const char *>(bp + 4 * ldb),
                     _MM_HINT_T0);
        const __m512 b0 = _mm512_loadu_ps(bp);
        const __m512 b1 = _mm512_loadu_ps(bp + 16);
#pragma GCC unroll 14
        for (int r = 0; r < MR; ++r) {
            const __m512 x = _mm512_set1_ps(ap[r]);
            q[r][0] = _mm512_fmadd_ps(x, b0, q[r][0]);
            q[r][1] = _mm512_fmadd_ps(x, b1, q[r][1]);
        }
    }
    if (cols == kJw512) {
        for (int r = 0; r < MR; ++r) {
            float *cr = c + r * ldc;
            _mm512_storeu_ps(
                cr, _mm512_add_ps(_mm512_loadu_ps(cr), q[r][0]));
            _mm512_storeu_ps(cr + 16,
                             _mm512_add_ps(_mm512_loadu_ps(cr + 16),
                                           q[r][1]));
        }
    } else {
        alignas(64) float tmp[kJw512];
        for (int r = 0; r < MR; ++r) {
            _mm512_store_ps(tmp, q[r][0]);
            _mm512_store_ps(tmp + 16, q[r][1]);
            float *cr = c + r * ldc;
            for (int64_t v = 0; v < cols; ++v)
                cr[v] += tmp[v];
        }
    }
}

template <int MR>
inline void
rowGroup512(const GemmBlockCtx &ctx, int64_t i, float *apack)
{
    packA<MR>(ctx, i, apack);
    for (int64_t j0 = 0; j0 < ctx.nc; j0 += kJw512) {
        const int64_t cols =
            std::min<int64_t>(kJw512, ctx.nc - j0);
        micro512<MR>(ctx.c + i * ctx.ldc + ctx.jc + j0, ctx.ldc,
                     apack, ctx.b + j0, ctx.kc, ctx.ldb, cols);
    }
}

void
panelAvx512(const GemmBlockCtx &ctx, int64_t i0, int64_t i1)
{
    alignas(64) float apack[14 * kGemmMaxKc];
    int64_t i = i0;
    for (; i + 14 <= i1; i += 14)
        rowGroup512<14>(ctx, i, apack);
    for (; i + 8 <= i1; i += 8)
        rowGroup512<8>(ctx, i, apack);
    for (; i + 4 <= i1; i += 4)
        rowGroup512<4>(ctx, i, apack);
    for (; i + 2 <= i1; i += 2)
        rowGroup512<2>(ctx, i, apack);
    for (; i < i1; ++i)
        rowGroup512<1>(ctx, i, apack);
}

// ----------------------------------------------------------------
// AVX2 tier: MR x 16 ymm tile
// ----------------------------------------------------------------

constexpr int64_t kJw256 = 16;

template <int MR>
OPTIMUS_TARGET_AVX2 void
micro256(float *c, int64_t ldc, const float *apack,
         const float *bp0, int64_t kc, int64_t ldb, int64_t cols)
{
    __m256 q[MR][2];
#pragma GCC unroll 6
    for (int r = 0; r < MR; ++r) {
        q[r][0] = _mm256_setzero_ps();
        q[r][1] = _mm256_setzero_ps();
    }
    const float *bp = bp0;
    const float *ap = apack;
    for (int64_t p = 0; p < kc; ++p, bp += ldb, ap += MR) {
        _mm_prefetch(reinterpret_cast<const char *>(bp + 4 * ldb),
                     _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
#pragma GCC unroll 6
        for (int r = 0; r < MR; ++r) {
            const __m256 x = _mm256_set1_ps(ap[r]);
            q[r][0] = _mm256_fmadd_ps(x, b0, q[r][0]);
            q[r][1] = _mm256_fmadd_ps(x, b1, q[r][1]);
        }
    }
    if (cols == kJw256) {
        for (int r = 0; r < MR; ++r) {
            float *cr = c + r * ldc;
            _mm256_storeu_ps(
                cr, _mm256_add_ps(_mm256_loadu_ps(cr), q[r][0]));
            _mm256_storeu_ps(cr + 8,
                             _mm256_add_ps(_mm256_loadu_ps(cr + 8),
                                           q[r][1]));
        }
    } else {
        alignas(32) float tmp[kJw256];
        for (int r = 0; r < MR; ++r) {
            _mm256_store_ps(tmp, q[r][0]);
            _mm256_store_ps(tmp + 8, q[r][1]);
            float *cr = c + r * ldc;
            for (int64_t v = 0; v < cols; ++v)
                cr[v] += tmp[v];
        }
    }
}

template <int MR>
inline void
rowGroup256(const GemmBlockCtx &ctx, int64_t i, float *apack)
{
    packA<MR>(ctx, i, apack);
    for (int64_t j0 = 0; j0 < ctx.nc; j0 += kJw256) {
        const int64_t cols =
            std::min<int64_t>(kJw256, ctx.nc - j0);
        micro256<MR>(ctx.c + i * ctx.ldc + ctx.jc + j0, ctx.ldc,
                     apack, ctx.b + j0, ctx.kc, ctx.ldb, cols);
    }
}

void
panelAvx2(const GemmBlockCtx &ctx, int64_t i0, int64_t i1)
{
    alignas(32) float apack[6 * kGemmMaxKc];
    int64_t i = i0;
    for (; i + 6 <= i1; i += 6)
        rowGroup256<6>(ctx, i, apack);
    for (; i + 4 <= i1; i += 4)
        rowGroup256<4>(ctx, i, apack);
    for (; i + 2 <= i1; i += 2)
        rowGroup256<2>(ctx, i, apack);
    for (; i < i1; ++i)
        rowGroup256<1>(ctx, i, apack);
}

#endif // OPTIMUS_SIMD_X86

} // namespace

const GemmKernel &
gemmKernelAvx2()
{
#if OPTIMUS_SIMD_X86
    static const GemmKernel k{"avx2", kJw256, 48, 512, panelAvx2};
#else
    static const GemmKernel k{"avx2", 16, 48, 512, nullptr};
#endif
    return k;
}

const GemmKernel &
gemmKernelAvx512()
{
#if OPTIMUS_SIMD_X86
    static const GemmKernel k{"avx512", kJw512, 56, 512,
                              panelAvx512};
#else
    static const GemmKernel k{"avx512", 32, 56, 512, nullptr};
#endif
    return k;
}

} // namespace optimus
