#include "tensor/gemm_kernels.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>

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
 * accumulators): AVX-512 uses MR up to 14 (31 of 32 zmm), AVX2 MR up
 * to 6 (15 of 16 ymm); a panel's rows split into equal groups, one
 * template instance per group size. The micro-kernels are templates
 * with unroll pragmas — written as plain arrays GCC 12 spills the
 * accumulator tile at -O3, costing ~10x.
 *
 * The swapped NT kernels turn the tile around: JR rows of B (read in
 * place, one broadcast per row and depth step) times the driver's
 * packed A^T, whose lanes run along m (one zmm, or one or two ymm). JR never exceeds
 * the lane count, so the epilogue transposes each register column of
 * the tile in registers (zero rows pad it to a square) and adds
 * lanes [0, JR) into C row by row: under a mask on AVX-512, with
 * 4-, 2- and 1-float stores on AVX2. Every loop over the tile,
 * epilogue included, is unrolled, or the accumulators go through
 * the stack on every depth step.
 */

namespace optimus
{

namespace
{

/**
 * Calls fn(i, rows) for [i0, i1) split into ceil(rows / max_rows)
 * consecutive groups whose sizes differ by at most one, the larger
 * first. A group runs the same per-element chain whatever its size,
 * so the split only decides how often B is streamed.
 */
template <typename Fn>
inline void
forBalancedGroups(int64_t i0, int64_t i1, int64_t max_rows, Fn &&fn)
{
    const int64_t rows = i1 - i0;
    if (rows <= 0)
        return;
    const int64_t groups = (rows + max_rows - 1) / max_rows;
    const int64_t base = rows / groups;
    const int64_t extra = rows % groups;
    for (int64_t g = 0, i = i0; g < groups; ++g) {
        const int64_t r = base + (g < extra ? 1 : 0);
        fn(i, r);
        i += r;
    }
}

/**
 * Calls fn(std::integral_constant<int, count>) for a runtime count in
 * [R, MAX]: one template instance per register-tile size.
 */
template <int R, int MAX, typename Fn>
inline void
withCount(int64_t count, Fn &&fn)
{
    if constexpr (R < MAX) {
        if (count != R) {
            withCount<R + 1, MAX>(count, fn);
            return;
        }
    }
    fn(std::integral_constant<int, R>{});
}

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

constexpr int kMr512 = 14;

void
panelAvx512(const GemmBlockCtx &ctx, int64_t i0, int64_t i1)
{
    alignas(64) float apack[kMr512 * kGemmMaxKc];
    forBalancedGroups(i0, i1, kMr512, [&](int64_t i, int64_t rows) {
        withCount<1, kMr512>(rows, [&](auto mr) {
            rowGroup512<decltype(mr)::value>(ctx, i, apack);
        });
    });
}

// GCC 12's avx512fintrin.h seeds the unmasked shuffles from a
// self-initialised _mm512_undefined_ps(), which -Wuninitialized
// flags once they are inlined here; the warning is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/** In-register transpose: r[i] lane j <- r[j] lane i. */
OPTIMUS_TARGET_AVX512 inline __attribute__((always_inline)) void
transpose16(__m512 (&r)[16])
{
    __m512 t[16];
    for (int i = 0; i < 16; i += 2) {
        t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    for (int i = 0; i < 16; i += 4) {
        r[i] = _mm512_shuffle_ps(t[i], t[i + 2], 0x44);
        r[i + 1] = _mm512_shuffle_ps(t[i], t[i + 2], 0xee);
        r[i + 2] = _mm512_shuffle_ps(t[i + 1], t[i + 3], 0x44);
        r[i + 3] = _mm512_shuffle_ps(t[i + 1], t[i + 3], 0xee);
    }
    for (int h = 0; h < 16; h += 8)
        for (int i = 0; i < 4; ++i) {
            t[h + i] = _mm512_shuffle_f32x4(r[h + i], r[h + i + 4], 0x88);
            t[h + i + 4] =
                _mm512_shuffle_f32x4(r[h + i], r[h + i + 4], 0xdd);
        }
    for (int i = 0; i < 8; ++i) {
        r[i] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0x88);
        r[i + 8] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0xdd);
    }
}

/**
 * Swapped NT tile: C(i, j + r) += sum_p B(j + r, p) * A(i, p) for
 * r < JR and i < m <= 16, as JR zmm accumulators with lanes along i.
 */
template <int JR>
OPTIMUS_TARGET_AVX512 void
swap512(float *c, int64_t ldc, int64_t m, const float *at,
        const float *b, int64_t ldb, int64_t kc)
{
    __m512 q[JR];
#pragma GCC unroll 16
    for (int r = 0; r < JR; ++r)
        q[r] = _mm512_setzero_ps();
    const float *brow[JR];
#pragma GCC unroll 16
    for (int r = 0; r < JR; ++r)
        brow[r] = b + r * ldb;
    const float *ap = at;
    for (int64_t p = 0; p < kc; ++p, ap += 16) {
        const __m512 a = _mm512_loadu_ps(ap);
#pragma GCC unroll 16
        for (int r = 0; r < JR; ++r)
            q[r] = _mm512_fmadd_ps(_mm512_set1_ps(brow[r][p]), a, q[r]);
    }
    const __mmask16 live_cols =
        static_cast<__mmask16>((1u << JR) - 1);
    __m512 t[16];
#pragma GCC unroll 16
    for (int r = 0; r < 16; ++r)
        t[r] = r < JR ? q[r] : _mm512_setzero_ps();
    transpose16(t);
    for (int64_t i = 0; i < m; ++i) {
        float *cr = c + i * ldc;
        if constexpr (JR == 16) {
            _mm512_storeu_ps(cr,
                             _mm512_add_ps(_mm512_loadu_ps(cr), t[i]));
        } else {
            _mm512_mask_storeu_ps(
                cr, live_cols,
                _mm512_add_ps(_mm512_maskz_loadu_ps(live_cols, cr),
                              t[i]));
        }
    }
}

#pragma GCC diagnostic pop

void swappedAvx2(const GemmSwapCtx &ctx, int64_t j0, int64_t j1);

/** B rows per swapped tile: one zmm of m lanes. */
constexpr int kJr512 = 16;

void
swappedAvx512(const GemmSwapCtx &ctx, int64_t j0, int64_t j1)
{
    // Eight lanes or fewer run the AVX2 ymm tile: half the work of
    // a zmm tile whose upper lanes would be padding.
    if (ctx.ldat == kGemmSwapMinLanes) {
        swappedAvx2(ctx, j0, j1);
        return;
    }
    forBalancedGroups(j0, j1, kJr512, [&](int64_t j, int64_t jr) {
        withCount<1, kJr512>(jr, [&](auto rows) {
            swap512<decltype(rows)::value>(ctx.c + j, ctx.ldc, ctx.m,
                                           ctx.at, ctx.b + j * ctx.ldb,
                                           ctx.ldb, ctx.kc);
        });
    });
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

constexpr int kMr256 = 6;

void
panelAvx2(const GemmBlockCtx &ctx, int64_t i0, int64_t i1)
{
    alignas(32) float apack[kMr256 * kGemmMaxKc];
    forBalancedGroups(i0, i1, kMr256, [&](int64_t i, int64_t rows) {
        withCount<1, kMr256>(rows, [&](auto mr) {
            rowGroup256<decltype(mr)::value>(ctx, i, apack);
        });
    });
}

/** In-register transpose: r[i] lane j <- r[j] lane i. */
OPTIMUS_TARGET_AVX2 inline __attribute__((always_inline)) void
transpose8(__m256 (&r)[8])
{
    __m256 t[8];
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    for (int i = 0; i < 8; i += 4) {
        r[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
        r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xee);
        r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
        r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xee);
    }
    for (int i = 0; i < 4; ++i) {
        t[i] = _mm256_permute2f128_ps(r[i], r[i + 4], 0x20);
        t[i + 4] = _mm256_permute2f128_ps(r[i], r[i + 4], 0x31);
    }
    for (int i = 0; i < 8; ++i)
        r[i] = t[i];
}

/**
 * dst[l] += v lane l for l < N, as 4-, 2- and 1-float loads and
 * stores: AVX2's masked load/store costs several times a plain one,
 * and the epilogue runs one per C row of every short tile.
 */
template <int N>
OPTIMUS_TARGET_AVX2 inline __attribute__((always_inline)) void
addLanes(float *dst, __m256 v)
{
    if constexpr (N == 8) {
        _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), v));
    } else {
        __m128 x = _mm256_castps256_ps128(v);
        if constexpr (N >= 4) {
            _mm_storeu_ps(dst, _mm_add_ps(_mm_loadu_ps(dst), x));
            dst += 4;
            x = _mm256_extractf128_ps(v, 1);
        }
        if constexpr (N % 4 >= 2) {
            __m64 *const d2 = reinterpret_cast<__m64 *>(dst);
            _mm_storel_pi(d2,
                          _mm_add_ps(_mm_loadl_pi(_mm_setzero_ps(), d2), x));
            dst += 2;
            x = _mm_movehl_ps(x, x);
        }
        if constexpr (N % 2 == 1)
            _mm_store_ss(dst, _mm_add_ss(_mm_load_ss(dst), x));
    }
}

/**
 * Swapped NT tile: C(i, j + r) += sum_p B(j + r, p) * A(i, p) for
 * r < JR and i < m, as JR x NV ymm accumulators with lanes along i.
 */
template <int JR, int NV>
OPTIMUS_TARGET_AVX2 void
swap256(float *c, int64_t ldc, int64_t m, const float *at,
        const float *b, int64_t ldb, int64_t kc)
{
    __m256 q[JR][NV];
#pragma GCC unroll 8
    for (int r = 0; r < JR; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            q[r][v] = _mm256_setzero_ps();
    const float *brow[JR];
#pragma GCC unroll 8
    for (int r = 0; r < JR; ++r)
        brow[r] = b + r * ldb;
    const float *ap = at;
    for (int64_t p = 0; p < kc; ++p, ap += NV * 8) {
        __m256 a[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            a[v] = _mm256_loadu_ps(ap + v * 8);
#pragma GCC unroll 8
        for (int r = 0; r < JR; ++r) {
            const __m256 x = _mm256_broadcast_ss(brow[r] + p);
#pragma GCC unroll 2
            for (int v = 0; v < NV; ++v)
                q[r][v] = _mm256_fmadd_ps(x, a[v], q[r][v]);
        }
    }
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
        __m256 t[8];
#pragma GCC unroll 8
        for (int r = 0; r < 8; ++r)
            t[r] = r < JR ? q[r][v] : _mm256_setzero_ps();
        transpose8(t);
        const int64_t rows = std::min<int64_t>(8, m - v * 8);
        for (int64_t i = 0; i < rows; ++i)
            addLanes<JR>(c + (v * 8 + i) * ldc, t[i]);
    }
}

/** B rows per swapped tile: one ymm of m lanes, or two. */
constexpr int kJr256One = 8;
constexpr int kJr256Two = 6;

void
swappedAvx2(const GemmSwapCtx &ctx, int64_t j0, int64_t j1)
{
    const auto run = [&](auto nv) {
        constexpr int NV = decltype(nv)::value;
        constexpr int JRMAX = NV == 1 ? kJr256One : kJr256Two;
        forBalancedGroups(j0, j1, JRMAX, [&](int64_t j, int64_t jr) {
            withCount<1, JRMAX>(jr, [&](auto rows) {
                swap256<decltype(rows)::value, NV>(
                    ctx.c + j, ctx.ldc, ctx.m, ctx.at,
                    ctx.b + j * ctx.ldb, ctx.ldb, ctx.kc);
            });
        });
    };
    if (ctx.ldat == 8)
        run(std::integral_constant<int, 1>{});
    else
        run(std::integral_constant<int, 2>{});
}

#endif // OPTIMUS_SIMD_X86

} // namespace

#if OPTIMUS_SIMD_X86

/**
 * Swapped-path pack: at[p * ldat + i] = a[i * lda + p] for i < m and
 * p < kc, zero for m <= i < ldat. Moves 8 x 8 blocks through an
 * in-register transpose; columns past kc are never loaded, so a view
 * of A is read only inside its rows. Both vector tiers run it.
 */
OPTIMUS_TARGET_AVX2 void
packSwappedAvx2(float *at, int64_t ldat, const float *a, int64_t lda,
                int64_t m, int64_t kc)
{
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (int64_t i0 = 0; i0 < ldat; i0 += 8) {
        for (int64_t p0 = 0; p0 < kc; p0 += 8) {
            const int64_t pn = std::min<int64_t>(8, kc - p0);
            const __m256i cols = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(static_cast<int>(pn)), lane);
            __m256 t[8];
            for (int r = 0; r < 8; ++r) {
                const float *src = a + (i0 + r) * lda + p0;
                if (i0 + r >= m)
                    t[r] = _mm256_setzero_ps();
                else if (pn == 8)
                    t[r] = _mm256_loadu_ps(src);
                else
                    t[r] = _mm256_maskload_ps(src, cols);
            }
            transpose8(t);
            for (int64_t p = 0; p < pn; ++p)
                _mm256_storeu_ps(at + (p0 + p) * ldat + i0, t[p]);
        }
    }
}

#else

void
packSwappedAvx2(float *at, int64_t ldat, const float *a, int64_t lda,
                int64_t m, int64_t kc)
{
    // Never reached: simd::tier() caps at Scalar without x86.
    for (int64_t p = 0; p < kc; ++p)
        for (int64_t i = 0; i < ldat; ++i)
            at[p * ldat + i] = i < m ? a[i * lda + p] : 0.0f;
}

#endif // OPTIMUS_SIMD_X86

const GemmKernel &
gemmKernelAvx2()
{
#if OPTIMUS_SIMD_X86
    static const GemmKernel k{"avx2", kJw256, 48, 512, panelAvx2, 48,
                              swappedAvx2};
#else
    static const GemmKernel k{"avx2", 16, 48, 512, nullptr, 48,
                              nullptr};
#endif
    return k;
}

const GemmKernel &
gemmKernelAvx512()
{
#if OPTIMUS_SIMD_X86
    static const GemmKernel k{"avx512", kJw512, 56, 512,
                              panelAvx512, 112, swappedAvx512};
#else
    static const GemmKernel k{"avx512", 32, 56, 512, nullptr, 112,
                              nullptr};
#endif
    return k;
}

} // namespace optimus
