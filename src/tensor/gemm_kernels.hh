/**
 * @file
 * SIMD GEMM panel kernels behind the blocked driver in matmul.cc.
 *
 * The driver owns cache blocking, the choice between reading B in
 * place and packing it, and the parallelFor decomposition; a *panel
 * kernel* computes one row range [i0, i1) of C (+)= op(A) * B for
 * the current (jc, pc) block of B. That block is either B itself
 * (stored [k x n], block width a multiple of the panel width) or
 * the driver's packed copy, rows padded with zeros to that width.
 * A panel covers its rows in ceil(rows / MR) groups whose sizes
 * differ by at most one, so 16 rows run as 8 + 8 on the 14-row
 * AVX-512 tile instead of 14 + 2, and no group streams B for a
 * sliver of rows.
 *
 * An NT product with few rows (m below n and at most
 * kGemmSwapMaxRows) runs *swapped*: C^T = B * A^T with the vector lanes
 * along m. The driver transposes the small m x kc block of A into
 * a lane-padded scratch; the kernel broadcasts B's rows in place and
 * adds each register tile into C through a transposed epilogue.
 * Nothing the size of B is copied.
 *
 * Each dispatch tier supplies a GemmKernel descriptor: its panel
 * and swapped functions plus the tile sizes; both tiers share one
 * A^T pack, packSwappedAvx2. The scalar panel lives
 * in matmul.cc (it is the pre-dispatch kernel, unchanged, and has no
 * swapped form); the AVX2 and AVX-512 kernels live in
 * gemm_kernels.cc — the only file besides simd.cc allowed to use raw
 * intrinsics (lint rule SIM01).
 *
 * Determinism: a panel kernel's row grouping, packing, and
 * accumulator tiling depend only on (i0, i1, ctx shape), and the
 * driver's chunk grid and orientation are pure functions of the
 * problem shape and tier, so every tier is bitwise deterministic at
 * any OPTIMUS_THREADS. Grouping and orientation do not even change
 * the bits: either way each C element is one k-ordered FMA chain
 * from zero per pc block plus one add into C, and
 * fma(b, a, acc) == fma(a, b, acc).
 */

#ifndef OPTIMUS_TENSOR_GEMM_KERNELS_HH
#define OPTIMUS_TENSOR_GEMM_KERNELS_HH

#include <cstdint>

namespace optimus
{

/**
 * Depth of one packed k block (the driver's KC). Panel kernels size
 * their on-stack packed-A scratch as rows * kGemmMaxKc, so the
 * driver must never hand them a ctx.kc above this.
 */
constexpr int64_t kGemmMaxKc = 256;

/**
 * Per-(jc, pc) state shared by every row-panel task. A and C are
 * row-major views: op(A) row i, depth p lives at a[i * lda + p]
 * (a[p * lda + i] when transA), and C element (i, j) at
 * c[i * ldc + j]. op(B)(pc + p, jc + j) lives at
 * b[p * ldb + j]: ldb is B's own row stride when the block is read
 * in place, the padded width when it is packed. Either way every row
 * holds a whole number of panel widths, so a kernel never reads past
 * a row's last panel.
 */
struct GemmBlockCtx
{
    float *c;
    int64_t ldc;
    const float *a;
    int64_t lda;
    bool transA;
    int64_t pc, kc, jc, nc;
    const float *b;
    int64_t ldb;
};

/** Computes C rows [i0, i1) (+)= op(A) * B for one block. */
using GemmPanelFn = void (*)(const GemmBlockCtx &ctx, int64_t i0,
                             int64_t i1);

/**
 * Per-pc state of the swapped NT orientation, C[m x n] (+)= A * B^T
 * with B stored [n x k]. at[p * ldat + i] holds A(i, pc + p) for
 * i < m and zero up to ldat, a whole number of vector registers. B
 * row j, depth p lives at b[j * ldb + p]: b already points at column
 * pc of B's first row, and the kernel reads it in place.
 */
struct GemmSwapCtx
{
    float *c;
    int64_t ldc;
    int64_t m;
    const float *at;
    int64_t ldat;
    const float *b;
    int64_t ldb;
    int64_t kc;
};

/**
 * Most rows an NT call may have to run swapped: one zmm of lanes on
 * AVX-512, two ymm on AVX2. It covers the few-row NT calls the
 * workloads make (train_cc's 16-row micro-batch, PowerSGD's rank 8,
 * serve decode's <= 8 rows); above it the packed path was never
 * measured to win.
 */
constexpr int64_t kGemmSwapMaxRows = 16;

/**
 * Lane padding of the swapped path's packed A^T: m up to this many
 * rows pads to it (one ymm, on either vector tier), larger m to
 * kGemmSwapMaxRows.
 */
constexpr int64_t kGemmSwapMinLanes = 8;

/**
 * The swapped path's A^T pack, shared by both vector tiers:
 * at[p * ldat + i] = a[i * lda + p] for i < m, p < kc, and zero for
 * m <= i < ldat (ldat a multiple of 8).
 */
void packSwappedAvx2(float *at, int64_t ldat, const float *a,
                     int64_t lda, int64_t m, int64_t kc);

/** Computes C columns [j0, j1) (+)= A * B^T for one pc block. */
using GemmSwapFn = void (*)(const GemmSwapCtx &ctx, int64_t j0,
                            int64_t j1);

/** One dispatch tier's GEMM entry. */
struct GemmKernel
{
    /** Tier name, matches simd::tierName. */
    const char *name;
    /** Register-tile column width. The driver reads a B block in
     * place when its width is a multiple of this and otherwise
     * pads packed-B rows to one (pad columns are zero and never
     * stored). */
    int64_t panelWidth;
    /**
     * Row tile of the driver's parallelFor — a multiple of the
     * micro-kernel row count MR, so interior chunks split into
     * whole MR-row groups. The driver states its work per tile and
     * the runtime's dispatch rule picks how many tiles a chunk
     * takes, so the decomposition stays a pure shape function.
     */
    int64_t rowGrain;
    /**
     * Column block (the driver's NC). The SIMD tiers use wide
     * blocks so each A row group is packed once per pc block and
     * the B block is streamed from L2.
     */
    int64_t colBlock;
    /** Panel function; null on builds without this tier's ISA
     * (never reached — simd::tier() caps at Scalar there). */
    GemmPanelFn panel;
    /** Column tile of the swapped path's parallelFor, a multiple of
     * each of its register tiles' B-row counts. */
    int64_t swapGrain;
    /** Swapped-path NT function; null where panel is. */
    GemmSwapFn swapped;
};

/** 6x16 ymm FMA panel kernel and one- or two-ymm swapped kernel
 * (AVX2 tier). */
const GemmKernel &gemmKernelAvx2();

/** 14x32 zmm FMA panel kernel and 16-lane swapped kernel
 * (AVX-512 tier). */
const GemmKernel &gemmKernelAvx512();

} // namespace optimus

#endif // OPTIMUS_TENSOR_GEMM_KERNELS_HH
