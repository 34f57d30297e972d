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
 * Each dispatch tier supplies a GemmKernel descriptor: its panel
 * function plus the register-tile column width. The scalar panel
 * lives in matmul.cc (it is the pre-dispatch kernel, unchanged);
 * the AVX2 and AVX-512 panels live in gemm_kernels.cc — the only
 * file besides simd.cc allowed to use raw intrinsics (lint rule
 * SIM01).
 *
 * Determinism: a panel kernel's row grouping, packing, and
 * accumulator tiling depend only on (i0, i1, ctx shape), and the
 * driver's chunk grid is a pure function of the problem shape, so
 * every tier is bitwise deterministic at any OPTIMUS_THREADS.
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
     * micro-kernel row count MR, so interior chunks never hit the
     * short-row tail path. The driver states its work per tile and
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
};

/** 6x16 ymm FMA panel kernel (AVX2 tier). */
const GemmKernel &gemmKernelAvx2();

/** 14x32 zmm FMA panel kernel (AVX-512 tier). */
const GemmKernel &gemmKernelAvx512();

} // namespace optimus

#endif // OPTIMUS_TENSOR_GEMM_KERNELS_HH
