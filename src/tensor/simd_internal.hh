/**
 * @file
 * Shared plumbing for the SIMD translation units (simd.cc and
 * gemm_kernels.cc): the x86 feature gate, the per-tier function
 * target attributes, and the horizontal-reduction helper that fixes
 * the intra-register lane-combination order.
 *
 * The kernels are compiled with per-function `target` attributes
 * instead of file-level `-mavx*` flags, so a fully portable build
 * (-DOPTIMUS_NATIVE=OFF, the CI configuration) still contains every
 * tier and the choice is made purely at runtime by simd::tier().
 *
 * Raw intrinsics are sanctioned ONLY in the files that include this
 * header (lint rule SIM01).
 */

#ifndef OPTIMUS_TENSOR_SIMD_INTERNAL_HH
#define OPTIMUS_TENSOR_SIMD_INTERNAL_HH

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPTIMUS_SIMD_X86 1
#else
#define OPTIMUS_SIMD_X86 0
#endif

#if OPTIMUS_SIMD_X86

#include <immintrin.h>

/** AVX2 kernel tier: 8-wide float, FMA, POPCNT for mask counts. */
#define OPTIMUS_TARGET_AVX2 __attribute__((target("avx2,fma,popcnt")))
/** AVX-512 GEMM tile: foundation subset only (no DQ/BW/VL). */
#define OPTIMUS_TARGET_AVX512 __attribute__((target("avx512f,popcnt")))

namespace optimus
{
namespace simd
{

/**
 * The shared horizontal reduction: sum the four double lanes of an
 * accumulator register pairwise, (l0 + l1) + (l2 + l3). Every
 * reduction kernel funnels through this helper, so a result depends
 * only on the chunk grid — never on the thread count or any library
 * reduction order.
 */
OPTIMUS_TARGET_AVX2 inline double
hsum4d(__m256d v)
{
    alignas(32) double l[4];
    _mm256_store_pd(l, v);
    return (l[0] + l[1]) + (l[2] + l[3]);
}

} // namespace simd
} // namespace optimus

#endif // OPTIMUS_SIMD_X86

#endif // OPTIMUS_TENSOR_SIMD_INTERNAL_HH
