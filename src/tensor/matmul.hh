/**
 * @file
 * GEMM kernels for 2D tensors. Four explicit entry points cover the
 * transpose combinations the NN stack and PowerSGD need; all
 * accumulate with `beta`-style semantics chosen by the caller
 * (overwrite vs. accumulate).
 *
 * All entry points route through a shared cache-blocked kernel
 * (KC/NC tiling and a register-tile micro-kernel) whose row tiles
 * run on the execution runtime's thread pool (see
 * runtime/runtime.hh); a GEMM too small to fill two chunks by the
 * runtime's dispatch rule runs inline. B stored [k x n] is read in
 * place wherever a column block is a whole number of register tiles
 * wide, so a Linear forward copies none of its weights; ragged
 * blocks and transposed B are packed block by block — no full
 * transposed() copy is ever made. Results are bitwise reproducible for any
 * OPTIMUS_THREADS setting because the panel decomposition depends
 * only on the problem shape.
 *
 * Leading dimensions: the core reads A and B and writes C through
 * row-major views, each row `ld` floats after the previous one, so a
 * caller can multiply column slices of a wider matrix (one head's
 * q/k/v inside a fused qkv activation) and accumulate into a block
 * of a wider output without copying. gemmStrided() exposes that
 * core; the matmul* entries and gemm() are thin wrappers passing the
 * natural strides (ld == row width). An element's arithmetic never
 * depends on the strides: a view and a packed copy of the same
 * values give the same bits, and only elements inside C's view are
 * read or written.
 */

#ifndef OPTIMUS_TENSOR_MATMUL_HH
#define OPTIMUS_TENSOR_MATMUL_HH

#include "tensor/tensor.hh"

namespace optimus
{

/**
 * C = A * B for 2D tensors; returns a new [A.rows, B.cols] tensor.
 * @pre A.cols == B.rows
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C = A^T * B; returns [A.cols, B.cols]. */
Tensor matmulTN(const Tensor &a, const Tensor &b);

/** C = A * B^T; returns [A.rows, B.rows]. */
Tensor matmulNT(const Tensor &a, const Tensor &b);

/** C += A * B into an existing tensor. @pre shapes agree */
void matmulAcc(Tensor &c, const Tensor &a, const Tensor &b);

/** C += A^T * B. @pre shapes agree */
void matmulAccTN(Tensor &c, const Tensor &a, const Tensor &b);

/** C += A * B^T. @pre shapes agree */
void matmulAccNT(Tensor &c, const Tensor &a, const Tensor &b);

/**
 * Raw kernel: C[m x n] (+)= A[m x k] * B[k x n], row-major.
 * When @p accumulate is false, C is overwritten.
 */
void gemm(float *c, const float *a, const float *b, int64_t m,
          int64_t k, int64_t n, bool accumulate);

/**
 * Strided kernel: C[m x n] (+)= op(A) * op(B) on row-major views.
 * Element (i, j) of C is c[i * ldc + j]; A is stored [m x k]
 * ([k x m] when @p trans_a) with rows @p lda apart, B is stored
 * [k x n] ([n x k] when @p trans_b) with rows @p ldb apart. When
 * @p accumulate is false the C view is overwritten. Bits equal the
 * same product on packed copies of the views.
 * @pre every ld is at least its view's stored row width
 * @pre when B is not transposed, the C view does not overlap B's
 *      storage (B may be read in place while C is written; checked)
 */
void gemmStrided(float *c, int64_t ldc, const float *a, int64_t lda,
                 bool trans_a, const float *b, int64_t ldb,
                 bool trans_b, int64_t m, int64_t k, int64_t n,
                 bool accumulate);

/**
 * Naive single-threaded i-k-j triple loop kept as the testing and
 * benchmarking oracle for the blocked kernel. Same contract as
 * gemm().
 */
void gemmReference(float *c, const float *a, const float *b,
                   int64_t m, int64_t k, int64_t n, bool accumulate);

} // namespace optimus

#endif // OPTIMUS_TENSOR_MATMUL_HH
