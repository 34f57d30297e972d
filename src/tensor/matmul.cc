#include "tensor/matmul.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/runtime.hh"
#include "tensor/arena.hh"
#include "tensor/gemm_kernels.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/**
 * Cache-blocking parameters (in floats). The B block (KC x NC,
 * read in place or packed) is shared read-only by every row-panel
 * task and stays cache-resident across the whole M sweep; each
 * task's A rows and C tile live in L1.
 */
constexpr int64_t KC = 256;
constexpr int64_t NC = 128;
// The SIMD panel kernels size their packed-A scratch from the
// shared constant; the driver must block k identically.
static_assert(KC == kGemmMaxKc, "k blocking out of sync");
/** Column width of the register accumulator tile. */
constexpr int64_t JW = 32;
/** Row count of the widest scalar micro-kernel: the scalar row tile. */
constexpr int MR = 8;

/**
 * GCC/Clang vector extension: 16 floats. Lowered to one zmm with
 * AVX-512, to ymm/xmm pairs on narrower ISAs — portable either way,
 * and unlike a plain float array the accumulators reliably stay in
 * registers across the k loop (the autovectorizer spills arrays,
 * costing ~10x).
 */
typedef float Vec __attribute__((vector_size(64), aligned(4)));
constexpr int64_t VL = 16;

inline Vec
vload(const float *p)
{
    Vec v;
    __builtin_memcpy(&v, p, sizeof(Vec));
    return v;
}

inline void
vstore(float *p, Vec v)
{
    __builtin_memcpy(p, &v, sizeof(Vec));
}

/**
 * ROWS x JW register-tile micro-kernel: accumulates
 * A(rows, pc:pc+kc) times JW columns of the B block (rows @p ldb
 * apart) into C. Accumulators start at zero and are added to C once
 * per pc block, so each C element sees K/KC + 1 memory-order
 * additions regardless of thread count.
 * When @p cols < JW (ragged right edge) the pad lanes — fed only
 * zeros from the padded B pack — are simply not stored.
 */
template <int ROWS>
inline void
microKernel(float *const *crows, const float *const *arows,
            const float *bp0, int64_t kc, int64_t ldb,
            int64_t cols)
{
    Vec q[ROWS][2] = {};
    const float *bp = bp0;
    for (int64_t p = 0; p < kc; ++p, bp += ldb) {
        const Vec b0 = vload(bp);
        const Vec b1 = vload(bp + VL);
        for (int r = 0; r < ROWS; ++r) {
            const Vec x = Vec{} + arows[r][p];
            q[r][0] += x * b0;
            q[r][1] += x * b1;
        }
    }
    if (cols == JW) {
        for (int r = 0; r < ROWS; ++r) {
            vstore(crows[r], vload(crows[r]) + q[r][0]);
            vstore(crows[r] + VL, vload(crows[r] + VL) + q[r][1]);
        }
    } else {
        float tmp[JW];
        for (int r = 0; r < ROWS; ++r) {
            vstore(tmp, q[r][0]);
            vstore(tmp + VL, q[r][1]);
            for (int64_t v = 0; v < cols; ++v)
                crows[r][v] += tmp[v];
        }
    }
}

/**
 * Run the micro-kernel on rows [i, i+ROWS) across the full jc block.
 * When A is logically transposed its elements are strided by lda
 * in memory, so the rows are first packed into the caller's
 * contiguous scratch buffer.
 */
template <int ROWS>
inline void
processRowGroup(const GemmBlockCtx &ctx, int64_t i, float *apack)
{
    const float *arows[ROWS];
    float *crows[ROWS];
    if (!ctx.transA) {
        for (int r = 0; r < ROWS; ++r)
            arows[r] = ctx.a + (i + r) * ctx.lda + ctx.pc;
    } else {
        for (int64_t p = 0; p < ctx.kc; ++p) {
            const float *src = ctx.a + (ctx.pc + p) * ctx.lda + i;
            for (int r = 0; r < ROWS; ++r)
                apack[r * ctx.kc + p] = src[r];
        }
        for (int r = 0; r < ROWS; ++r)
            arows[r] = apack + r * ctx.kc;
    }
    for (int64_t j0 = 0; j0 < ctx.nc; j0 += JW) {
        const int64_t cols = std::min<int64_t>(JW, ctx.nc - j0);
        for (int r = 0; r < ROWS; ++r)
            crows[r] = ctx.c + (i + r) * ctx.ldc + ctx.jc + j0;
        microKernel<ROWS>(crows, arows, ctx.b + j0, ctx.kc, ctx.ldb,
                          cols);
    }
}

/** Edge of the square tiles the transposed-B pack moves. */
constexpr int64_t TT = 16;

/**
 * Pack a kc x nc block of B from its transposed [n x k] storage:
 * bp[p*ldp + j] = src[j*lds + p]. Gathering one packed column at a
 * time would put every store on a new cache line; moving TT x TT
 * tiles instead reads TT contiguous floats from each source row into
 * an L1 tile and writes TT contiguous floats to each packed row. It
 * only moves data: the packed bytes do not depend on the tile order.
 */
inline void
packTransposedB(float *bp, int64_t ldp, const float *src, int64_t lds,
                int64_t kc, int64_t nc)
{
    for (int64_t j0 = 0; j0 < nc; j0 += TT) {
        const int64_t jn = std::min(TT, nc - j0);
        for (int64_t p0 = 0; p0 < kc; p0 += TT) {
            const int64_t pn = std::min(TT, kc - p0);
            const float *s = src + j0 * lds + p0;
            float *d = bp + p0 * ldp + j0;
            if (jn == TT && pn == TT) {
                float tile[TT][TT];
                for (int64_t j = 0; j < TT; ++j)
                    std::memcpy(tile[j], s + j * lds, sizeof(tile[j]));
                for (int64_t p = 0; p < TT; ++p)
                    for (int64_t j = 0; j < TT; ++j)
                        d[p * ldp + j] = tile[j][p];
            } else {
                for (int64_t j = 0; j < jn; ++j)
                    for (int64_t p = 0; p < pn; ++p)
                        d[p * ldp + j] = s[j * lds + p];
            }
        }
    }
}

/**
 * The driver's one pack buffer per call. Under an active workspace
 * scope it is drawn from the arena and recycles across calls no
 * matter which pool worker executes this frame — a thread_local here
 * would ratchet per thread, and which worker runs a reduce-engine
 * bucket task is scheduling-dependent, so a cold worker could
 * allocate in an armed steady-state step. Unscoped callers keep the
 * per-thread buffer (every block is fully rewritten before use, and
 * a GEMM never nests inside another GEMM on one thread).
 */
class PackScratch
{
  public:
    explicit PackScratch(int64_t elems)
    {
        if (elems <= 0)
            return;
        ws_ = currentWorkspace();
        if (ws_ != nullptr) {
            data_ = ws_->allocate(elems, cap_);
            return;
        }
        thread_local std::vector<float> t_pack; // optlint:coldalloc
        // optlint:coldalloc — warmup capacity ratchet.
        if (static_cast<int64_t>(t_pack.size()) < elems)
            t_pack.resize(elems);
        data_ = t_pack.data();
    }
    ~PackScratch()
    {
        if (ws_ != nullptr)
            ws_->release(data_, cap_);
    }
    PackScratch(const PackScratch &) = delete;
    PackScratch &operator=(const PackScratch &) = delete;

    float *data() const { return data_; }

  private:
    Workspace *ws_ = nullptr;
    float *data_ = nullptr;
    int64_t cap_ = 0;
};

/**
 * Swapped NT core: C[m x n] (+)= A * B^T with the vector lanes along
 * m, for m below n and at most kGemmSwapMaxRows. Per pc
 * block the m x kc block of A is transposed into lane-padded scratch
 * (pad lanes zero, never stored) and the kernel reads B's rows in
 * place; the columns of C split over the pool.
 */
void
gemmSwapped(const GemmKernel &mk, float *c, int64_t ldc,
            const float *a, int64_t lda, const float *b, int64_t ldb,
            int64_t m, int64_t k, int64_t n)
{
    const int64_t ldat =
        m <= kGemmSwapMinLanes ? kGemmSwapMinLanes : kGemmSwapMaxRows;
    PackScratch at(std::min(k, KC) * ldat);
    for (int64_t pc = 0; pc < k; pc += KC) {
        const int64_t kc = std::min(KC, k - pc);
        packSwappedAvx2(at.data(), ldat, a + pc, lda, m, kc);
        // A column of C is kc * m multiply-adds; its bits do not
        // depend on its chunk.
        const GemmSwapCtx ctx{c, ldc, m, at.data(), ldat, b + pc, ldb,
                              kc};
        const int64_t grain =
            mk.swapGrain * grainForWork(mk.swapGrain * kc * m);
        parallelFor(0, n, grain, [&ctx, &mk](int64_t j0, int64_t j1) {
            mk.swapped(ctx, j0, j1);
        });
    }
}

/**
 * Blocked GEMM core: C[m x n] (+)= op(A) * op(B) with op in
 * {identity, transpose}, never materializing a transposed copy.
 * Physical layouts: A is [m x k] ([k x m] when trans_a), B is
 * [k x n] ([n x k] when trans_b), C is [m x n], all row-major
 * views whose rows start lda / ldb / ldc floats apart (see
 * gemmStrided() in matmul.hh).
 *
 * The active simd::Tier is read once per call: it selects the panel
 * kernel run inside each row task, the panel width that decides
 * whether a B block is read in place or packed and padded, and
 * whether an NT product with few rows runs swapped (gemmSwapped).
 * The scalar panel below is the pre-dispatch kernel, unchanged, so
 * OPTIMUS_SIMD=scalar is bit-exact with the old tree.
 */
// optlint:hot — steady-state step path (zero-allocation contract).
void
gemmBlocked(float *c, int64_t ldc, const float *a, int64_t lda,
            const float *b, int64_t ldb, int64_t m, int64_t k,
            int64_t n, bool trans_a, bool trans_b, bool accumulate)
{
    if (!accumulate && n > 0)
        for (int64_t i = 0; i < m; ++i)
            std::memset(c + i * ldc, 0, sizeof(float) * n);
    if (m <= 0 || n <= 0 || k <= 0)
        return;

    const simd::Tier tier = simd::tier();
    const GemmKernel *mk = nullptr;
    if (tier == simd::Tier::Avx512)
        mk = &gemmKernelAvx512();
    else if (tier == simd::Tier::Avx2)
        mk = &gemmKernelAvx2();
    const int64_t jw = mk ? mk->panelWidth : JW;
    const int64_t row_tile = mk ? mk->rowGrain : MR;
    const int64_t ncb = mk ? mk->colBlock : NC;

    // A block of B stored [k x n] whose width is a whole number of
    // panels is already laid out as its pack would be, only with rows
    // ldb apart instead of nc_pad: the kernels read it in place. Only
    // the last column block can be ragged, so it alone decides
    // whether an untransposed B packs at all. A transposed B is read
    // in place by the swapped path, so it is checked at every tier
    // and shape alike.
    const int64_t nc_last = n - ((n - 1) / ncb) * ncb;
    const bool pack_last = trans_b || nc_last % jw != 0;
    if (trans_b || n > ncb || !pack_last) {
        // In place, the kernels read B while they write C, so the
        // two must not share storage.
        const auto lo = [](const float *p) {
            return reinterpret_cast<uintptr_t>(p);
        };
        const int64_t b_rows = trans_b ? n : k;
        const int64_t b_cols = trans_b ? k : n;
        OPTIMUS_ASSERT(lo(c + (m - 1) * ldc + n) <= lo(b) ||
                       lo(b + (b_rows - 1) * ldb + b_cols) <= lo(c));
    }

    // Few rows of NT: lanes along m, B read in place.
    if (mk != nullptr && trans_b && !trans_a && m < n &&
        m <= kGemmSwapMaxRows) {
        gemmSwapped(*mk, c, ldc, a, lda, b, ldb, m, k, n);
        return;
    }

    // Packed-B scratch, drawn only when some block packs and sized
    // for the widest such block.
    const int64_t pack_cols = trans_b ? std::min(n, ncb) : nc_last;
    PackScratch bpack(
        pack_last ? std::min(k, KC) * ((pack_cols + jw - 1) / jw) * jw
                  : 0);

    for (int64_t jc = 0; jc < n; jc += ncb) {
        const int64_t nc = std::min(ncb, n - jc);
        const int64_t nc_pad = ((nc + jw - 1) / jw) * jw;
        for (int64_t pc = 0; pc < k; pc += KC) {
            const int64_t kc = std::min(KC, k - pc);

            // Read B(pc:pc+kc, jc:jc+nc) in place when it needs no
            // pad columns. Otherwise pack it p-major with rows padded
            // to the register-tile width: one memcpy per row when B
            // is stored [k x n], the tiled transpose when it is
            // [n x k]. Pad columns are zero and feed accumulators
            // that are never stored.
            const float *bp = b + pc * ldb + jc;
            int64_t ldp = ldb;
            if (trans_b || nc_pad != nc) {
                float *const pack = bpack.data();
                if (!trans_b) {
                    for (int64_t p = 0; p < kc; ++p)
                        std::memcpy(pack + p * nc_pad,
                                    b + (pc + p) * ldb + jc,
                                    sizeof(float) * nc);
                } else {
                    packTransposedB(pack, nc_pad, b + jc * ldb + pc,
                                    ldb, kc, nc);
                }
                if (nc_pad != nc)
                    for (int64_t p = 0; p < kc; ++p)
                        std::memset(pack + p * nc_pad + nc, 0,
                                    sizeof(float) * (nc_pad - nc));
                bp = pack;
                ldp = nc_pad;
            }

            // Chunks are whole row tiles, each kc * nc multiply-adds
            // a row; a row's bits do not depend on its chunk.
            GemmBlockCtx ctx{c,  ldc, a,  lda, trans_a, pc,
                             kc, jc,  nc, bp,  ldp};
            const int64_t grain =
                row_tile * grainForWork(row_tile * kc * nc);
            parallelFor(0, m, grain,
                        [&ctx, mk](int64_t i0, int64_t i1) {
                if (mk != nullptr) {
                    mk->panel(ctx, i0, i1);
                    return;
                }
                float apack[MR * KC];
                int64_t i = i0;
                for (; i + MR <= i1; i += MR)
                    processRowGroup<MR>(ctx, i, apack);
                for (; i + 4 <= i1; i += 4)
                    processRowGroup<4>(ctx, i, apack);
                for (; i + 2 <= i1; i += 2)
                    processRowGroup<2>(ctx, i, apack);
                for (; i < i1; ++i)
                    processRowGroup<1>(ctx, i, apack);
            });
        }
    }
}

} // namespace

void
gemmStrided(float *c, int64_t ldc, const float *a, int64_t lda,
            bool trans_a, const float *b, int64_t ldb, bool trans_b,
            int64_t m, int64_t k, int64_t n, bool accumulate)
{
    OPTIMUS_ASSERT(m >= 0 && k >= 0 && n >= 0);
    OPTIMUS_ASSERT(ldc >= n);
    OPTIMUS_ASSERT(lda >= (trans_a ? m : k));
    OPTIMUS_ASSERT(ldb >= (trans_b ? k : n));
    gemmBlocked(c, ldc, a, lda, b, ldb, m, k, n, trans_a, trans_b,
                accumulate);
}

void
gemm(float *c, const float *a, const float *b, int64_t m, int64_t k,
     int64_t n, bool accumulate)
{
    gemmBlocked(c, n, a, k, b, n, m, k, n, false, false, accumulate);
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    OPTIMUS_ASSERT(a.rank() == 2 && b.rank() == 2);
    OPTIMUS_ASSERT(a.cols() == b.rows());
    Tensor c({a.rows(), b.cols()});
    matmulAcc(c, a, b);
    return c;
}

Tensor
matmulTN(const Tensor &a, const Tensor &b)
{
    OPTIMUS_ASSERT(a.rank() == 2 && b.rank() == 2);
    OPTIMUS_ASSERT(a.rows() == b.rows());
    Tensor c({a.cols(), b.cols()});
    matmulAccTN(c, a, b);
    return c;
}

Tensor
matmulNT(const Tensor &a, const Tensor &b)
{
    OPTIMUS_ASSERT(a.rank() == 2 && b.rank() == 2);
    OPTIMUS_ASSERT(a.cols() == b.cols());
    Tensor c({a.rows(), b.rows()});
    matmulAccNT(c, a, b);
    return c;
}

void
matmulAcc(Tensor &c, const Tensor &a, const Tensor &b)
{
    OPTIMUS_ASSERT(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
    OPTIMUS_ASSERT(a.cols() == b.rows());
    OPTIMUS_ASSERT(c.rows() == a.rows() && c.cols() == b.cols());
    gemmBlocked(c.data(), c.cols(), a.data(), a.cols(), b.data(),
                b.cols(), a.rows(), a.cols(), b.cols(), false, false,
                true);
}

void
matmulAccTN(Tensor &c, const Tensor &a, const Tensor &b)
{
    OPTIMUS_ASSERT(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
    OPTIMUS_ASSERT(a.rows() == b.rows());
    OPTIMUS_ASSERT(c.rows() == a.cols() && c.cols() == b.cols());
    gemmBlocked(c.data(), c.cols(), a.data(), a.cols(), b.data(),
                b.cols(), a.cols(), a.rows(), b.cols(), true, false,
                true);
}

void
matmulAccNT(Tensor &c, const Tensor &a, const Tensor &b)
{
    OPTIMUS_ASSERT(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
    OPTIMUS_ASSERT(a.cols() == b.cols());
    OPTIMUS_ASSERT(c.rows() == a.rows() && c.cols() == b.rows());
    gemmBlocked(c.data(), c.cols(), a.data(), a.cols(), b.data(),
                b.cols(), a.rows(), a.cols(), b.rows(), false, true,
                true);
}

} // namespace optimus
