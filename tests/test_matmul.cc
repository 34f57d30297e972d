/**
 * @file
 * The blocked multi-threaded GEMM against the naive reference
 * oracle: all six matmul entry points, shapes that stress the
 * blocking edges, bitwise determinism under threading, and row
 * batch invariance at every SIMD tier.
 */

#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/runtime.hh"
#include "tensor/arena.hh"
#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"
#include "test_util.hh"

using namespace optimus;

namespace
{

// Force a multi-threaded pool before its lazy construction so the
// determinism tests actually exercise pooled execution. Runs at
// static-init time, ahead of any parallelFor call.
const bool kForceThreads = [] {
    ::setenv("OPTIMUS_THREADS", "4", 0);
    return true;
}();

/** Oracle C = op(A) * op(B) via gemmReference on explicit copies. */
Tensor
oracle(const Tensor &a, const Tensor &b, bool trans_a, bool trans_b)
{
    Tensor at = trans_a ? a.transposed() : a;
    Tensor bt = trans_b ? b.transposed() : b;
    Tensor c({at.rows(), bt.cols()});
    gemmReference(c.data(), at.data(), bt.data(), at.rows(),
                  at.cols(), bt.cols(), false);
    return c;
}

/**
 * Shapes chosen to hit the blocking edge cases: degenerate 1xN and
 * Nx1, odd sizes that divide neither the MC/KC/NC blocks nor the
 * register tile, and sizes one past a block boundary.
 */
struct Shape
{
    int64_t m, k, n;
};

const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {1, 64, 300},  {300, 64, 1},
    {5, 3, 2},   {7, 13, 9},   {33, 65, 17},  {64, 256, 128},
    {65, 257, 129}, {130, 40, 70}, {16, 512, 24},
};

float
tolFor(int64_t k)
{
    // Entries are sums of k products of N(0,1) draws (magnitude
    // ~sqrt(k)); the blocked kernel reassociates across KC blocks
    // and register tiles, so allow a few ULP at that magnitude.
    return 1e-5f * static_cast<float>(k < 16 ? 16 : k);
}

using test::supportedTiers;

/**
 * Sizes that divide no vector width: 63/65 straddle every lane
 * count, 1 forces the single-row/column paths, and the primes make
 * both the packing tails and the ragged register-tile edges fire in
 * each tier's kernels.
 */
const Shape kTailShapes[] = {
    {63, 63, 63}, {65, 65, 65}, {1, 5, 63},   {63, 1, 65},
    {1, 1, 1},    {31, 47, 97}, {13, 29, 101},
};

} // namespace

TEST(Matmul, MatchesReferenceNN)
{
    ASSERT_TRUE(kForceThreads);
    Rng rng(11);
    for (const Shape &s : kShapes) {
        Tensor a = Tensor::randn({s.m, s.k}, rng);
        Tensor b = Tensor::randn({s.k, s.n}, rng);
        Tensor c = matmul(a, b);
        EXPECT_TRUE(c.allClose(oracle(a, b, false, false),
                               tolFor(s.k)))
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(Matmul, MatchesReferenceTN)
{
    Rng rng(12);
    for (const Shape &s : kShapes) {
        Tensor a = Tensor::randn({s.k, s.m}, rng);
        Tensor b = Tensor::randn({s.k, s.n}, rng);
        Tensor c = matmulTN(a, b);
        EXPECT_TRUE(c.allClose(oracle(a, b, true, false),
                               tolFor(s.k)))
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(Matmul, MatchesReferenceNT)
{
    Rng rng(13);
    for (const Shape &s : kShapes) {
        Tensor a = Tensor::randn({s.m, s.k}, rng);
        Tensor b = Tensor::randn({s.n, s.k}, rng);
        Tensor c = matmulNT(a, b);
        EXPECT_TRUE(c.allClose(oracle(a, b, false, true),
                               tolFor(s.k)))
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(Matmul, AccumulateFormsMatchReference)
{
    Rng rng(14);
    for (const Shape &s : kShapes) {
        Tensor a = Tensor::randn({s.m, s.k}, rng);
        Tensor b = Tensor::randn({s.k, s.n}, rng);
        Tensor init = Tensor::randn({s.m, s.n}, rng);

        Tensor c = init;
        matmulAcc(c, a, b);
        Tensor expect = oracle(a, b, false, false);
        expect.add(init);
        EXPECT_TRUE(c.allClose(expect, tolFor(s.k)))
            << "Acc " << s.m << "x" << s.k << "x" << s.n;

        Tensor at = a.transposed(); // [k x m]
        Tensor c_tn = init;
        matmulAccTN(c_tn, at, b);
        EXPECT_TRUE(c_tn.allClose(expect, tolFor(s.k)))
            << "AccTN " << s.m << "x" << s.k << "x" << s.n;

        Tensor bt = b.transposed(); // [n x k]
        Tensor c_nt = init;
        matmulAccNT(c_nt, a, bt);
        EXPECT_TRUE(c_nt.allClose(expect, tolFor(s.k)))
            << "AccNT " << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(Matmul, RawGemmOverwriteAndAccumulate)
{
    Rng rng(15);
    Tensor a = Tensor::randn({37, 41}, rng);
    Tensor b = Tensor::randn({41, 29}, rng);
    Tensor c = Tensor::full({37, 29}, 123.0f);
    // Overwrite mode must ignore prior contents.
    gemm(c.data(), a.data(), b.data(), 37, 41, 29, false);
    EXPECT_TRUE(c.allClose(oracle(a, b, false, false), tolFor(41)));
    // A second accumulate pass doubles every entry.
    gemm(c.data(), a.data(), b.data(), 37, 41, 29, true);
    Tensor twice = oracle(a, b, false, false);
    twice.scale(2.0f);
    EXPECT_TRUE(c.allClose(twice, 2.0f * tolFor(41)));
}

TEST(Matmul, DeterministicBytesUnderThreading)
{
    ASSERT_GE(runtimeThreads(), 1);
    Rng rng(16);
    // Big enough that the row panels actually span several chunks.
    Tensor a = Tensor::randn({300, 257}, rng);
    Tensor b = Tensor::randn({257, 190}, rng);

    Tensor c1 = matmul(a, b);
    Tensor c2 = matmul(a, b);
    ASSERT_EQ(c1.size(), c2.size());
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(),
                             sizeof(float) * c1.size()));

    // Forced-serial execution must also be bitwise identical to the
    // pooled run: the chunk decomposition is thread-count-invariant.
    SerialRegion serial;
    Tensor c3 = matmul(a, b);
    EXPECT_EQ(0, std::memcmp(c1.data(), c3.data(),
                             sizeof(float) * c1.size()));
}

TEST(MatmulTiers, TailShapesMatchReferenceEveryTier)
{
    ASSERT_TRUE(kForceThreads);
    const simd::Tier initial = simd::tier();
    Rng rng(31);
    for (const Shape &s : kTailShapes) {
        Tensor a = Tensor::randn({s.m, s.k}, rng);
        Tensor b = Tensor::randn({s.k, s.n}, rng);
        Tensor want = oracle(a, b, false, false);
        for (simd::Tier t : supportedTiers()) {
            simd::setTier(t);
            Tensor c = matmul(a, b);
            EXPECT_TRUE(c.allClose(want, tolFor(s.k)))
                << simd::tierName(t) << " " << s.m << "x" << s.k
                << "x" << s.n;
        }
    }
    simd::setTier(initial);
}

TEST(MatmulTiers, AllVariantsDispatchEveryTier)
{
    // One ragged shape through all six entry points per tier: the
    // dispatch happens inside gemmBlocked, so every variant must
    // produce oracle-close results no matter the forced tier.
    const simd::Tier initial = simd::tier();
    const Shape s{63, 65, 33};
    Rng rng(32);
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor init = Tensor::randn({s.m, s.n}, rng);
    Tensor expect = oracle(a, b, false, false);
    Tensor expect_acc = expect;
    expect_acc.add(init);

    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        const char *name = simd::tierName(t);
        const float tol = tolFor(s.k);
        EXPECT_TRUE(matmul(a, b).allClose(expect, tol)) << name;
        EXPECT_TRUE(matmulTN(a.transposed(), b).allClose(expect,
                                                         tol))
            << name;
        EXPECT_TRUE(matmulNT(a, b.transposed()).allClose(expect,
                                                         tol))
            << name;
        Tensor c = init;
        matmulAcc(c, a, b);
        EXPECT_TRUE(c.allClose(expect_acc, tol)) << name;
        Tensor c_tn = init;
        matmulAccTN(c_tn, a.transposed(), b);
        EXPECT_TRUE(c_tn.allClose(expect_acc, tol)) << name;
        Tensor c_nt = init;
        matmulAccNT(c_nt, a, b.transposed());
        EXPECT_TRUE(c_nt.allClose(expect_acc, tol)) << name;
    }
    simd::setTier(initial);
}

TEST(MatmulTiers, BitwiseSelfConsistentPerTierAcrossThreading)
{
    // Per-tier determinism contract: within one tier the result is
    // bitwise identical run-to-run and pooled-vs-serial; across
    // tiers results agree only to tolerance (reductions round in a
    // different order per vector width).
    const simd::Tier initial = simd::tier();
    Rng rng(33);
    Tensor a = Tensor::randn({130, 131}, rng);
    Tensor b = Tensor::randn({131, 63}, rng);

    std::vector<Tensor> per_tier;
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        Tensor c1 = matmul(a, b);
        Tensor c2 = matmul(a, b);
        EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(),
                                 sizeof(float) * c1.size()))
            << simd::tierName(t) << " rerun";
        {
            SerialRegion serial;
            Tensor c3 = matmul(a, b);
            EXPECT_EQ(0, std::memcmp(c1.data(), c3.data(),
                                     sizeof(float) * c1.size()))
                << simd::tierName(t) << " serial";
        }
        per_tier.push_back(c1);
    }
    for (size_t i = 1; i < per_tier.size(); ++i)
        EXPECT_TRUE(per_tier[i].allClose(per_tier[0], tolFor(131)));
    simd::setTier(initial);
}

/** Rows [row0, row0 + rows) of @p t as a fresh tensor. */
Tensor
sliceRows(const Tensor &t, int64_t row0, int64_t rows)
{
    Tensor out({rows, t.cols()});
    std::memcpy(out.data(), t.data() + row0 * t.cols(),
                sizeof(float) * rows * t.cols());
    return out;
}

TEST(MatmulTiers, RowsAreBatchInvariantEveryTier)
{
    // The serving contract: row i of matmul(X) and matmulNT(X, E) is
    // bitwise equal to the same call on X[i:i+1], whatever M is. The
    // GEMM's K/N blocking never depends on M, and each tier's row
    // groups run the same per-element FMA chain, so a sequence's
    // activations do not depend on how many other sequences share
    // its stacked GEMM. K = 300 and 700 cross the KC = 256 block.
    // N = 192 and 256 are whole panels at every tier, so matmul reads
    // W in place there; m = 1..8 are serve's decode row counts.
    ASSERT_TRUE(kForceThreads);
    const simd::Tier initial = simd::tier();
    std::vector<int64_t> ms;
    for (int64_t m = 1; m <= 31; ++m)
        ms.push_back(m);
    ms.push_back(64);
    ms.push_back(100);
    const int64_t max_m = 100;
    Rng rng(34);
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        for (int64_t k : {16, 64, 192, 300, 700}) {
            for (int64_t n : {33, 64, 128, 192, 256}) {
                const Tensor x = Tensor::randn({max_m, k}, rng);
                const Tensor w = Tensor::randn({k, n}, rng);
                const Tensor e = Tensor::randn({n, k}, rng);
                std::vector<Tensor> alone_nn, alone_nt;
                for (int64_t i = 0; i < max_m; ++i) {
                    const Tensor row = sliceRows(x, i, 1);
                    alone_nn.push_back(matmul(row, w));
                    alone_nt.push_back(matmulNT(row, e));
                }
                for (int64_t m : ms) {
                    const Tensor xm = sliceRows(x, 0, m);
                    const Tensor nn = matmul(xm, w);
                    const Tensor nt = matmulNT(xm, e);
                    for (int64_t i = 0; i < m; ++i) {
                        ASSERT_EQ(0, std::memcmp(nn.data() + i * n,
                                                 alone_nn[i].data(),
                                                 sizeof(float) * n))
                            << simd::tierName(t) << " matmul m=" << m
                            << " k=" << k << " n=" << n << " row " << i;
                        ASSERT_EQ(0, std::memcmp(nt.data() + i * n,
                                                 alone_nt[i].data(),
                                                 sizeof(float) * n))
                            << simd::tierName(t) << " matmulNT m=" << m
                            << " k=" << k << " n=" << n << " row " << i;
                    }
                }
            }
        }
    }
    simd::setTier(initial);
}

using test::sameBits;

TEST(MatmulTiers, TransposedOperandsBitwiseEqualExplicitTranspose)
{
    // Packing a transposed operand only moves data, so NT and TN
    // must equal the NN product of an explicitly transposed copy bit
    // for bit, at every tier and thread count. The sizes cut ragged
    // pack tiles and register tiles, k = 257/300 crosses the KC =
    // 256 block and n = 600 crosses the widest column block (512).
    // Multiples of the panel widths (16 on avx2, 32 on avx512 and
    // scalar) make the NN reference read B in place, in every column
    // block (n = 16..256) or in the first one only (n = 544).
    ASSERT_TRUE(kForceThreads);
    const simd::Tier initial = simd::tier();
    Rng rng(35);
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        for (bool serial : {true, false}) {
            for (int64_t n :
                 {1, 7, 8, 9, 16, 17, 32, 33, 64, 192, 256, 544, 600}) {
                for (int64_t k : {1, 15, 17, 257, 300}) {
                    for (int64_t m : {1, 13, 16, 57}) {
                        const Tensor a = Tensor::randn({m, k}, rng);
                        const Tensor bt = Tensor::randn({n, k}, rng);
                        const Tensor at = Tensor::randn({k, m}, rng);
                        const Tensor b = Tensor::randn({k, n}, rng);
                        const Tensor init = Tensor::randn({m, n}, rng);
                        std::optional<SerialRegion> region;
                        if (serial)
                            region.emplace();
                        const Tensor nt = matmulNT(a, bt);
                        const Tensor nt_ref = matmul(a, bt.transposed());
                        Tensor acc_nt = init;
                        matmulAccNT(acc_nt, a, bt);
                        Tensor acc_ref = init;
                        matmulAcc(acc_ref, a, bt.transposed());
                        const Tensor tn = matmulTN(at, b);
                        const Tensor tn_ref = matmul(at.transposed(), b);
                        const std::string where =
                            std::string(simd::tierName(t)) +
                            (serial ? " 1 thread" : " pool") +
                            " m=" + std::to_string(m) +
                            " k=" + std::to_string(k) +
                            " n=" + std::to_string(n);
                        ASSERT_TRUE(sameBits(nt, nt_ref))
                            << "matmulNT " << where;
                        ASSERT_TRUE(sameBits(acc_nt, acc_ref))
                            << "matmulAccNT " << where;
                        ASSERT_TRUE(sameBits(tn, tn_ref))
                            << "matmulTN " << where;
                    }
                }
            }
        }
    }
    simd::setTier(initial);
}

/**
 * A [rows x cols] view inside a wider row-major buffer: rows are ld
 * floats apart and start at column off. Every float of the buffer
 * outside the view holds @p pad.
 */
struct View
{
    std::vector<float> buf;
    int64_t rows, cols, ld, off;

    View(int64_t r, int64_t c, int64_t pad_cols, int64_t offset,
         float pad)
        : buf(static_cast<size_t>(r * (c + pad_cols)), pad), rows(r),
          cols(c), ld(c + pad_cols), off(offset)
    {}

    float *data() { return buf.data() + off; }

    void
    fill(const Tensor &src)
    {
        for (int64_t i = 0; i < rows; ++i)
            for (int64_t j = 0; j < cols; ++j)
                data()[i * ld + j] = src[i * cols + j];
    }

    Tensor
    packed()
    {
        Tensor out({rows, cols});
        for (int64_t i = 0; i < rows; ++i)
            for (int64_t j = 0; j < cols; ++j)
                out[i * cols + j] = data()[i * ld + j];
        return out;
    }
};

TEST(MatmulTiers, LeadingDimensionViewsBitwiseEqualCopies)
{
    // The strided core on views must give the bits of the same GEMM
    // on packed copies, read nothing outside the A and B views (their
    // pad columns hold NaN, which would poison any product it
    // reached) and write nothing outside the C view. k = 257/300
    // crosses the KC = 256 block, n = 600 crosses the widest column
    // block (512), and the odd widths leave ragged pack and register
    // tiles; every tier, pooled and serial. The panel-width
    // multiples (n = 16..544) put NN and TN on the path that reads B
    // in place: its NaN pad columns prove the kernels stay inside the
    // view there too.
    ASSERT_TRUE(kForceThreads);
    const simd::Tier initial = simd::tier();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float sentinel = -1234.5f;
    const Shape shapes[] = {
        {1, 1, 1},     {7, 300, 17}, {13, 17, 600},  {57, 257, 33},
        {5, 9, 513},   {33, 65, 7},  {7, 300, 16},   {13, 17, 32},
        {57, 257, 64}, {5, 9, 192},  {8, 300, 256},  {13, 33, 544}};
    Rng rng(36);
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        for (bool serial : {true, false}) {
            std::optional<SerialRegion> region;
            if (serial)
                region.emplace();
            for (const Shape &s : shapes) {
                for (int form = 0; form < 3; ++form) {
                    // NN, TN, NT.
                    const bool ta = form == 1;
                    const bool tb = form == 2;
                    const int64_t ar = ta ? s.k : s.m;
                    const int64_t ac = ta ? s.m : s.k;
                    const int64_t br = tb ? s.n : s.k;
                    const int64_t bc = tb ? s.k : s.n;
                    const Tensor a = Tensor::randn({ar, ac}, rng);
                    const Tensor b = Tensor::randn({br, bc}, rng);
                    const Tensor init =
                        Tensor::randn({s.m, s.n}, rng);
                    for (bool acc : {true, false}) {
                        View av(ar, ac, 5, 2, nan);
                        View bv(br, bc, 3, 1, nan);
                        View cv(s.m, s.n, 4, 3, sentinel);
                        av.fill(a);
                        bv.fill(b);
                        cv.fill(init);
                        gemmStrided(cv.data(), cv.ld, av.data(), av.ld,
                                    ta, bv.data(), bv.ld, tb, s.m, s.k,
                                    s.n, acc);

                        Tensor ref = init;
                        if (!acc)
                            gemmStrided(ref.data(), s.n, a.data(), ac,
                                        ta, b.data(), bc, tb, s.m, s.k,
                                        s.n, false);
                        else if (form == 0)
                            matmulAcc(ref, a, b);
                        else if (form == 1)
                            matmulAccTN(ref, a, b);
                        else
                            matmulAccNT(ref, a, b);

                        const std::string where =
                            std::string(simd::tierName(t)) +
                            (serial ? " 1 thread" : " pool") +
                            " form=" + std::to_string(form) +
                            " acc=" + std::to_string(acc) +
                            " m=" + std::to_string(s.m) +
                            " k=" + std::to_string(s.k) +
                            " n=" + std::to_string(s.n);
                        ASSERT_TRUE(sameBits(cv.packed(), ref))
                            << where;
                        // C's pad columns are untouched.
                        int64_t touched = 0;
                        for (int64_t i = 0; i < cv.rows; ++i)
                            for (int64_t j = 0; j < cv.ld; ++j) {
                                const int64_t col = j - cv.off;
                                if (col >= 0 && col < cv.cols)
                                    continue;
                                float got = cv.buf[i * cv.ld + j];
                                touched += std::memcmp(&got, &sentinel,
                                                       sizeof got) != 0;
                            }
                        ASSERT_EQ(touched, 0) << where;
                    }
                }
            }
        }
    }
    simd::setTier(initial);
}

TEST(Matmul, TransposedVariantsShareOneKernel)
{
    // TN/NT paths must not silently depend on transposed() copies:
    // cross-check TN against NT through the identity
    // (A^T B)^T = B^T A.
    Rng rng(17);
    Tensor a = Tensor::randn({70, 33}, rng);
    Tensor b = Tensor::randn({70, 45}, rng);
    Tensor tn = matmulTN(a, b);             // [33 x 45]
    Tensor nt = matmulNT(b.transposed(), a.transposed()); // [45 x 33]
    EXPECT_TRUE(tn.allClose(nt.transposed(), tolFor(70)));
}

TEST(MatmulTiers, WholePanelBDrawsNoPackScratch)
{
    // B stored [k x n] whose column blocks are whole panels is read in
    // place, so NN and TN draw no packed-B scratch from the ambient
    // workspace; a ragged width and a transposed B still draw one.
    // Every operand exists before the scope opens, so the workspace
    // sees the GEMMs' draws only.
    const simd::Tier initial = simd::tier();
    Rng rng(37);
    const Tensor a = Tensor::randn({8, 300}, rng);
    const Tensor at = Tensor::randn({300, 8}, rng);
    const Tensor b = Tensor::randn({300, 544}, rng);
    const Tensor b_ragged = Tensor::randn({300, 33}, rng);
    const Tensor bt = Tensor::randn({544, 300}, rng);
    Tensor c({8, 544});
    Tensor c_ragged({8, 33});
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        Workspace ws("gemm");
        WorkspaceScope scope(&ws);
        const auto draws = [&ws] {
            const WorkspaceStats st = ws.stats();
            return st.arenaHits + st.heapFallbacks;
        };
        // 544 = 512 + 32 is whole panels in every column block: the
        // vector tiers' 512 + 32 and scalar's 4 x 128 + 32.
        matmulAcc(c, a, b);
        matmulAccTN(c, at, b);
        EXPECT_EQ(draws(), 0) << simd::tierName(t);
        matmulAcc(c_ragged, a, b_ragged);
        EXPECT_EQ(draws(), 1) << simd::tierName(t);
        matmulAccNT(c, a, bt);
        EXPECT_EQ(draws(), 2) << simd::tierName(t);
    }
    simd::setTier(initial);
}

TEST(MatmulDeathTest, InPlaceBOverlappingCDies)
{
    // Read in place, B must not share storage with C: the panels
    // would read B while writing C. The check fires at every tier.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const simd::Tier initial = simd::tier();
    const int64_t m = 4, k = 8, n = 64;
    std::vector<float> buf(static_cast<size_t>(k * n + m * n), 1.0f);
    std::vector<float> a(static_cast<size_t>(m * k), 1.0f);
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        // C's first row starts inside B's last row.
        float *c = buf.data() + (k - 1) * n + n / 2;
        EXPECT_DEATH(gemmStrided(c, n, a.data(), k, false, buf.data(),
                                 n, false, m, k, n, true),
                     "assertion")
            << simd::tierName(t);
    }
    simd::setTier(initial);
}
