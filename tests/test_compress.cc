/**
 * @file
 * Tests for the compression stack: PowerSGD properties, distributed
 * PowerSGD reduction, top-k, quantizers, and the error-feedback
 * residual (its lazy-error-propagation use on BackwardChannel is
 * tested in test_channels.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "compress/error_feedback.hh"
#include "compress/powersgd.hh"
#include "compress/quantize.hh"
#include "compress/topk.hh"
#include "runtime/runtime.hh"
#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "util/random.hh"
#include "test_util.hh"

namespace optimus
{
namespace
{

Tensor
lowRankMatrix(int64_t rows, int64_t cols, int rank, Rng &rng)
{
    Tensor a = Tensor::randn({rows, rank}, rng);
    Tensor b = Tensor::randn({rank, cols}, rng);
    return matmul(a, b);
}

/** One error-fed message: fold, compress, update the residual. */
void
sendWithFeedback(ErrorFeedback &ef, Compressor &comp, const Tensor &m,
                 Tensor &out)
{
    comp.compress(ef.fold(m), out);
    ef.update(out);
}

/** Orthonormalize the columns of @p m through orthonormalizeRows on
 * its transpose. */
void
orthonormalizeColumnsViaRows(Tensor &m)
{
    Tensor t = m.transposed();
    orthonormalizeRows(t);
    m = t.transposed();
}

TEST(Orthonormalize, ColumnsAreOrthonormal)
{
    Rng rng(1);
    Tensor m = Tensor::randn({12, 4}, rng);
    orthonormalizeColumnsViaRows(m);
    for (int64_t a = 0; a < 4; ++a) {
        for (int64_t b = 0; b < 4; ++b) {
            double dot_val = 0.0;
            for (int64_t i = 0; i < 12; ++i)
                dot_val += static_cast<double>(m.at(i, a)) * m.at(i, b);
            EXPECT_NEAR(dot_val, a == b ? 1.0 : 0.0, 1e-5);
        }
    }
}

TEST(Orthonormalize, DegenerateColumnsBecomeZero)
{
    Rng rng(2);
    Tensor m({6, 3});
    // Columns 1 and 2 duplicate column 0.
    for (int64_t i = 0; i < 6; ++i) {
        const float v = static_cast<float>(rng.normal());
        m.at(i, 0) = v;
        m.at(i, 1) = v;
        m.at(i, 2) = 2.0f * v;
    }
    orthonormalizeColumnsViaRows(m);
    for (int64_t i = 0; i < 6; ++i) {
        EXPECT_FLOAT_EQ(m.at(i, 1), 0.0f);
        EXPECT_FLOAT_EQ(m.at(i, 2), 0.0f);
    }
}

TEST(PowerSgd, ExactlyRecoversMatrixOfMatchingRank)
{
    Rng rng(3);
    Tensor m = lowRankMatrix(20, 16, 3, rng);
    PowerSgdCompressor comp(3, 7);
    Tensor out;
    // Warm-started power iteration converges over a few repeats of
    // the same matrix.
    for (int i = 0; i < 12; ++i)
        comp.compress(m, out);
    EXPECT_LT(sub(m, out).norm() / m.norm(), 1e-2);
}

TEST(PowerSgd, FullRankIsNearLossless)
{
    Rng rng(4);
    Tensor m = Tensor::randn({8, 8}, rng);
    PowerSgdCompressor comp(8, 7);
    Tensor out;
    for (int i = 0; i < 30; ++i)
        comp.compress(m, out);
    EXPECT_LT(sub(m, out).norm() / m.norm(), 0.05);
}

TEST(PowerSgd, PayloadBytesMatchFormula)
{
    PowerSgdCompressor comp(16, 1);
    EXPECT_EQ(comp.payloadBytes(100, 40), 4 * 16 * (100 + 40));
    // Rank clamps to min(rows, cols).
    EXPECT_EQ(comp.payloadBytes(8, 40), 4 * 8 * (8 + 40));
}

TEST(PowerSgd, CompressionReducesPayload)
{
    Rng rng(5);
    Tensor m = Tensor::randn({64, 64}, rng);
    PowerSgdCompressor comp(4, 7);
    Tensor out;
    const int64_t bytes = comp.compress(m, out);
    EXPECT_EQ(bytes, 4 * 4 * (64 + 64));
    EXPECT_LT(bytes, 4 * 64 * 64);
    EXPECT_EQ(out.rows(), 64);
    EXPECT_EQ(out.cols(), 64);
}

TEST(PowerSgd, ApproximationErrorDecreasesWithRank)
{
    Rng rng(6);
    Tensor m = Tensor::randn({32, 32}, rng);
    double prev_err = 1e9;
    for (int rank : {1, 4, 16, 32}) {
        PowerSgdCompressor comp(rank, 7);
        Tensor out;
        for (int i = 0; i < 8; ++i)
            comp.compress(m, out);
        const double err = sub(m, out).norm() / m.norm();
        EXPECT_LT(err, prev_err + 1e-9) << "rank " << rank;
        prev_err = err;
    }
}

TEST(DistributedPowerSgd, AllWorkersSeeSameMeanApproximation)
{
    Rng rng(7);
    const int workers = 4;
    std::vector<Tensor> grads;
    std::vector<const Tensor *> inputs;
    for (int d = 0; d < workers; ++d)
        grads.push_back(lowRankMatrix(16, 12, 2, rng));
    for (const auto &g : grads)
        inputs.push_back(&g);

    DistributedPowerSgd dps(workers, 4, 9);
    Tensor mean_out;
    for (int i = 0; i < 10; ++i)
        dps.reduce(inputs, mean_out);

    Tensor true_mean({16, 12});
    for (const auto &g : grads)
        true_mean.add(g);
    true_mean.scale(1.0f / workers);

    // Rank 4 >= sum of ranks is not guaranteed, but the mean of
    // four rank-2 matrices has rank <= 8; with rank 4 we only check
    // a sane approximation plus the exactness of the rank-8 case.
    EXPECT_LT(sub(true_mean, mean_out).norm() / true_mean.norm(),
              0.8);

    DistributedPowerSgd dps8(workers, 8, 9);
    Tensor mean_out8;
    for (int i = 0; i < 20; ++i)
        dps8.reduce(inputs, mean_out8);
    EXPECT_LT(sub(true_mean, mean_out8).norm() / true_mean.norm(),
              0.05);
}

TEST(TopK, KeepsLargestMagnitudes)
{
    Tensor m = Tensor::fromValues(
        {2, 4}, {0.1f, -5.0f, 0.2f, 3.0f, -0.3f, 0.05f, 4.0f, -1.0f});
    TopKCompressor comp(0.5); // keep 4 of 8
    Tensor out;
    comp.compress(m, out);
    EXPECT_FLOAT_EQ(out[1], -5.0f);
    EXPECT_FLOAT_EQ(out[3], 3.0f);
    EXPECT_FLOAT_EQ(out[6], 4.0f);
    EXPECT_FLOAT_EQ(out[7], -1.0f);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[2], 0.0f);
    EXPECT_FLOAT_EQ(out[4], 0.0f);
    EXPECT_FLOAT_EQ(out[5], 0.0f);
}

TEST(TopK, PayloadScalesWithFraction)
{
    TopKCompressor comp(0.25);
    EXPECT_EQ(comp.keptCount(100), 25);
    EXPECT_EQ(comp.payloadBytes(10, 10), 25 * 8);
    // At least one element always survives.
    EXPECT_EQ(comp.keptCount(2), 1);
}

TEST(Ternary, OutputsAreTernaryAndUnbiased)
{
    Rng rng(8);
    Tensor m = Tensor::randn({40, 40}, rng);
    TernaryCompressor comp(11);
    Tensor out;
    comp.compress(m, out);

    const float scale = m.maxAbs();
    for (int64_t i = 0; i < out.size(); ++i) {
        const float v = out[i];
        EXPECT_TRUE(v == 0.0f || std::fabs(std::fabs(v) - scale) <
                                     1e-6f);
    }
    // Unbiasedness: E[out] == m elementwise; averaging many
    // independent compressions of the same tensor must converge to
    // it.
    Tensor avg({40, 40});
    const int reps = 64;
    for (int r = 0; r < reps; ++r) {
        Tensor o;
        comp.compress(m, o);
        avg.add(o);
    }
    avg.scale(1.0f / reps);
    Tensor err = sub(m, avg);
    EXPECT_NEAR(err.sum() / err.size(), 0.0, 0.03);
}

TEST(OneBit, ReconstructsSignWithTwoScales)
{
    Rng rng(9);
    Tensor m = Tensor::randn({30, 30}, rng);
    OneBitCompressor comp;
    Tensor out;
    comp.compress(m, out);
    float pos = 0.0f, neg = 0.0f;
    for (int64_t i = 0; i < m.size(); ++i) {
        if (m[i] >= 0.0f) {
            EXPECT_GE(out[i], 0.0f);
            pos = out[i];
        } else {
            EXPECT_LE(out[i], 0.0f);
            neg = out[i];
        }
    }
    EXPECT_GT(pos, 0.0f);
    EXPECT_LT(neg, 0.0f);
    EXPECT_EQ(comp.payloadBytes(30, 30), (900 + 7) / 8 + 8);
}

TEST(ErrorFeedback, ResidualIsExactCompressionError)
{
    Rng rng(10);
    Tensor m = Tensor::randn({16, 16}, rng);
    ErrorFeedback ef;
    PowerSgdCompressor comp(2, 5);
    Tensor out;
    sendWithFeedback(ef, comp, m, out);
    Tensor expect_residual = m;
    expect_residual.sub(out);
    EXPECT_TRUE(ef.residual().allClose(expect_residual, 1e-5f));
}

TEST(ErrorFeedback, TelescopesAcrossSteps)
{
    // sum of delivered messages + final residual == sum of inputs.
    Rng rng(11);
    ErrorFeedback ef;
    PowerSgdCompressor comp(2, 5);
    Tensor delivered_sum({12, 12});
    Tensor input_sum({12, 12});
    Tensor out;
    for (int step = 0; step < 6; ++step) {
        Tensor m = Tensor::randn({12, 12}, rng);
        input_sum.add(m);
        sendWithFeedback(ef, comp, m, out);
        delivered_sum.add(out);
    }
    Tensor lhs = delivered_sum;
    lhs.add(ef.residual());
    EXPECT_TRUE(lhs.allClose(input_sum, 1e-3f));
}

TEST(ErrorFeedback, PresizedResidualFoldsZerosAndClearDropsIt)
{
    Rng rng(12);
    ErrorFeedback ef({6, 4});
    ASSERT_EQ(ef.residual().size(), 24);
    EXPECT_EQ(ef.residual().norm(), 0.0);
    Tensor m = Tensor::randn({6, 4}, rng);
    EXPECT_TRUE(ef.fold(m).allClose(m, 0.0f));

    ef.update(Tensor({6, 4}));
    EXPECT_TRUE(ef.residual().allClose(m, 0.0f));
    ef.clear();
    EXPECT_EQ(ef.residual().size(), 0);
    EXPECT_TRUE(ef.fold(m).allClose(m, 0.0f));
}

TEST(ErrorFeedback, FoldsInPlaceAndClearKeepsStorage)
{
    // The fed message is the residual's own storage, and an exact
    // delivery's clear() keeps that storage for the next fold, so a
    // stream's steady state never reallocates.
    Rng rng(13);
    ErrorFeedback ef({5, 3});
    const float *storage = ef.residual().data();
    const Tensor m = Tensor::randn({5, 3}, rng);
    const Tensor &fed = ef.fold(m);
    EXPECT_EQ(fed.data(), storage);
    ef.update(Tensor({5, 3}));
    EXPECT_EQ(ef.residual().data(), storage);
    ef.clear();
    EXPECT_EQ(ef.fold(m).data(), storage);
}

TEST(CompressorFactory, BuildsEveryKind)
{
    for (auto kind :
         {CompressorKind::None, CompressorKind::PowerSgd,
          CompressorKind::TopK, CompressorKind::Ternary,
          CompressorKind::OneBit}) {
        CompressorSpec spec;
        spec.kind = kind;
        auto comp = makeCompressor(spec);
        ASSERT_NE(comp, nullptr);
        Rng rng(15);
        Tensor m = Tensor::randn({8, 8}, rng);
        Tensor out;
        const int64_t bytes = comp->compress(m, out);
        EXPECT_GT(bytes, 0);
        EXPECT_EQ(out.size(), m.size());
    }
}

TEST(CompressorFactory, IdentityIsLossless)
{
    IdentityCompressor id;
    Rng rng(16);
    Tensor m = Tensor::randn({6, 6}, rng);
    Tensor out;
    const int64_t bytes = id.compress(m, out);
    EXPECT_TRUE(out.allClose(m, 0.0f));
    EXPECT_EQ(bytes, 4 * 36);
}

// Parameterized property sweep: for every compressor kind, error
// feedback telescopes and payloads are smaller than raw.
class CompressorProperty
    : public ::testing::TestWithParam<CompressorKind>
{
};

TEST_P(CompressorProperty, ErrorFeedbackTelescopes)
{
    CompressorSpec spec;
    spec.kind = GetParam();
    spec.rank = 2;
    spec.topkFraction = 0.1;
    auto comp = makeCompressor(spec);
    ErrorFeedback ef;

    Rng rng(17);
    Tensor delivered_sum({10, 10});
    Tensor input_sum({10, 10});
    Tensor out;
    for (int step = 0; step < 5; ++step) {
        Tensor m = Tensor::randn({10, 10}, rng);
        input_sum.add(m);
        sendWithFeedback(ef, *comp, m, out);
        delivered_sum.add(out);
    }
    Tensor lhs = delivered_sum;
    lhs.add(ef.residual());
    EXPECT_TRUE(lhs.allClose(input_sum, 1e-3f));
}

TEST_P(CompressorProperty, PayloadNotLargerThanRaw)
{
    CompressorSpec spec;
    spec.kind = GetParam();
    spec.rank = 2;
    spec.topkFraction = 0.1;
    auto comp = makeCompressor(spec);
    EXPECT_LE(comp->payloadBytes(64, 64), 4 * 64 * 64);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CompressorProperty,
    ::testing::Values(CompressorKind::PowerSgd, CompressorKind::TopK,
                      CompressorKind::Ternary,
                      CompressorKind::OneBit));

// --------------------------------------------------------------------
// Edge cases: degenerate shapes and mid-stream reconfiguration must
// fail cleanly (clamp, skip, or reset) rather than hit UB. The
// ASan/UBSan and TSan CI jobs run these with bounds checking on.
// --------------------------------------------------------------------

TEST(PowerSgdEdge, RankLargerThanBothDimsClampsCleanly)
{
    Rng rng(20);
    Tensor m = Tensor::randn({4, 6}, rng);
    PowerSgdCompressor comp(/*rank=*/16, 3);
    Tensor out;
    const int64_t bytes = comp.compress(m, out);
    // Effective rank clamps to min(rows, cols) = 4.
    EXPECT_EQ(bytes, 4 * 4 * (4 + 6));
    EXPECT_EQ(comp.payloadBytes(4, 6), 4 * 4 * (4 + 6));
    EXPECT_EQ(out.rows(), 4);
    EXPECT_EQ(out.cols(), 6);
    // At clamped-full rank the warm-started iteration converges to
    // an (almost) exact reconstruction.
    for (int i = 0; i < 30; ++i)
        comp.compress(m, out);
    EXPECT_LT(sub(m, out).norm() / m.norm(), 0.05);
}

TEST(PowerSgdEdge, DistributedRankClampsToDims)
{
    Rng rng(21);
    const int workers = 2;
    std::vector<Tensor> grads;
    for (int d = 0; d < workers; ++d)
        grads.push_back(Tensor::randn({3, 10}, rng));
    std::vector<const Tensor *> inputs;
    for (const auto &g : grads)
        inputs.push_back(&g);
    DistributedPowerSgd dps(workers, /*rank=*/64, 5);
    Tensor mean_out;
    const int64_t bytes = dps.reduce(inputs, mean_out);
    EXPECT_EQ(bytes, 4 * 3 * (3 + 10));
    EXPECT_EQ(mean_out.rows(), 3);
    EXPECT_EQ(mean_out.cols(), 10);
}

TEST(TopKEdge, EmptyTensorKeepsNothing)
{
    TopKCompressor comp(0.5);
    // k clamps to 0 when there is nothing to keep.
    EXPECT_EQ(comp.keptCount(0), 0);
    Tensor empty = Tensor::zeros(0);
    Tensor out;
    const int64_t bytes = comp.compress(empty, out);
    EXPECT_EQ(bytes, 0);
    EXPECT_EQ(out.size(), 0);

    Tensor empty2d = Tensor::zeros(0, 5);
    const int64_t bytes2d = comp.compress(empty2d, out);
    EXPECT_EQ(bytes2d, 0);
    EXPECT_EQ(out.size(), 0);
    EXPECT_EQ(out.rows(), 0);
    EXPECT_EQ(out.cols(), 5);
}

TEST(TopKEdge, KeepAllFastPathIsExact)
{
    Rng rng(22);
    Tensor m = Tensor::randn({6, 9}, rng);
    TopKCompressor comp(1.0); // k == n: selection must be skipped
    Tensor out;
    const int64_t bytes = comp.compress(m, out);
    EXPECT_TRUE(out.allClose(m, 0.0f));
    EXPECT_EQ(bytes, m.size() * 8);
}

TEST(TopKEdge, TinyFractionKeepsAtLeastOne)
{
    Tensor m = Tensor::fromValues({1, 4}, {0.1f, -9.0f, 0.2f, 0.3f});
    TopKCompressor comp(1e-9);
    EXPECT_EQ(comp.keptCount(4), 1);
    Tensor out;
    comp.compress(m, out);
    EXPECT_FLOAT_EQ(out[1], -9.0f);
    EXPECT_FLOAT_EQ(out[0] + out[2] + out[3], 0.0f);
}

TEST(ErrorFeedbackEdge, ShapeChangeDropsStaleResidual)
{
    Rng rng(23);
    ErrorFeedback ef;
    PowerSgdCompressor comp(2, 5);
    Tensor g1 = Tensor::randn({8, 8}, rng);
    Tensor out;
    sendWithFeedback(ef, comp, g1, out);
    ASSERT_EQ(ef.residual().rows(), 8);

    // Same element count, different shape: the stale residual must
    // not be folded into the new stream.
    Tensor g2 = Tensor::randn({4, 16}, rng);
    const Tensor &fed = ef.fold(g2);
    EXPECT_TRUE(fed.allClose(g2, 0.0f));
    EXPECT_EQ(ef.residual().size(), 0);
    comp.compress(fed, out);
    ef.update(out);
    Tensor fresh = g2;
    fresh.sub(out);
    EXPECT_EQ(ef.residual().rows(), 4);
    EXPECT_EQ(ef.residual().cols(), 16);
    EXPECT_TRUE(ef.residual().allClose(fresh, 1e-5f));

    // Different element count as well: still clean.
    Tensor g3 = Tensor::randn({3, 5}, rng);
    sendWithFeedback(ef, comp, g3, out);
    EXPECT_EQ(out.rows(), 3);
    EXPECT_EQ(out.cols(), 5);
}

// ---------------------------------------------------------------
// SIMD dispatch tiers: tail sizes and the per-tier determinism
// contract for the compression hot paths (DESIGN.md section 8).
// ---------------------------------------------------------------

using test::supportedTiers;

/** Sizes that divide no vector width: lane-count stragglers (63,
 * 65), degenerate 1/2, and primes past one block. */
const int64_t kTailSizes[] = {1, 2, 63, 64, 65, 127, 1031};

/**
 * The pre-dispatch Gram-Schmidt, verbatim: strided column walks
 * with chunked double partial sums combined in chunk order. The
 * Scalar tier of orthonormalizeRows, run on the transpose, must
 * reproduce this bitwise — its contiguous row walks are these exact
 * loops, element for element.
 */
void
referenceOrthonormalize(Tensor &m)
{
    constexpr int64_t kGrain = 2048;
    const int64_t rows = m.rows();
    const int64_t cols = m.cols();
    float *data = m.data();

    auto colDot = [&](int64_t ja, int64_t jb) {
        return parallelReduceSum(
            0, rows, kGrain, 1, [&](int64_t lo, int64_t hi) {
                double s = 0.0;
                for (int64_t i = lo; i < hi; ++i)
                    s += static_cast<double>(data[i * cols + ja]) *
                         data[i * cols + jb];
                return s;
            });
    };

    for (int64_t j = 0; j < cols; ++j) {
        const double norm_before_sq = colDot(j, j);
        for (int64_t p = 0; p < j; ++p) {
            const double proj = colDot(j, p);
            parallelFor(0, rows, kGrain,
                        [&](int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i)
                                data[i * cols + j] -=
                                    static_cast<float>(proj) *
                                    data[i * cols + p];
                        });
        }
        const double norm_sq = colDot(j, j);
        const double norm = std::sqrt(norm_sq);
        if (norm < 1e-8 || norm_sq < 1e-10 * norm_before_sq) {
            parallelFor(0, rows, kGrain,
                        [&](int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i)
                                data[i * cols + j] = 0.0f;
                        });
        } else {
            const float inv = static_cast<float>(1.0 / norm);
            parallelFor(0, rows, kGrain,
                        [&](int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i)
                                data[i * cols + j] *= inv;
                        });
        }
    }
}

TEST(SimdTiers, ScalarOrthonormalizeBitExactWithPreDispatchCode)
{
    const simd::Tier initial = simd::tier();
    simd::setTier(simd::Tier::Scalar);
    Rng rng(30);
    const std::pair<int64_t, int64_t> shapes[] = {
        {12, 4}, {2048 + 37, 6}, {63, 3}, {1, 2}};
    for (const auto &s : shapes) {
        Tensor a = Tensor::randn({s.first, s.second}, rng);
        Tensor b = a;
        orthonormalizeColumnsViaRows(a);
        referenceOrthonormalize(b);
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 sizeof(float) * a.size()))
            << s.first << "x" << s.second;
    }
    simd::setTier(initial);
}

TEST(SimdTiers, TernaryBitExactAcrossTiersOnTailSizes)
{
    // The ternary quantizer draws its RNG per element in index
    // order and compares against an IEEE division that is lane-
    // exact in every tier, so its output is bitwise identical
    // across tiers — not merely close.
    const simd::Tier initial = simd::tier();
    Rng rng(31);
    for (int64_t n : kTailSizes) {
        Tensor src = Tensor::randn({n}, rng);
        Tensor want;
        simd::setTier(simd::Tier::Scalar);
        TernaryCompressor scalar_q(7);
        scalar_q.compress(src, want);
        for (simd::Tier t : supportedTiers()) {
            simd::setTier(t);
            TernaryCompressor q(7);
            Tensor got;
            q.compress(src, got);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                     sizeof(float) * want.size()))
                << simd::tierName(t) << " n=" << n;
        }
    }
    simd::setTier(initial);
}

TEST(SimdTiers, OneBitMatchesScalarOnTailSizes)
{
    const simd::Tier initial = simd::tier();
    Rng rng(32);
    for (int64_t n : kTailSizes) {
        Tensor src = Tensor::randn({n}, rng);
        Tensor want;
        simd::setTier(simd::Tier::Scalar);
        OneBitCompressor scalar_q;
        scalar_q.compress(src, want);
        for (simd::Tier t : supportedTiers()) {
            simd::setTier(t);
            OneBitCompressor q;
            Tensor got;
            q.compress(src, got);
            ASSERT_EQ(got.size(), want.size());
            // The two scales come from vector-width-dependent sums
            // (close, not bitwise); the sign pattern is exact.
            EXPECT_TRUE(got.allClose(want, 1e-5f))
                << simd::tierName(t) << " n=" << n;
            for (int64_t i = 0; i < n; ++i)
                EXPECT_EQ(std::signbit(got.data()[i]),
                          std::signbit(want.data()[i]))
                    << simd::tierName(t) << " n=" << n << " i=" << i;
        }
    }
    simd::setTier(initial);
}

TEST(SimdTiers, TopKMatchesScalarOnTailSizes)
{
    // Gaussian draws have distinct magnitudes, so the kept set is
    // unique and every tier must reproduce the Scalar output
    // bitwise (kept values are copies of the input, never
    // recomputed).
    const simd::Tier initial = simd::tier();
    Rng rng(33);
    for (int64_t n : kTailSizes) {
        Tensor src = Tensor::randn({n}, rng);
        for (double fraction : {0.01, 0.3, 1.0}) {
            Tensor want;
            simd::setTier(simd::Tier::Scalar);
            TopKCompressor scalar_k(fraction);
            scalar_k.compress(src, want);
            for (simd::Tier t : supportedTiers()) {
                simd::setTier(t);
                TopKCompressor topk(fraction);
                Tensor got;
                topk.compress(src, got);
                ASSERT_EQ(got.size(), want.size());
                EXPECT_EQ(0,
                          std::memcmp(got.data(), want.data(),
                                      sizeof(float) * want.size()))
                    << simd::tierName(t) << " n=" << n
                    << " fraction=" << fraction;
            }
        }
    }
    simd::setTier(initial);
}

TEST(SimdTiers, OrthonormalizePerTierDeterministicAndClose)
{
    // Per-tier contract on the Gram-Schmidt path: bitwise identical
    // pooled vs forced-serial within a tier, tolerance-close to
    // Scalar across tiers.
    const simd::Tier initial = simd::tier();
    Rng rng(34);
    Tensor base = Tensor::randn({2048 + 63, 5}, rng);

    std::vector<Tensor> per_tier;
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        Tensor pooled = base;
        orthonormalizeColumnsViaRows(pooled);
        Tensor serial_copy = base;
        {
            SerialRegion serial;
            orthonormalizeColumnsViaRows(serial_copy);
        }
        EXPECT_EQ(0, std::memcmp(pooled.data(), serial_copy.data(),
                                 sizeof(float) * pooled.size()))
            << simd::tierName(t);
        per_tier.push_back(pooled);
    }
    for (size_t i = 1; i < per_tier.size(); ++i)
        EXPECT_TRUE(per_tier[i].allClose(per_tier[0], 1e-4f));
    simd::setTier(initial);
}

// ---------------------------------------------------------------
// PowerSGD factor layout: the row-major factors (P^T, Q^T) must
// reproduce the column-layout power iteration bit for bit.
// ---------------------------------------------------------------

/**
 * Gram-Schmidt over the columns of a row-major matrix, as the
 * column layout ran it: each column gathered into a contiguous copy,
 * walked with the contiguous simd:: kernels over fixed 2048-element
 * chunks, and scattered back.
 */
void
gatheredOrthonormalizeColumns(Tensor &m)
{
    constexpr int64_t kGrain = 2048;
    const int64_t rows = m.rows();
    const int64_t cols = m.cols();
    const simd::Tier tier = simd::tier();
    std::vector<std::vector<float>> col(
        static_cast<size_t>(cols), std::vector<float>(rows));
    for (int64_t j = 0; j < cols; ++j)
        for (int64_t i = 0; i < rows; ++i)
            col[j][i] = m.at(i, j);

    auto dot = [&](const float *x, const float *y) {
        return parallelReduceSum(
            0, rows, kGrain, 1, [&](int64_t lo, int64_t hi) {
                return simd::dotDouble(tier, x + lo, y + lo, hi - lo);
            });
    };
    for (int64_t j = 0; j < cols; ++j) {
        float *cj = col[j].data();
        const double norm_before_sq = dot(cj, cj);
        for (int64_t p = 0; p < j; ++p) {
            const float *cp = col[p].data();
            const double proj = dot(cj, cp);
            parallelFor(0, rows, kGrain, [&](int64_t lo, int64_t hi) {
                simd::subScaled(tier, cj + lo, cp + lo,
                                static_cast<float>(proj), hi - lo);
            });
        }
        const double norm_sq = dot(cj, cj);
        const double norm = std::sqrt(norm_sq);
        if (norm < 1e-8 || norm_sq < 1e-10 * norm_before_sq) {
            std::fill(col[j].begin(), col[j].end(), 0.0f);
        } else {
            const float inv = static_cast<float>(1.0 / norm);
            parallelFor(0, rows, kGrain, [&](int64_t lo, int64_t hi) {
                simd::scaleInPlace(tier, cj + lo, inv, hi - lo);
            });
        }
    }
    for (int64_t j = 0; j < cols; ++j)
        for (int64_t i = 0; i < rows; ++i)
            m.at(i, j) = col[j][i];
}

/**
 * The column-layout power iteration: P [rows x r] and Q [cols x r],
 * P = sum_d M_d * Q, Q = (1/D) sum_d M_d^T * P_hat and
 * mean = P_hat * Q^T, in the GEMM forms matmulAcc, matmulAccTN and
 * matmulAccNT, with the warm Q drawn [cols x r].
 */
class ColumnPowerSgdOracle
{
  public:
    ColumnPowerSgdOracle(int workers, int rank, uint64_t seed)
        : workers_(workers), rank_(rank), rng_(seed)
    {
    }

    int64_t reduceColumnLayout(const std::vector<const Tensor *> &inputs,
                               Tensor &mean)
    {
        const int64_t rows = inputs[0]->rows();
        const int64_t cols = inputs[0]->cols();
        const int r = static_cast<int>(
            std::min<int64_t>(rank_, std::min(rows, cols)));
        if (!(q_.rank() == 2 && q_.rows() == cols && q_.cols() == r)) {
            q_ = Tensor::randn({cols, r}, rng_);
            gatheredOrthonormalizeColumns(q_);
        }
        Tensor p({rows, r});
        for (const Tensor *t : inputs)
            matmulAcc(p, *t, q_);
        gatheredOrthonormalizeColumns(p);
        Tensor q({cols, r});
        for (const Tensor *t : inputs)
            matmulAccTN(q, *t, p);
        q.scale(1.0f / static_cast<float>(workers_));
        q_ = q;
        mean = Tensor({rows, cols});
        matmulAccNT(mean, p, q_);
        return static_cast<int64_t>(sizeof(float)) * r * (rows + cols);
    }

    /** The warm-start Q [cols x r]. */
    const Tensor &q() const { return q_; }

  private:
    int workers_;
    int rank_;
    Rng rng_;
    Tensor q_;
};

using test::sameBits;

TEST(PowerSgdLayout, RowMajorFactorsBitwiseMatchColumnLayout)
{
    // DistributedPowerSgd::reduce and PowerSgdCompressor::compress
    // (the D = 1 iteration) against the column-layout oracle: the
    // output, the payload bytes and the warm Q after each of three
    // warm-started calls, at every tier, pooled and serial.
    const simd::Tier initial = simd::tier();
    const std::pair<int64_t, int64_t> shapes[] = {
        {1, 2}, {16, 64}, {64, 256}, {256, 64}, {2085, 6}};
    auto sweep = [&](const char *mode) {
        for (int workers : {1, 2, 4}) {
            // 300 exceeds min(rows, cols) of every shape.
            for (int rank : {4, 300}) {
                for (const auto &[rows, cols] : shapes) {
                    const std::string where =
                        std::string(simd::tierName(simd::tier())) +
                        " " + mode + " D=" + std::to_string(workers) +
                        " rank=" + std::to_string(rank) + " " +
                        std::to_string(rows) + "x" +
                        std::to_string(cols);
                    DistributedPowerSgd dps(workers, rank, 9);
                    ColumnPowerSgdOracle oracle(workers, rank, 9);
                    PowerSgdCompressor comp(rank, 9);
                    Rng rng(static_cast<uint64_t>(rows * 131 + cols));
                    for (int call = 0; call < 3; ++call) {
                        std::vector<Tensor> grads;
                        std::vector<const Tensor *> inputs;
                        for (int d = 0; d < workers; ++d)
                            grads.push_back(
                                Tensor::randn({rows, cols}, rng));
                        for (const Tensor &g : grads)
                            inputs.push_back(&g);
                        Tensor want, got;
                        const int64_t want_bytes =
                            oracle.reduceColumnLayout(inputs, want);
                        EXPECT_EQ(dps.reduce(inputs, got), want_bytes)
                            << where;
                        EXPECT_TRUE(sameBits(got, want))
                            << where << " call " << call;
                        EXPECT_TRUE(sameBits(dps.warmQ().transposed(),
                                             oracle.q()))
                            << where << " call " << call;
                        if (workers != 1)
                            continue;
                        Tensor single;
                        EXPECT_EQ(comp.compress(grads[0], single),
                                  want_bytes)
                            << where;
                        EXPECT_TRUE(sameBits(single, want))
                            << where << " call " << call;
                        EXPECT_TRUE(sameBits(comp.warmQ().transposed(),
                                             oracle.q()))
                            << where << " call " << call;
                    }
                }
            }
        }
    };
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        sweep("pooled");
        SerialRegion serial;
        sweep("serial");
    }
    simd::setTier(initial);
}

} // namespace
} // namespace optimus
