/**
 * @file
 * Tests for the runtime SIMD dispatch layer (src/tensor/simd.hh):
 * OPTIMUS_SIMD parsing and tier selection, and the per-tier
 * determinism contract on a full Trainer3d run — for every tier the
 * CPU supports, 5 iterations are bitwise reproducible (mirroring
 * the CommTrace/obs neutrality gates), bitwise invariant to the
 * thread count, and within documented tolerance of the Scalar
 * tier; the two vector tiers are bitwise equal to each other, on
 * every kernel and on the trainer. The element-wise kernels carry
 * their own contracts: GELU within a stated bound of the Scalar
 * form, Adam bitwise equal to the historical loop at every tier,
 * the attention row kernels bitwise equal to the per-row loops
 * they replace, and the layer kernels (residual add/sub, the Linear
 * bias passes, LayerNorm, the in-process all-reduce) bitwise equal to
 * the loops they replace at every tier.
 * Run at OPTIMUS_THREADS in {1, 4, 8} plus an OPTIMUS_SIMD=scalar
 * leg via tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "nn/activation.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"
#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "util/random.hh"
#include "test_util.hh"

namespace optimus
{
namespace
{

// Force a multi-threaded pool before its lazy construction so the
// determinism tests actually exercise pooled execution (the ctest
// re-registrations override this with an explicit value).
const bool kForceThreads = [] {
    ::setenv("OPTIMUS_THREADS", "4", 0);
    return true;
}();

using test::supportedTiers;

GptConfig
tinyModel()
{
    GptConfig config;
    config.vocab = 24;
    config.hidden = 16;
    config.layers = 4;
    config.heads = 2;
    config.seqLen = 8;
    config.seed = 77;
    return config;
}

LmDataset
tinyData(int64_t seq_len)
{
    CorpusConfig cc;
    cc.vocab = 24;
    cc.totalTokens = 6000;
    cc.seed = 5;
    SyntheticCorpus corpus(cc);
    return {corpus.train(), seq_len};
}

/** Fully-compressed tiny grid on the overlapped engine path — the
 * configuration that runs every SIMD-dispatched kernel (GEMM,
 * PowerSGD Gram-Schmidt, the quantizers behind the compressors). */
Trainer3dConfig
tinyConfig()
{
    Trainer3dConfig config;
    config.model = tinyModel();
    config.dataParallel = 2;
    config.pipelineStages = 2;
    config.microBatches = 2;
    config.microBatchSize = 2;
    config.learningRate = 1e-3f;
    config.bucketBytes = 2048;
    config.cb.enabled = true;
    config.dp.enabled = true;
    config.dp.stageFraction = 0.75;
    config.fusedEmbeddingSync = true;
    return config;
}

/** Exact float mismatch count across two trainers' parameters. */
int64_t
bitwiseMismatch(Trainer3d &a, Trainer3d &b)
{
    int64_t mismatches = 0;
    for (int d = 0; d < a.config().dataParallel; ++d) {
        for (int p = 0; p < a.config().pipelineStages; ++p) {
            const auto pa = a.stage(d, p).params();
            const auto pb = b.stage(d, p).params();
            EXPECT_EQ(pa.size(), pb.size());
            for (size_t j = 0; j < pa.size(); ++j) {
                const Tensor &ta = pa[j]->value;
                const Tensor &tb = pb[j]->value;
                EXPECT_EQ(ta.size(), tb.size());
                for (int64_t i = 0; i < ta.size(); ++i) {
                    if (std::memcmp(&ta.data()[i], &tb.data()[i],
                                    sizeof(float)) != 0)
                        ++mismatches;
                }
            }
        }
    }
    return mismatches;
}

/** 5 tiny iterations under the active tier; returns the last loss. */
double
trainLosses(Trainer3d &trainer, const LmDataset &data, Rng &rng,
            double *per_iter = nullptr)
{
    double loss = 0.0;
    for (int it = 0; it < 5; ++it) {
        loss = trainer.trainIteration(data, rng).loss;
        if (per_iter != nullptr)
            per_iter[it] = loss;
    }
    return loss;
}

// Runs first: later tests overwrite the active tier via setTier,
// so the environment-resolution check must come before them.
TEST(SimdDispatch, EnvOverrideResolvesActiveTier)
{
    const char *env = std::getenv("OPTIMUS_SIMD");
    simd::Tier want;
    if (env != nullptr && *env != '\0' &&
        simd::parseTier(env, want) && simd::supported(want)) {
        EXPECT_EQ(simd::tier(), want) << "OPTIMUS_SIMD=" << env;
    } else {
        // Unset, unknown, or unsupported spellings resolve to the
        // widest supported tier.
        EXPECT_EQ(simd::tier(), simd::cap());
    }
}

TEST(SimdDispatch, ParseTierSpellings)
{
    simd::Tier t;
    EXPECT_TRUE(simd::parseTier("scalar", t));
    EXPECT_EQ(t, simd::Tier::Scalar);
    EXPECT_TRUE(simd::parseTier("avx2", t));
    EXPECT_EQ(t, simd::Tier::Avx2);
    EXPECT_TRUE(simd::parseTier("avx512", t));
    EXPECT_EQ(t, simd::Tier::Avx512);
    EXPECT_TRUE(simd::parseTier("auto", t));
    EXPECT_EQ(t, simd::cap());

    EXPECT_FALSE(simd::parseTier(nullptr, t));
    EXPECT_FALSE(simd::parseTier("", t));
    EXPECT_FALSE(simd::parseTier("AVX2", t));
    EXPECT_FALSE(simd::parseTier("sse", t));
}

TEST(SimdDispatch, TierNamesRoundTrip)
{
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                         simd::Tier::Avx512}) {
        simd::Tier parsed;
        ASSERT_TRUE(simd::parseTier(simd::tierName(t), parsed));
        EXPECT_EQ(parsed, t);
    }
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndTiersAreOrdered)
{
    EXPECT_TRUE(simd::supported(simd::Tier::Scalar));
    EXPECT_TRUE(simd::supported(simd::cap()));
    // Tiers are cumulative: a CPU with AVX-512 kernels also runs
    // the AVX2 ones.
    if (simd::supported(simd::Tier::Avx512)) {
        EXPECT_TRUE(simd::supported(simd::Tier::Avx2));
    }
}

TEST(SimdDispatch, SetTierSticksForSupportedTiers)
{
    const simd::Tier initial = simd::tier();
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        EXPECT_EQ(simd::tier(), t);
    }
    simd::setTier(initial);
}

/** Bitwise equality of two float spans (memcmp needs non-null
 * pointers, which an empty vector need not have). */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     sizeof(float) * a.size()) == 0);
}

/** Bitwise equality of two doubles. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** @p n standard-normal floats scaled by @p scale. */
std::vector<float>
normals(Rng &rng, int64_t n, double scale = 1.0)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (float &x : v)
        x = static_cast<float>(scale * rng.normal());
    return v;
}

TEST(SimdDispatch, VectorTiersBitwiseEqual)
{
    // Both vector tiers run one element-wise kernel per primitive
    // and GEMM micro-kernels that build every element from the same
    // FMA chain, so Avx2 and Avx512 must produce the same bits at
    // every length, and never write past n.
    if (!simd::supported(simd::Tier::Avx512))
        GTEST_SKIP() << "needs both AVX2 and AVX-512";
    const simd::Tier initial = simd::tier();
    constexpr float kGuard = -7.25f;
    constexpr int64_t kPad = 16;
    const simd::Tier tiers[2] = {simd::Tier::Avx2, simd::Tier::Avx512};
    Rng rng(91);
    for (int64_t n : {0, 1, 15, 16, 17, 31, 32, 33, 257, 4099}) {
        const std::vector<float> x = normals(rng, n, 3.0);
        const std::vector<float> dy = normals(rng, n);
        const std::vector<float> g = normals(rng, n, 1e-2);
        std::vector<float> mag(x.size());
        for (size_t i = 0; i < x.size(); ++i)
            mag[i] = std::fabs(x[i]);
        // The reductions see values spread over 40 binades, so their
        // double sums round and any change of lane order shows.
        std::vector<float> spread = x;
        for (size_t i = 0; i < spread.size(); ++i)
            spread[i] = std::ldexp(spread[i],
                                   static_cast<int>(i * 7 % 41) - 20);

        // One output buffer per (kernel, tier), padded with guards.
        enum { kGelu, kGeluBack, kSub, kScale, kAbs, kAbsDiv, kSelect,
               kKeep, kAdamM, kAdamV, kAdamW, kOutputs };
        std::vector<float> out[kOutputs][2];
        double dot[2], pos_sum[2], neg_sum[2];
        int64_t pos_count[2], neg_count[2], kept[2];
        for (int k = 0; k < 2; ++k) {
            const simd::Tier t = tiers[k];
            for (auto &o : out)
                o[k].assign(x.size() + kPad, kGuard);
            std::copy(dy.begin(), dy.end(), out[kSub][k].begin());
            std::copy(x.begin(), x.end(), out[kScale][k].begin());
            std::fill_n(out[kAdamM][k].begin(), n, 0.0f);
            std::fill_n(out[kAdamV][k].begin(), n, 0.0f);
            std::copy(x.begin(), x.end(), out[kAdamW][k].begin());

            simd::geluForward(t, out[kGelu][k].data(), x.data(), n);
            simd::geluBackward(t, out[kGeluBack][k].data(), dy.data(),
                               x.data(), n);
            dot[k] = simd::dotDouble(t, spread.data(), dy.data(), n);
            simd::subScaled(t, out[kSub][k].data(), x.data(), 0.37f, n);
            simd::scaleInPlace(t, out[kScale][k].data(), 1.61f, n);
            simd::absVals(t, out[kAbs][k].data(), x.data(), n);
            simd::absDiv(t, out[kAbsDiv][k].data(), x.data(), 2.9f, n);
            simd::signedSums(t, spread.data(), n, pos_sum[k],
                             neg_sum[k], pos_count[k], neg_count[k]);
            simd::selectBySign(t, out[kSelect][k].data(), x.data(),
                               1.5f, -0.5f, n);
            kept[k] = simd::keepAbove(t, out[kKeep][k].data(), x.data(),
                                      mag.data(), 2.0f, n);
            for (int step = 0; step < 3; ++step)
                simd::adamStep(t, out[kAdamM][k].data(),
                               out[kAdamV][k].data(),
                               out[kAdamW][k].data(), g.data(), n, 0.9f,
                               0.999f, 1e-8f, 1e-3f);
            for (int o = 0; o < kOutputs; ++o) {
                for (size_t i = x.size(); i < out[o][k].size(); ++i) {
                    ASSERT_EQ(out[o][k][i], kGuard)
                        << "output " << o << " wrote past n=" << n;
                }
            }
        }
        for (int o = 0; o < kOutputs; ++o)
            EXPECT_TRUE(sameBits(out[o][0], out[o][1]))
                << "output " << o << " n=" << n;
        EXPECT_TRUE(sameBits(dot[0], dot[1])) << "dotDouble n=" << n;
        EXPECT_TRUE(sameBits(pos_sum[0], pos_sum[1]))
            << "signedSums n=" << n;
        EXPECT_TRUE(sameBits(neg_sum[0], neg_sum[1]))
            << "signedSums n=" << n;
        EXPECT_EQ(pos_count[0], pos_count[1]) << "n=" << n;
        EXPECT_EQ(neg_count[0], neg_count[1]) << "n=" << n;
        EXPECT_EQ(kept[0], kept[1]) << "keepAbove n=" << n;

        if (n == 0)
            continue;
        // GEMMs with n as the depth, the row count and the column
        // count in turn: short and long k blocks, the 6- and 14-row
        // tiles with their remainders, ragged column tiles.
        const int64_t shapes[3][3] = {{13, n, 31}, {n, 17, 33},
                                      {29, 40, n}};
        for (const auto &s : shapes) {
            const Tensor a = Tensor::randn({s[0], s[1]}, rng);
            const Tensor b = Tensor::randn({s[1], s[2]}, rng);
            const Tensor at = a.transposed();
            const Tensor bt = b.transposed();
            Tensor c[3][2];
            for (int k = 0; k < 2; ++k) {
                simd::setTier(tiers[k]);
                c[0][k] = matmul(a, b);
                c[1][k] = matmulNT(a, bt);
                c[2][k] = matmulTN(at, b);
            }
            for (int f = 0; f < 3; ++f)
                EXPECT_EQ(0, std::memcmp(c[f][0].data(), c[f][1].data(),
                                         sizeof(float) * c[f][0].size()))
                    << "form " << f << " " << s[0] << "x" << s[1] << "x"
                    << s[2];
        }
    }
    simd::setTier(initial);
}

TEST(SimdDispatch, GeluVectorTiersWithinBoundOfScalarForm)
{
    // The vector tanh differs from std::tanh by about an ulp; these
    // absolute bounds over a dense sweep of [-12, 12] (step 2^-14)
    // plus large magnitudes are the stated per-element contract.
    constexpr double kForwardBound = 3e-7;
    constexpr double kBackwardBound = 1e-6;
    std::vector<float> x;
    for (int64_t i = -12 * 16384; i <= 12 * 16384; ++i)
        x.push_back(static_cast<float>(i) / 16384.0f);
    for (float v : {20.0f, 100.0f, 1e4f, 1e13f, 1e20f, 3e38f, 1e-30f,
                    1e-40f})
        for (float s : {1.0f, -1.0f})
            x.push_back(s * v);
    const int64_t n = static_cast<int64_t>(x.size());
    const std::vector<float> ones(x.size(), 1.0f);
    std::vector<float> y(x.size()), d(x.size());
    for (simd::Tier t : supportedTiers()) {
        if (t == simd::Tier::Scalar)
            continue;
        simd::geluForward(t, y.data(), x.data(), n);
        simd::geluBackward(t, d.data(), ones.data(), x.data(), n);
        double worst_y = 0.0, worst_d = 0.0;
        for (int64_t i = 0; i < n; ++i) {
            worst_y = std::max(
                worst_y, std::fabs(static_cast<double>(y[i]) -
                                   Gelu::value(x[i])));
            worst_d = std::max(
                worst_d, std::fabs(static_cast<double>(d[i]) -
                                   Gelu::derivative(x[i])));
        }
        EXPECT_LE(worst_y, kForwardBound) << simd::tierName(t);
        EXPECT_LE(worst_d, kBackwardBound) << simd::tierName(t);
    }
}

TEST(SimdDispatch, GeluNonFiniteMatchesScalarClass)
{
    // NaN must stay NaN (a NaN turned finite here would hide from
    // the downstream NaN/Inf health alerts) and +-Inf must land in
    // the Scalar form's class: forward(+Inf) = +Inf,
    // forward(-Inf) = NaN, derivative(+-Inf) = NaN. Each special
    // sits in a full vector block and in a masked tail.
    const float kSpecials[] = {std::nanf(""), -std::nanf(""),
                               INFINITY, -INFINITY, 1e30f, -1e30f};
    auto classOf = [](float v) {
        return std::isnan(v) ? 0 : std::isinf(v) ? (v > 0 ? 1 : -1) : 2;
    };
    for (float special : kSpecials) {
        // n = 43 leaves a masked tail (lanes 40..42).
        for (int64_t at : {3, 41}) {
            std::vector<float> x(43, 0.5f);
            x[static_cast<size_t>(at)] = special;
            const std::vector<float> ones(x.size(), 1.0f);
            std::vector<float> y(x.size()), d(x.size());
            for (simd::Tier t : supportedTiers()) {
                simd::geluForward(t, y.data(), x.data(), 43);
                simd::geluBackward(t, d.data(), ones.data(), x.data(),
                                   43);
                EXPECT_EQ(classOf(y[at]),
                          classOf(Gelu::value(special)))
                    << simd::tierName(t) << " x=" << special;
                EXPECT_EQ(classOf(d[at]),
                          classOf(Gelu::derivative(special)))
                    << simd::tierName(t) << " x=" << special;
                // The special does not leak into its neighbours.
                EXPECT_TRUE(std::isfinite(y[at - 1]) &&
                            std::isfinite(d[at - 1]))
                    << simd::tierName(t);
            }
        }
    }
}

/** The Adam loop as it stood before dispatch, kept test-local. */
void
adamReference(std::vector<float> &m, std::vector<float> &v,
              std::vector<float> &w, const std::vector<float> &g,
              float beta1, float beta2, float eps, float alpha)
{
    for (size_t j = 0; j < w.size(); ++j) {
        m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
        v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
        w[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps);
    }
}

TEST(SimdDispatch, AdamStepBitwiseEqualToScalarLoopEveryTier)
{
    // Every Adam operation is one IEEE-rounded op, so each tier's
    // m, v and w must match the historical loop bit for bit after
    // several steps, one of them with an all-zero gradient.
    const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
    for (int64_t n : {0, 1, 15, 17, 4099}) {
        Rng rng(static_cast<uint64_t>(n) + 3);
        std::vector<float> w0(static_cast<size_t>(n));
        for (float &x : w0)
            x = static_cast<float>(rng.normal());
        std::vector<std::vector<float>> grads(5, w0);
        for (auto &g : grads)
            for (float &x : g)
                x = static_cast<float>(1e-2 * rng.normal());
        std::fill(grads[2].begin(), grads[2].end(), 0.0f);

        for (simd::Tier t : supportedTiers()) {
            std::vector<float> m(w0.size()), v(w0.size()), w = w0;
            std::vector<float> rm(w0.size()), rv(w0.size()), rw = w0;
            for (size_t step = 0; step < grads.size(); ++step) {
                const float alpha = 1e-3f * static_cast<float>(step + 1);
                simd::adamStep(t, m.data(), v.data(), w.data(),
                               grads[step].data(), n, beta1, beta2,
                               eps, alpha);
                adamReference(rm, rv, rw, grads[step], beta1, beta2,
                              eps, alpha);
            }
            EXPECT_TRUE(sameBits(m, rm))
                << simd::tierName(t) << " n=" << n;
            EXPECT_TRUE(sameBits(v, rv))
                << simd::tierName(t) << " n=" << n;
            EXPECT_TRUE(sameBits(w, rw))
                << simd::tierName(t) << " n=" << n;
        }
    }
}

/** The serve attention context loop as it stood before
 * weightedRowSum, kept test-local: j ascending from 0.0f, one
 * multiply and one add per step. */
void
weightedRowSumReference(float *out, const float *w, const float *rows,
                        int64_t ld, int64_t count, int64_t n)
{
    for (int64_t c = 0; c < n; ++c)
        out[c] = 0.0f;
    for (int64_t j = 0; j < count; ++j) {
        const float wj = w[j];
        const float *row = rows + j * ld;
        for (int64_t c = 0; c < n; ++c)
            out[c] += wj * row[c];
    }
}

TEST(SimdDispatch, AttentionRowKernelsBitwiseEqualPerRowLoopsEveryTier)
{
    // dotRowsScaled must give each tier's own per-row dotDouble bits
    // and weightedRowSum the scalar context loop's bits, at every
    // head width (vector blocks, 4-wide and single tails), every row
    // count (full and short groups of four) and at a row stride
    // wider than the row. Neither kernel may write past count or n.
    // Dimensions 4i and 4i + 2 carry terms near 2^30 that cancel
    // exactly (q[4i + 2] == -q[4i], the rows repeat their 4i entry
    // at 4i + 2), and the other terms lie far below their double
    // ulp, so a score's bits show the order its terms were added in.
    constexpr float kGuard = -7.25f;
    constexpr int64_t kPad = 8;
    const float scale = 0.25f;
    Rng rng(2027);
    for (int64_t n : {1, 7, 12, 16, 20, 33, 64}) {
        for (int64_t ld : {n, n + 5}) {
            constexpr int64_t kMaxCount = 65;
            std::vector<float> q = normals(rng, n, 3.0);
            std::vector<float> rows = normals(rng, kMaxCount * ld);
            for (int64_t i = 0; i + 2 < n; i += 4) {
                q[i] = std::ldexp(q[i], 30);
                q[i + 2] = -q[i];
                for (int64_t j = 0; j < kMaxCount; ++j)
                    rows[j * ld + i + 2] = rows[j * ld + i];
            }
            std::vector<float> w = normals(rng, kMaxCount);
            for (float &x : w)
                x = std::fabs(x);
            for (simd::Tier t : supportedTiers()) {
                for (int64_t count = 1; count <= kMaxCount; ++count) {
                    std::vector<float> scores(count + kPad, kGuard);
                    simd::dotRowsScaled(t, scores.data(), q.data(),
                                        rows.data(), ld, count, n, scale);
                    for (int64_t j = 0; j < count; ++j) {
                        const float want =
                            static_cast<float>(simd::dotDouble(
                                t, q.data(), rows.data() + j * ld, n)) *
                            scale;
                        ASSERT_EQ(std::memcmp(&scores[j], &want,
                                              sizeof want), 0)
                            << simd::tierName(t) << " n=" << n
                            << " ld=" << ld << " count=" << count
                            << " row " << j;
                    }
                    for (int64_t j = count; j < count + kPad; ++j)
                        ASSERT_EQ(scores[j], kGuard)
                            << "dotRowsScaled wrote past count=" << count;

                    std::vector<float> ctx(n + kPad, kGuard);
                    std::vector<float> want(n);
                    simd::weightedRowSum(t, ctx.data(), w.data(),
                                         rows.data(), ld, count, n);
                    weightedRowSumReference(want.data(), w.data(),
                                            rows.data(), ld, count, n);
                    ASSERT_EQ(std::memcmp(ctx.data(), want.data(),
                                          sizeof(float) * n), 0)
                        << simd::tierName(t) << " n=" << n << " ld=" << ld
                        << " count=" << count;
                    for (int64_t c = n; c < n + kPad; ++c)
                        ASSERT_EQ(ctx[c], kGuard)
                            << "weightedRowSum wrote past n=" << n;
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// The loops the layer kernels replaced, kept test-local. Each is the
// historical loop with its row stride generalized to ld (the layers
// and the transport call the kernels with ld == n).
// ---------------------------------------------------------------

/** Tensor::add / Tensor::sub before dispatch. */
void
residualReference(float *a, const float *b, int64_t n, bool subtract)
{
    for (int64_t i = 0; i < n; ++i) {
        if (subtract)
            a[i] -= b[i];
        else
            a[i] += b[i];
    }
}

/** Linear::forward's bias add. */
void
rowBiasReference(float *y, const float *b, int64_t ld, int64_t rows,
                 int64_t n)
{
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < n; ++j)
            y[i * ld + j] += b[j];
}

/** Linear::backward's bias column sums. */
void
colSumsReference(float *db, const float *dy, int64_t ld, int64_t rows,
                 int64_t n)
{
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < n; ++j)
            db[j] += dy[i * ld + j];
}

/** LayerNorm::forward's per-row loop (xhat == nullptr in Infer). */
void
layerNormForwardReference(float *y, float *xhat, float *inv_std,
                          const float *x, const float *g, const float *b,
                          int64_t ld, int64_t rows, int64_t f, float eps)
{
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = x + i * ld;
        double sum = 0.0;
        for (int64_t j = 0; j < f; ++j)
            sum += row[j];
        const float mu = static_cast<float>(sum / f);
        double var = 0.0;
        for (int64_t j = 0; j < f; ++j) {
            const float d = row[j] - mu;
            var += static_cast<double>(d) * d;
        }
        const float inv = 1.0f / std::sqrt(static_cast<float>(var / f) + eps);
        if (xhat != nullptr)
            inv_std[i] = inv;
        for (int64_t j = 0; j < f; ++j) {
            const float xn = (row[j] - mu) * inv;
            if (xhat != nullptr)
                xhat[i * ld + j] = xn;
            y[i * ld + j] = g[j] * xn + b[j];
        }
    }
}

/** LayerNorm::backward's dx loop. */
void
layerNormBackwardReference(float *dx, const float *dy, const float *nd,
                           const float *inv_std, const float *g,
                           int64_t ld, int64_t rows, int64_t f)
{
    for (int64_t i = 0; i < rows; ++i) {
        const float *dyr = dy + i * ld;
        const float *nr = nd + i * ld;
        double sum_dxhat = 0.0;
        double sum_dxhat_xhat = 0.0;
        for (int64_t j = 0; j < f; ++j) {
            const float dxhat = dyr[j] * g[j];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += static_cast<double>(dxhat) * nr[j];
        }
        const float mean_dxhat = static_cast<float>(sum_dxhat / f);
        const float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / f);
        for (int64_t j = 0; j < f; ++j) {
            const float dxhat = dyr[j] * g[j];
            dx[i * ld + j] =
                inv_std[i] * (dxhat - mean_dxhat - nr[j] * mean_dxhat_xhat);
        }
    }
}

/** LayerNorm::backward's dgamma/dbeta sweep. */
void
layerNormParamGradsReference(float *dg, float *db, const float *dy,
                             const float *nd, int64_t ld, int64_t rows,
                             int64_t f)
{
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < f; ++j) {
            dg[j] += dy[i * ld + j] * nd[i * ld + j];
            db[j] += dy[i * ld + j];
        }
}

/** The in-process all-reduce loop of combineGroup. */
void
combineRanksReference(const std::vector<float *> &ptrs, int64_t k0,
                      int64_t k1, double scale)
{
    const int ranks = static_cast<int>(ptrs.size());
    for (int64_t k = k0; k < k1; ++k) {
        double acc = 0.0;
        for (int d = 0; d < ranks; ++d)
            acc += ptrs[d][k];
        const float v = static_cast<float>(acc * scale);
        for (int d = 0; d < ranks; ++d)
            ptrs[d][k] = v;
    }
}

/** What a layer-kernel test matrix holds besides normal values. */
enum class Fill
{
    Finite,  // normals with signed zeros, one all -0 row
    Cancel,  // plus +-2^60 pairs that cancel along rows and columns
    Inf,     // plus +-Inf (every NaN is then the default NaN)
    Nan,     // plus quiet NaNs (and no Inf, so no second NaN kind)
};

/**
 * A rows x ld matrix of @p fill values in its first n columns, with
 * NaN in the gap columns [n, ld) so a kernel that reads them shows it.
 * In Cancel, a value v = +-2^60 at (i, j) for i, j multiples of 4 is
 * cancelled by -v at (i, j + 2) and (i + 2, j): a double or float
 * chain then keeps or drops the terms between them depending on its
 * order, so a reordered chain changes the bits. Row 1 does the same
 * for a chain of squares (LayerNorm's variance).
 */
std::vector<float>
layerMatrix(Rng &rng, Fill fill, int64_t rows, int64_t ld, int64_t n)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> m(static_cast<size_t>(rows * ld), nan);
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < n; ++j) {
            const int64_t e = i * n + j;
            float v = static_cast<float>(rng.normal());
            if (e % 13 == 3 || i == 2)
                v = -0.0f;
            else if (e % 17 == 8)
                v = 0.0f;
            else if (fill == Fill::Inf && e % 37 == 5)
                v = inf;
            else if (fill == Fill::Inf && e % 37 == 23)
                v = -inf;
            else if (fill == Fill::Nan && e % 41 == 7)
                v = nan;
            m[i * ld + j] = v;
        }
    if (fill == Fill::Cancel)
        for (int64_t i = 0; i < rows; i += 4)
            for (int64_t j = 0; j < n; j += 4) {
                const float v = std::ldexp(j % 8 == 0 ? 1.0f : -1.0f, 60);
                m[i * ld + j] = v;
                if (j + 2 < n)
                    m[i * ld + j + 2] = -v;
                if (i + 2 < rows)
                    m[(i + 2) * ld + j] = -v;
            }
    if (fill == Fill::Cancel && rows > 1 && n >= 8) {
        // Row 1 sums to exactly 0, and its squares to 2^31 + 2^7 + 2^-21
        // only when the two 2^-22 squares are added before the 2^30
        // ones: in element order they round away, and float(var / n)
        // rounds the tie to even instead of up.
        const float tie[8] = {0x1p15f, -0x1p15f, 8.0f, -8.0f,
                              0x1p-11f, -0x1p-11f, 0.0f, 0.0f};
        for (int64_t j = 0; j < n; ++j)
            m[ld + j] = j < 8 ? tie[j] : 0.0f;
    }
    return m;
}

/** @p m with every gap column [n, ld) set to @p guard. */
std::vector<float>
withGaps(std::vector<float> m, int64_t ld, int64_t n, float guard)
{
    for (size_t e = 0; e < m.size(); ++e)
        if (static_cast<int64_t>(e) % ld >= n)
            m[e] = guard;
    return m;
}

TEST(SimdDispatch, LayerKernelsBitwiseEqualScalarLoopsEveryTier)
{
    // Each layer kernel must give the bits of the loop it replaced on
    // every tier: full 8-column registers and tails (n), full and
    // short row-lane groups of four and eight (rows 1..9), a row
    // stride wider than the row, signed zeros, cancelling +-2^60
    // pairs that expose the order of every chain, and Inf or NaN
    // inputs. Outputs past a row's n-th float, and past the last row,
    // keep their guard values; inputs there are NaN and must not be
    // read.
    constexpr float kGuard = -7.25f;
    constexpr float kEps = 1e-5f;
    const Fill fills[] = {Fill::Finite, Fill::Cancel, Fill::Inf, Fill::Nan};
    for (Fill fill : fills) {
        for (int64_t n : {1, 7, 8, 15, 16, 17, 64, 65, 256}) {
            for (int64_t ld : {n, n + 3}) {
                constexpr int64_t kMaxRows = 9;
                Rng rng(static_cast<uint64_t>(100 * n + ld) +
                        static_cast<uint64_t>(fill));
                const std::vector<float> x =
                    layerMatrix(rng, fill, kMaxRows, ld, n);
                const std::vector<float> dy =
                    layerMatrix(rng, fill, kMaxRows, ld, n);
                // In Cancel, gamma and x_hat repeat column j at j + 2
                // for j a multiple of 4, so the +-2^60 pairs of dy
                // still cancel in dy * gamma and dy * gamma * x_hat.
                const Fill pair_fill =
                    fill == Fill::Cancel ? Fill::Finite : fill;
                std::vector<float> gamma =
                    layerMatrix(rng, pair_fill, 1, n, n);
                std::vector<float> beta = layerMatrix(rng, fill, 1, n, n);
                std::vector<float> acc0 = layerMatrix(rng, fill, 1, n, n);
                gamma.push_back(kGuard);
                beta.push_back(kGuard);
                const std::vector<float> y0 = withGaps(x, ld, n, kGuard);
                // A finite xhat and inv_std of the scale LayerNorm
                // writes, for the backward kernels.
                std::vector<float> xhat = withGaps(
                    layerMatrix(rng, Fill::Finite, kMaxRows, ld, n), ld, n,
                    std::numeric_limits<float>::quiet_NaN());
                for (int64_t j = 0; fill == Fill::Cancel && j + 2 < n;
                     j += 4) {
                    gamma[j + 2] = gamma[j];
                    for (int64_t i = 0; i < kMaxRows; ++i)
                        xhat[i * ld + j + 2] = xhat[i * ld + j];
                }
                std::vector<float> inv_std(kMaxRows);
                for (float &v : inv_std)
                    v = static_cast<float>(1.0 + std::fabs(rng.normal()));

                for (simd::Tier t : supportedTiers()) {
                    for (int64_t rows = 1; rows <= kMaxRows; ++rows) {
                        const std::string where =
                            std::string(simd::tierName(t)) + " n=" +
                            std::to_string(n) + " ld=" + std::to_string(ld) +
                            " rows=" + std::to_string(rows) + " fill=" +
                            std::to_string(static_cast<int>(fill));
                        const int64_t span = rows * ld;
                        // Outputs hold the guard from the first
                        // element past the live region on.
                        auto out = [&](const std::vector<float> &init) {
                            std::vector<float> v(init.begin(),
                                                 init.begin() + span);
                            v.resize(span + 8, kGuard);
                            return v;
                        };

                        std::vector<float> got = out(y0);
                        std::vector<float> want = got;
                        simd::addRowBias(t, got.data(), beta.data(), ld, rows,
                                         n);
                        rowBiasReference(want.data(), beta.data(), ld, rows, n);
                        ASSERT_TRUE(sameBits(got, want)) << "addRowBias " << where;

                        std::vector<float> acc = acc0;
                        acc.resize(n + 8, kGuard);
                        std::vector<float> acc_want = acc;
                        simd::addColSums(t, acc.data(), x.data(), ld, rows, n);
                        colSumsReference(acc_want.data(), x.data(), ld, rows, n);
                        ASSERT_TRUE(sameBits(acc, acc_want))
                            << "addColSums " << where;

                        for (bool train : {true, false}) {
                            std::vector<float> y = out(y0);
                            std::vector<float> nd = y;
                            std::vector<float> is(kMaxRows + 1, kGuard);
                            std::vector<float> y_ref = y;
                            std::vector<float> nd_ref = nd;
                            std::vector<float> is_ref = is;
                            simd::layerNormForward(
                                t, y.data(), train ? nd.data() : nullptr,
                                train ? is.data() : nullptr, x.data(),
                                gamma.data(), beta.data(), ld, rows, n, kEps);
                            layerNormForwardReference(
                                y_ref.data(), train ? nd_ref.data() : nullptr,
                                train ? is_ref.data() : nullptr, x.data(),
                                gamma.data(), beta.data(), ld, rows, n, kEps);
                            ASSERT_TRUE(sameBits(y, y_ref))
                                << "layerNormForward y train=" << train << " "
                                << where;
                            ASSERT_TRUE(sameBits(nd, nd_ref))
                                << "layerNormForward xhat train=" << train
                                << " " << where;
                            ASSERT_TRUE(sameBits(is, is_ref))
                                << "layerNormForward inv_std train=" << train
                                << " " << where;
                        }

                        std::vector<float> dx = out(y0);
                        std::vector<float> dx_ref = dx;
                        simd::layerNormBackward(t, dx.data(), dy.data(),
                                                xhat.data(), inv_std.data(),
                                                gamma.data(), ld, rows, n);
                        layerNormBackwardReference(dx_ref.data(), dy.data(),
                                                   xhat.data(), inv_std.data(),
                                                   gamma.data(), ld, rows, n);
                        ASSERT_TRUE(sameBits(dx, dx_ref))
                            << "layerNormBackward " << where;

                        std::vector<float> dg = acc0;
                        dg.resize(n + 8, kGuard);
                        std::vector<float> db = beta;
                        db.resize(n + 8, kGuard);
                        std::vector<float> dg_ref = dg;
                        std::vector<float> db_ref = db;
                        simd::layerNormParamGrads(t, dg.data(), db.data(),
                                                  dy.data(), xhat.data(), ld,
                                                  rows, n);
                        layerNormParamGradsReference(dg_ref.data(),
                                                     db_ref.data(), dy.data(),
                                                     xhat.data(), ld, rows, n);
                        ASSERT_TRUE(sameBits(dg, dg_ref))
                            << "layerNormParamGrads dgamma " << where;
                        ASSERT_TRUE(sameBits(db, db_ref))
                            << "layerNormParamGrads dbeta " << where;
                    }

                    // The span kernels over the whole matrix, out of
                    // place and in place (Tensor::add/sub).
                    const int64_t len = kMaxRows * n;
                    for (bool subtract : {false, true}) {
                        std::vector<float> a(x.begin(), x.begin() + len);
                        a.resize(len + 8, kGuard);
                        const std::vector<float> b(dy.begin(),
                                                   dy.begin() + len);
                        std::vector<float> want = a;
                        residualReference(want.data(), b.data(), len, subtract);
                        std::vector<float> fresh(len + 8, kGuard);
                        if (subtract) {
                            simd::subVals(t, fresh.data(), a.data(), b.data(),
                                          len);
                            simd::subVals(t, a.data(), a.data(), b.data(), len);
                        } else {
                            simd::addVals(t, fresh.data(), a.data(), b.data(),
                                          len);
                            simd::addVals(t, a.data(), a.data(), b.data(), len);
                        }
                        ASSERT_TRUE(sameBits(fresh, want))
                            << (subtract ? "subVals " : "addVals ")
                            << simd::tierName(t) << " n=" << n;
                        ASSERT_TRUE(sameBits(a, want))
                            << (subtract ? "subVals" : "addVals")
                            << " in place " << simd::tierName(t) << " n=" << n;
                    }

                    // The all-reduce over 1..9 ranks of an element
                    // range that starts off a register boundary.
                    for (int ranks = 1; ranks <= kMaxRows; ++ranks) {
                        const double scale = 1.0 / ranks;
                        std::vector<float> bufs = withGaps(x, ld, n, kGuard);
                        std::vector<float> bufs_ref = bufs;
                        std::vector<float *> ptrs, ptrs_ref;
                        for (int d = 0; d < ranks; ++d) {
                            ptrs.push_back(bufs.data() + d * ld);
                            ptrs_ref.push_back(bufs_ref.data() + d * ld);
                        }
                        const int64_t k0 = n > 2 ? 1 : 0;
                        simd::combineRanks(t, ptrs.data(), ranks, k0, n, scale);
                        combineRanksReference(ptrs_ref, k0, n, scale);
                        ASSERT_TRUE(sameBits(bufs, bufs_ref))
                            << "combineRanks ranks=" << ranks << " "
                            << simd::tierName(t) << " n=" << n << " ld=" << ld;
                    }
                }
            }
        }
    }
}

TEST(SimdDispatch, TrainerBitwiseIdenticalPerTier)
{
    // Each tier reproduces itself bitwise, and the two vector tiers
    // (one element-wise kernel each, FMA-chain-identical GEMM tiles)
    // reproduce each other.
    ASSERT_TRUE(kForceThreads);
    const simd::Tier initial = simd::tier();
    LmDataset data = tinyData(tinyModel().seqLen);
    std::vector<std::unique_ptr<Trainer3d>> runs;
    std::vector<std::vector<double>> losses;
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        auto a = std::make_unique<Trainer3d>(tinyConfig());
        Trainer3d b(tinyConfig());
        Rng rng_a(11), rng_b(11);
        losses.emplace_back();
        for (int it = 0; it < 5; ++it) {
            const auto sa = a->trainIteration(data, rng_a);
            const auto sb = b.trainIteration(data, rng_b);
            ASSERT_EQ(sa.loss, sb.loss)
                << simd::tierName(t) << " iteration " << it;
            losses.back().push_back(sa.loss);
        }
        EXPECT_EQ(bitwiseMismatch(*a, b), 0) << simd::tierName(t);
        runs.push_back(std::move(a));
    }
    simd::setTier(initial);
    if (simd::supported(simd::Tier::Avx512)) {
        // supportedTiers() is {Scalar, Avx2, Avx512} here.
        ASSERT_EQ(runs.size(), 3u);
        EXPECT_EQ(losses[1], losses[2]);
        EXPECT_EQ(bitwiseMismatch(*runs[1], *runs[2]), 0)
            << "avx512 vs avx2";
    }
}

TEST(SimdDispatch, TrainerThreadGridInvariantPerTier)
{
    // Pooled vs forced-serial execution must agree bitwise in every
    // tier: kernel chunk grids are functions of the problem shape,
    // never of the worker count. Combined with the ctest legs at
    // OPTIMUS_THREADS in {1, 4, 8}, this pins full thread
    // invariance per tier.
    const simd::Tier initial = simd::tier();
    LmDataset data = tinyData(tinyModel().seqLen);
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        Trainer3d pooled(tinyConfig());
        Rng rng_pooled(11);
        double pooled_losses[5];
        const int regions = test::pooledRegions([&] {
            trainLosses(pooled, data, rng_pooled, pooled_losses);
        });
        // The pooled leg must reach the pool, or this compares
        // serial with serial.
        if (runtimeThreads() > 1) {
            EXPECT_GT(regions, 0) << simd::tierName(t);
        }

        SerialRegion serial;
        Trainer3d inline_run(tinyConfig());
        Rng rng_inline(11);
        double inline_losses[5];
        trainLosses(inline_run, data, rng_inline, inline_losses);

        for (int it = 0; it < 5; ++it)
            ASSERT_EQ(pooled_losses[it], inline_losses[it])
                << simd::tierName(t) << " iteration " << it;
        EXPECT_EQ(bitwiseMismatch(pooled, inline_run), 0)
            << simd::tierName(t);
    }
    simd::setTier(initial);
}

TEST(SimdDispatch, TiersAgreeWithScalarToDocumentedTolerance)
{
    // Different tiers round reductions differently and agree only
    // to tolerance (DESIGN.md section 8): after 5 tiny iterations
    // the losses must match Scalar to 1% relative.
    const simd::Tier initial = simd::tier();
    LmDataset data = tinyData(tinyModel().seqLen);

    simd::setTier(simd::Tier::Scalar);
    Trainer3d scalar_run(tinyConfig());
    Rng rng_scalar(11);
    const double scalar_loss =
        trainLosses(scalar_run, data, rng_scalar);

    for (simd::Tier t : supportedTiers()) {
        if (t == simd::Tier::Scalar)
            continue;
        simd::setTier(t);
        Trainer3d run(tinyConfig());
        Rng rng(11);
        const double loss = trainLosses(run, data, rng);
        EXPECT_NEAR(loss, scalar_loss,
                    0.01 * std::fabs(scalar_loss))
            << simd::tierName(t);
    }
    simd::setTier(initial);
}

} // namespace
} // namespace optimus
