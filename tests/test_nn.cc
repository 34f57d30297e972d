/**
 * @file
 * Gradient-correctness tests: every hand-written backward is checked
 * against central finite differences, plus functional tests of the
 * loss, optimizers, and the monolithic GPT.
 */

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "nn/activation.hh"
#include "nn/attention.hh"
#include "nn/block.hh"
#include "nn/embedding.hh"
#include "nn/gpt.hh"
#include "nn/layernorm.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "runtime/runtime.hh"
#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "test_util.hh"

namespace optimus
{
namespace
{

constexpr double kGradTol = 3e-2;

// A multi-threaded pool unless the environment pins one, so the
// pooled legs of the bitwise tests run concurrent pairs. Runs at
// static-init time, ahead of any parallelFor call.
const bool kForceThreads = [] {
    ::setenv("OPTIMUS_THREADS", "4", 0);
    return true;
}();

TEST(GradCheck, Linear)
{
    Rng rng(1);
    Linear layer("t", 6, 5, rng, 0.5f);
    Tensor x = Tensor::randn({4, 6}, rng);
    Tensor w = Tensor::randn({4, 5}, rng);
    EXPECT_LT(test::inputGradError(layer, x, w, rng), kGradTol);
    EXPECT_LT(test::paramGradError(layer, x, w, rng), kGradTol);
}

TEST(GradCheck, LayerNorm)
{
    Rng rng(2);
    LayerNorm layer("t", 8);
    Tensor x = Tensor::randn({5, 8}, rng, 0.0f, 2.0f);
    Tensor w = Tensor::randn({5, 8}, rng);
    EXPECT_LT(test::inputGradError(layer, x, w, rng), kGradTol);
    EXPECT_LT(test::paramGradError(layer, x, w, rng), kGradTol);
}

TEST(GradCheck, Gelu)
{
    // Every tier's kernel pair must stay a consistent
    // forward/backward (the vector tiers replace std::tanh).
    const simd::Tier initial = simd::tier();
    for (simd::Tier t : test::supportedTiers()) {
        simd::setTier(t);
        Rng rng(3);
        Gelu layer;
        Tensor x = Tensor::randn({4, 6}, rng, 0.0f, 2.0f);
        Tensor w = Tensor::randn({4, 6}, rng);
        EXPECT_LT(test::inputGradError(layer, x, w, rng), kGradTol)
            << simd::tierName(t);
    }
    simd::setTier(initial);
}

TEST(GradCheck, Relu)
{
    Rng rng(4);
    Relu layer;
    // Keep values away from the kink for finite differences.
    Tensor x = Tensor::randn({4, 6}, rng, 0.0f, 2.0f);
    for (int64_t i = 0; i < x.size(); ++i) {
        if (std::fabs(x[i]) < 0.1f)
            x[i] = 0.5f;
    }
    Tensor w = Tensor::randn({4, 6}, rng);
    EXPECT_LT(test::inputGradError(layer, x, w, rng), kGradTol);
}

TEST(GradCheck, Attention)
{
    Rng rng(5);
    MultiHeadAttention layer("t", 8, 2, 4, rng, 0.3f);
    // Two sequences of length 4.
    Tensor x = Tensor::randn({8, 8}, rng);
    Tensor w = Tensor::randn({8, 8}, rng);
    EXPECT_LT(test::inputGradError(layer, x, w, rng, 32), kGradTol);
    EXPECT_LT(test::paramGradError(layer, x, w, rng, 16), kGradTol);
}

TEST(GradCheck, TransformerBlock)
{
    Rng rng(6);
    TransformerBlock layer("t", 8, 2, 4, rng, 0.3f);
    Tensor x = Tensor::randn({8, 8}, rng);
    Tensor w = Tensor::randn({8, 8}, rng);
    EXPECT_LT(test::inputGradError(layer, x, w, rng, 32), kGradTol);
    EXPECT_LT(test::paramGradError(layer, x, w, rng, 12), kGradTol);
}

TEST(GradCheck, OutputHead)
{
    Rng rng(7);
    auto table = std::make_shared<Param>(
        "emb", Tensor::randn({10, 6}, rng, 0.0f, 0.5f));
    OutputHead head(table);
    Tensor x = Tensor::randn({4, 6}, rng);
    Tensor w = Tensor::randn({4, 10}, rng);
    EXPECT_LT(test::inputGradError(head, x, w, rng), kGradTol);
    EXPECT_LT(test::paramGradError(head, x, w, rng), kGradTol);
}

TEST(Embedding, ForwardLookupAndBackwardScatter)
{
    Rng rng(8);
    EmbeddingLayer emb("t", 8, 4, 6, rng, 0.5f);
    const std::vector<int32_t> tokens = {1, 3, 1, 0, 7, 2};
    Tensor y = emb.forward(tokens, 2, 3);
    EXPECT_EQ(y.rows(), 6);
    EXPECT_EQ(y.cols(), 4);

    // Row 0 = token 1 embedding + position 0 embedding.
    const Tensor &tok = emb.tokenTable()->value;
    const Tensor &pos = emb.positionTable()->value;
    for (int j = 0; j < 4; ++j)
        EXPECT_FLOAT_EQ(y.at(0, j), tok.at(1, j) + pos.at(0, j));

    Tensor dy = Tensor::full({6, 4}, 1.0f);
    emb.backward(dy);
    // Token 1 appears twice -> its grad row is 2.0 everywhere.
    for (int j = 0; j < 4; ++j) {
        EXPECT_FLOAT_EQ(emb.tokenTable()->grad.at(1, j), 2.0f);
        EXPECT_FLOAT_EQ(emb.tokenTable()->grad.at(5, j), 0.0f);
    }
    // Each position appears twice (two batch rows).
    for (int j = 0; j < 4; ++j)
        EXPECT_FLOAT_EQ(emb.positionTable()->grad.at(0, j), 2.0f);
}

TEST(Loss, MatchesManualCrossEntropy)
{
    SoftmaxCrossEntropy loss;
    Tensor logits = Tensor::fromValues(
        {2, 3}, {1.0f, 2.0f, 3.0f, 0.0f, 0.0f, 0.0f});
    const std::vector<int32_t> targets = {2, 0};
    const double nll = loss.forward(logits, targets);

    // Row 0: softmax(1,2,3)[2]; Row 1: softmax(0,0,0)[0] = 1/3.
    const double p0 = std::exp(3.0) /
        (std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
    const double expect = -(std::log(p0) + std::log(1.0 / 3.0)) / 2.0;
    EXPECT_NEAR(nll, expect, 1e-6);

    Tensor g = loss.backward();
    // Gradient rows sum to zero (softmax minus one-hot).
    double row0 = g.at(0, 0) + g.at(0, 1) + g.at(0, 2);
    EXPECT_NEAR(row0, 0.0, 1e-6);
    EXPECT_LT(g.at(0, 2), 0.0f); // target coordinate is negative
}

TEST(Loss, GradientMatchesFiniteDifference)
{
    Rng rng(9);
    Tensor logits = Tensor::randn({3, 5}, rng);
    const std::vector<int32_t> targets = {0, 3, 4};

    SoftmaxCrossEntropy loss;
    loss.forward(logits, targets);
    Tensor g = loss.backward();

    const float eps = 1e-3f;
    for (int64_t i = 0; i < logits.size(); i += 3) {
        Tensor lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        const double fp = SoftmaxCrossEntropy::evaluate(lp, targets);
        const double fm = SoftmaxCrossEntropy::evaluate(lm, targets);
        EXPECT_NEAR((fp - fm) / (2 * eps), g[i], 2e-3);
    }
}

TEST(Loss, PerplexityIsExpOfNll)
{
    EXPECT_NEAR(SoftmaxCrossEntropy::perplexity(std::log(7.0)), 7.0,
                1e-9);
}

TEST(Gpt, EndToEndGradCheck)
{
    GptConfig config;
    config.vocab = 12;
    config.hidden = 8;
    config.layers = 2;
    config.heads = 2;
    config.seqLen = 4;
    config.seed = 31;
    GptModel model(config);

    Rng rng(10);
    std::vector<int32_t> tokens(8), targets(8);
    for (auto &t : tokens)
        t = static_cast<int32_t>(rng.uniformInt(config.vocab));
    for (auto &t : targets)
        t = static_cast<int32_t>(rng.uniformInt(config.vocab));

    for (const auto &p : model.params())
        p->zeroGrad();
    model.forwardBackward(tokens, targets, 2);

    // Spot-check several parameters end to end.
    const auto params = model.params();
    const float eps = 5e-3f;
    int checked = 0;
    for (size_t pi = 0; pi < params.size(); pi += 5) {
        Param &p = *params[pi];
        const auto i = static_cast<int64_t>(
            rng.uniformInt(p.size()));
        const float saved = p.value[i];
        p.value[i] = saved + eps;
        const double fp = model.evaluate(tokens, targets, 2);
        p.value[i] = saved - eps;
        const double fm = model.evaluate(tokens, targets, 2);
        p.value[i] = saved;
        const double numeric = (fp - fm) / (2.0 * eps);
        const double analytic = p.grad[i];
        const double denom = std::max(
            {std::fabs(numeric), std::fabs(analytic), 1e-3});
        EXPECT_LT(std::fabs(numeric - analytic) / denom, 5e-2)
            << "param " << p.name << " index " << i;
        ++checked;
    }
    EXPECT_GT(checked, 3);
}

TEST(Gpt, TiedEmbeddingAccumulatesBothPaths)
{
    GptConfig config;
    config.vocab = 10;
    config.hidden = 8;
    config.layers = 2;
    config.heads = 2;
    config.seqLen = 4;
    GptModel model(config);

    // Embedding table and head table are the same object.
    EXPECT_EQ(model.embedding().tokenTable().get(),
              model.head().tokenTable().get());

    // Unique param count excludes the duplicate.
    int64_t total = 0;
    for (const auto &p : model.params())
        total += p->size();
    EXPECT_EQ(total, config.paramCount());
}

TEST(Gpt, TrainingReducesLoss)
{
    GptConfig config;
    config.vocab = 16;
    config.hidden = 16;
    config.layers = 2;
    config.heads = 2;
    config.seqLen = 8;
    GptModel model(config);
    AdamOptimizer opt(model.params(), 3e-3f);

    Rng rng(12);
    // A tiny repeating "language": next = (token + 1) % 16.
    std::vector<int32_t> tokens(4 * 8), targets(4 * 8);
    for (size_t i = 0; i < tokens.size(); ++i) {
        tokens[i] = static_cast<int32_t>(i % 16);
        targets[i] = static_cast<int32_t>((i + 1) % 16);
    }

    const double first = model.forwardBackward(tokens, targets, 4);
    opt.step();
    opt.zeroGrad();
    double last = first;
    for (int it = 0; it < 60; ++it) {
        last = model.forwardBackward(tokens, targets, 4);
        opt.step();
        opt.zeroGrad();
    }
    EXPECT_LT(last, first * 0.5);
}

TEST(Attention, CausalMaskBlocksFutureTokens)
{
    // Changing a future token's representation must not change any
    // earlier position's output -- the causal-LM contract.
    Rng rng(21);
    MultiHeadAttention layer("t", 8, 2, 6, rng, 0.4f);
    Tensor x = Tensor::randn({6, 8}, rng); // one sequence of 6
    Tensor y1 = layer.forward(x);
    layer.clearStash();

    Tensor x2 = x;
    for (int64_t j = 0; j < 8; ++j)
        x2.at(5, j) += 1.0f; // perturb the last position only
    Tensor y2 = layer.forward(x2);
    layer.clearStash();

    for (int64_t t = 0; t < 5; ++t) {
        for (int64_t j = 0; j < 8; ++j)
            EXPECT_FLOAT_EQ(y1.at(t, j), y2.at(t, j))
                << "position " << t;
    }
    // And the perturbed position itself does change.
    EXPECT_FALSE(y1.sliceRows(5, 6).allClose(y2.sliceRows(5, 6),
                                             1e-4f));
}

TEST(Attention, BatchRowsAreIndependent)
{
    // Two sequences in one batch must not attend to each other.
    Rng rng(22);
    MultiHeadAttention layer("t", 8, 2, 4, rng, 0.4f);
    Tensor x = Tensor::randn({8, 8}, rng); // two sequences of 4
    Tensor y1 = layer.forward(x);
    layer.clearStash();

    Tensor x2 = x;
    for (int64_t j = 0; j < 8; ++j)
        x2.at(7, j) += 2.0f; // perturb second sequence only
    Tensor y2 = layer.forward(x2);
    layer.clearStash();

    // First sequence's outputs (rows 0..3) are untouched.
    EXPECT_TRUE(y1.sliceRows(0, 4).allClose(y2.sliceRows(0, 4),
                                            0.0f));
}

/**
 * Training attention with a copying core: every (batch, head) pair
 * copies q, k, v (and dhead) out of the wide activations into
 * [S x dh] blocks, runs allocating matmuls on them and adds the
 * per-head results back into zeroed wide outputs. It shares the
 * layer's projection parameters, so weight gradients land in the
 * same Param objects.
 */
class CopyingAttentionOracle
{
  public:
    CopyingAttentionOracle(const MultiHeadAttention &layer)
        : hidden_(layer.hidden()), heads_(layer.heads()),
          seqLen_(layer.seqLen()),
          qkv_(layer.params()[0], layer.params()[1]),
          proj_(layer.params()[2], layer.params()[3])
    {}

    Tensor
    forward(const Tensor &x)
    {
        const int64_t n = x.rows();
        batch_ = n / seqLen_;
        const int64_t dh = hidden_ / heads_;
        const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
        qkv_out_ = qkv_.forward(x);
        probs_.assign(batch_ * heads_, Tensor());
        Tensor ctx({n, hidden_});
        for (int64_t t = 0; t < batch_ * heads_; ++t) {
            const int64_t row0 = (t / heads_) * seqLen_;
            const int64_t hd = t % heads_;
            Tensor q = block(qkv_out_, row0, hd * dh, dh);
            Tensor k = block(qkv_out_, row0, hidden_ + hd * dh, dh);
            Tensor v = block(qkv_out_, row0, 2 * hidden_ + hd * dh, dh);
            Tensor scores = matmulNT(q, k);
            scores.scale(scale);
            float *sd = scores.data();
            for (int64_t i = 0; i < seqLen_; ++i) {
                float *row = sd + i * seqLen_;
                float max_val = row[0];
                for (int64_t j = 1; j <= i; ++j)
                    if (row[j] > max_val)
                        max_val = row[j];
                double denom = 0.0;
                for (int64_t j = 0; j <= i; ++j) {
                    row[j] = std::exp(row[j] - max_val);
                    denom += row[j];
                }
                const float inv = static_cast<float>(1.0 / denom);
                for (int64_t j = 0; j <= i; ++j)
                    row[j] *= inv;
                for (int64_t j = i + 1; j < seqLen_; ++j)
                    row[j] = 0.0f;
            }
            addBlock(ctx, matmul(scores, v), row0, hd * dh);
            probs_[t] = std::move(scores);
        }
        return proj_.forward(ctx);
    }

    Tensor
    backward(const Tensor &dy)
    {
        const int64_t dh = hidden_ / heads_;
        const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
        Tensor dctx = proj_.backward(dy);
        Tensor dqkv({batch_ * seqLen_, 3 * hidden_});
        for (int64_t t = 0; t < batch_ * heads_; ++t) {
            const int64_t row0 = (t / heads_) * seqLen_;
            const int64_t hd = t % heads_;
            const Tensor &probs = probs_[t];
            Tensor q = block(qkv_out_, row0, hd * dh, dh);
            Tensor k = block(qkv_out_, row0, hidden_ + hd * dh, dh);
            Tensor v = block(qkv_out_, row0, 2 * hidden_ + hd * dh, dh);
            Tensor dhead = block(dctx, row0, hd * dh, dh);
            Tensor dv = matmulTN(probs, dhead);
            Tensor dprobs = matmulNT(dhead, v);
            Tensor dscores({seqLen_, seqLen_});
            const float *pd = probs.data();
            const float *dpd = dprobs.data();
            float *dsd = dscores.data();
            for (int64_t i = 0; i < seqLen_; ++i) {
                double dot_val = 0.0;
                for (int64_t j = 0; j <= i; ++j)
                    dot_val += static_cast<double>(pd[i * seqLen_ + j]) *
                               dpd[i * seqLen_ + j];
                for (int64_t j = 0; j <= i; ++j)
                    dsd[i * seqLen_ + j] = pd[i * seqLen_ + j] *
                        (dpd[i * seqLen_ + j] -
                         static_cast<float>(dot_val));
            }
            dscores.scale(scale);
            addBlock(dqkv, matmul(dscores, k), row0, hd * dh);
            addBlock(dqkv, matmulTN(dscores, q), row0,
                     hidden_ + hd * dh);
            addBlock(dqkv, dv, row0, 2 * hidden_ + hd * dh);
        }
        return qkv_.backward(dqkv);
    }

  private:
    /** Copy the [S x cols] block at (row0, col0) out of @p src. */
    Tensor
    block(const Tensor &src, int64_t row0, int64_t col0,
          int64_t cols) const
    {
        Tensor out({seqLen_, cols});
        for (int64_t i = 0; i < seqLen_; ++i)
            for (int64_t j = 0; j < cols; ++j)
                out[i * cols + j] = src.at(row0 + i, col0 + j);
        return out;
    }

    /** dst block at (row0, col0) += @p blk. */
    static void
    addBlock(Tensor &dst, const Tensor &blk, int64_t row0, int64_t col0)
    {
        for (int64_t i = 0; i < blk.rows(); ++i)
            for (int64_t j = 0; j < blk.cols(); ++j)
                dst.at(row0 + i, col0 + j) += blk.at(i, j);
    }

    int64_t hidden_, heads_, seqLen_;
    int64_t batch_ = 0;
    Linear qkv_;
    Linear proj_;
    Tensor qkv_out_;
    std::vector<Tensor> probs_;
};

using test::sameBits;

TEST(Attention, StridedCoreBitwiseMatchesCopyingOracle)
{
    // Reading q/k/v in place and accumulating into the zeroed wide
    // outputs must keep the bits of the copy-out / add-back core:
    // forward output, input gradient and every projection gradient,
    // at every tier, pooled and serial. S = 300 crosses the KC = 256
    // depth block in probs v and probs^T dhead.
    ASSERT_TRUE(kForceThreads);
    struct Case
    {
        int64_t seq, dh, batch;
    };
    const Case cases[] = {{1, 4, 3}, {8, 16, 2}, {64, 32, 4}, {300, 8, 1}};
    const simd::Tier initial = simd::tier();
    for (simd::Tier tier : test::supportedTiers()) {
        simd::setTier(tier);
        for (bool serial : {true, false}) {
            std::optional<SerialRegion> region;
            if (serial)
                region.emplace();
            int pooled = 0;
            for (const Case &c : cases) {
                const std::string where =
                    std::string(simd::tierName(tier)) +
                    (serial ? " 1 thread" : " pool") +
                    " S=" + std::to_string(c.seq) +
                    " dh=" + std::to_string(c.dh) +
                    " batch=" + std::to_string(c.batch);
                const int64_t heads = 2;
                const int64_t hidden = heads * c.dh;
                Rng rng(41 + c.seq);
                MultiHeadAttention layer("t", hidden, heads, c.seq, rng,
                                         0.3f);
                const Tensor x =
                    Tensor::randn({c.batch * c.seq, hidden}, rng);
                const Tensor dy =
                    Tensor::randn({c.batch * c.seq, hidden}, rng);

                for (const auto &p : layer.params())
                    p->zeroGrad();
                Tensor y, dx;
                pooled += test::pooledRegions([&] {
                    y = layer.forward(x);
                    dx = layer.backward(dy);
                });
                std::vector<Tensor> grads;
                for (const auto &p : layer.params()) {
                    grads.push_back(p->grad);
                    p->zeroGrad();
                }

                CopyingAttentionOracle oracle(layer);
                const Tensor y_ref = oracle.forward(x);
                const Tensor dx_ref = oracle.backward(dy);
                EXPECT_TRUE(sameBits(y, y_ref)) << "forward " << where;
                EXPECT_TRUE(sameBits(dx, dx_ref)) << "dx " << where;
                const auto params = layer.params();
                for (size_t i = 0; i < params.size(); ++i)
                    EXPECT_TRUE(sameBits(grads[i], params[i]->grad))
                        << params[i]->name << " grad " << where;
            }
            // The pool leg must reach the pool (the larger cases
            // do), or it compares serial with serial.
            if (!serial && runtimeThreads() > 1) {
                EXPECT_GT(pooled, 0) << simd::tierName(tier);
            }
        }
    }
    simd::setTier(initial);
}

TEST(Gpt, LogitsAreCausal)
{
    // End-to-end causality: logits at position t depend only on
    // tokens <= t.
    GptConfig config;
    config.vocab = 12;
    config.hidden = 8;
    config.layers = 2;
    config.heads = 2;
    config.seqLen = 6;
    GptModel model(config);

    std::vector<int32_t> tokens = {1, 2, 3, 4, 5, 6};
    Tensor logits1 = model.forward(tokens, 1);
    model.clearStash();
    tokens[5] = 9; // change only the final token
    Tensor logits2 = model.forward(tokens, 1);
    model.clearStash();

    for (int64_t t = 0; t < 5; ++t) {
        for (int64_t v = 0; v < 12; ++v)
            EXPECT_FLOAT_EQ(logits1.at(t, v), logits2.at(t, v));
    }
}

TEST(Optimizer, AdamFirstStepIsLrSized)
{
    auto p = std::make_shared<Param>("w", Tensor::zeros(1));
    AdamOptimizer opt({p}, 0.01f);
    p->grad = Tensor::fromValues({1}, {3.0f});
    opt.step();
    // With bias correction, the first Adam step is ~lr * sign(g).
    EXPECT_NEAR(p->value[0], -0.01, 1e-4);
}

TEST(Optimizer, DedupesTiedParams)
{
    // A tied weight listed three times updates once: one Adam step
    // moves it by ~lr, not ~3 lr.
    auto p = std::make_shared<Param>("w", Tensor::zeros(2));
    AdamOptimizer opt({p, p, p}, 0.1f);
    EXPECT_EQ(opt.params().size(), 1u);
    p->grad = Tensor::fromValues({2}, {1.0f, -1.0f});
    opt.step();
    EXPECT_NEAR(p->value[0], -0.1, 1e-4);
    EXPECT_NEAR(p->value[1], 0.1, 1e-4);
}

/** LayerNorm forward as it stood before the simd kernels, kept
 * test-local (xhat/inv_std == nullptr in Infer). */
void
layerNormForwardOracle(const Tensor &x, const Tensor &gamma,
                       const Tensor &beta, float eps, Tensor &y,
                       Tensor *xhat, std::vector<float> *inv_std)
{
    const int64_t rows = x.rows();
    const int64_t f = x.cols();
    y = Tensor({rows, f});
    if (xhat != nullptr) {
        *xhat = Tensor({rows, f});
        inv_std->assign(rows, 0.0f);
    }
    const float *g = gamma.data();
    const float *b = beta.data();
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = x.data() + i * f;
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
            (*inv_std)[i] = inv;
        for (int64_t j = 0; j < f; ++j) {
            const float xn = (row[j] - mu) * inv;
            if (xhat != nullptr)
                xhat->data()[i * f + j] = xn;
            y.data()[i * f + j] = g[j] * xn + b[j];
        }
    }
}

/** LayerNorm backward as it stood before the simd kernels: dx, then
 * dgamma/dbeta accumulated rows in order. */
void
layerNormBackwardOracle(const Tensor &dy, const Tensor &xhat,
                        const std::vector<float> &inv_std,
                        const Tensor &gamma, Tensor &dx, Tensor &dgamma,
                        Tensor &dbeta)
{
    const int64_t rows = dy.rows();
    const int64_t f = dy.cols();
    dx = Tensor({rows, f});
    const float *g = gamma.data();
    for (int64_t i = 0; i < rows; ++i) {
        const float *dyr = dy.data() + i * f;
        const float *nr = xhat.data() + i * f;
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
            dx.data()[i * f + j] =
                inv_std[i] * (dxhat - mean_dxhat - nr[j] * mean_dxhat_xhat);
        }
    }
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < f; ++j) {
            dgamma.data()[j] += dy.data()[i * f + j] * xhat.data()[i * f + j];
            dbeta.data()[j] += dy.data()[i * f + j];
        }
}

/**
 * One LayerNorm at width @p f over @p rows rows against the oracle
 * loops: Train forward, input and parameter gradients, then the
 * Infer forward. With @p cancel, x and dy carry +-2^60 pairs that
 * cancel along a row and down a column, and x's row 1 squares sum to
 * a float tie, so a reordered row or column chain changes the bits;
 * beta is zero so y shows x_hat's bits.
 */
void
expectLayerNormMatchesOracle(int64_t f, int64_t rows, bool cancel,
                             const std::string &where)
{
    Rng rng(static_cast<uint64_t>(f * 100 + rows));
    LayerNorm layer("t", f);
    const auto params = layer.params();
    Tensor &gamma = params[0]->value;
    Tensor &beta = params[1]->value;
    gamma = Tensor::randn({f}, rng, 1.0f, 0.5f);
    beta = cancel ? Tensor::zeros(f) : Tensor::randn({f}, rng);
    Tensor x = Tensor::randn({rows, f}, rng, 0.0f, 2.0f);
    Tensor dy = Tensor::randn({rows, f}, rng);
    const float v = std::ldexp(1.0f, 60);
    for (Tensor *t : {&x, &dy})
        for (int64_t i = 0; cancel && i < rows; i += 3)
            for (int64_t j = i % 8; j + 2 < f; j += 16) {
                t->at(i, j) = v;
                t->at(i, j + 2) = -v;
                if (i + 1 < rows)
                    t->at(i + 1, j) = -v;
                // dy * gamma cancels too.
                gamma[j + 2] = gamma[j];
            }
    if (cancel && rows > 1) {
        // Row 1 sums to exactly 0, and its squares to 2^31 + 2^7 +
        // 2^-21 only when the two 2^-22 squares are added before the
        // 2^30 ones: in element order they round away, and the float
        // variance rounds the tie to even instead of up.
        const float tie[8] = {0x1p15f, -0x1p15f, 8.0f, -8.0f,
                              0x1p-11f, -0x1p-11f, 0.0f, 0.0f};
        for (int64_t j = 0; j < f; ++j)
            x.at(1, j) = j < 8 ? tie[j] : 0.0f;
    }
    for (const auto &p : params)
        p->grad = Tensor::randn({f}, rng);
    Tensor dgamma = params[0]->grad;
    Tensor dbeta = params[1]->grad;

    layer.setMode(Mode::Train);
    const Tensor y = layer.forward(x);
    const Tensor dx = layer.backward(dy);
    Tensor y_ref, xhat, dx_ref;
    std::vector<float> inv_std;
    layerNormForwardOracle(x, gamma, beta, 1e-5f, y_ref, &xhat, &inv_std);
    layerNormBackwardOracle(dy, xhat, inv_std, gamma, dx_ref, dgamma,
                            dbeta);
    EXPECT_TRUE(test::sameBits(y, y_ref)) << "train y " << where;
    EXPECT_TRUE(test::sameBits(dx, dx_ref)) << "dx " << where;
    EXPECT_TRUE(test::sameBits(params[0]->grad, dgamma))
        << "dgamma " << where;
    EXPECT_TRUE(test::sameBits(params[1]->grad, dbeta))
        << "dbeta " << where;

    layer.setMode(Mode::Infer);
    const Tensor y_infer = layer.forward(x);
    layerNormForwardOracle(x, gamma, beta, 1e-5f, y_ref, nullptr, nullptr);
    EXPECT_TRUE(test::sameBits(y_infer, y_ref)) << "infer y " << where;
}

TEST(LayerNorm, ForwardBackwardMatchLoopOracle)
{
    // The layer must keep the bits of the pre-kernel loops at every
    // tier, every row count from 1 to 17 (row-lane groups of eight
    // and four plus short tails) and the model widths.
    const simd::Tier initial = simd::tier();
    for (simd::Tier tier : test::supportedTiers()) {
        simd::setTier(tier);
        for (int64_t f : {16, 64, 128})
            for (int64_t rows = 1; rows <= 17; ++rows)
                for (bool cancel : {false, true})
                    expectLayerNormMatchesOracle(
                        f, rows, cancel,
                        std::string(simd::tierName(tier)) + " f=" +
                            std::to_string(f) + " rows=" +
                            std::to_string(rows) +
                            (cancel ? " cancel" : ""));
    }
    simd::setTier(initial);
}

TEST(Layer, StashFifoSupportsPipelining)
{
    Rng rng(13);
    Linear layer("t", 3, 3, rng, 0.5f);
    Tensor x1 = Tensor::randn({2, 3}, rng);
    Tensor x2 = Tensor::randn({2, 3}, rng);

    // Two forwards queued, then two backwards in the same order.
    layer.forward(x1);
    layer.forward(x2);
    EXPECT_EQ(layer.stashDepth(), 2u);

    Tensor dy = Tensor::full({2, 3}, 1.0f);
    Tensor dx1 = layer.backward(dy);
    Tensor dx2 = layer.backward(dy);
    EXPECT_EQ(layer.stashDepth(), 0u);

    // Compare against single-shot execution.
    Linear ref("t", 3, 3, rng, 0.5f);
    // Copy parameters to make layers identical.
    ref.weight()->value = layer.weight()->value;
    ref.bias()->value = layer.bias()->value;
    ref.forward(x1);
    Tensor ref_dx1 = ref.backward(dy);
    EXPECT_TRUE(dx1.allClose(ref_dx1, 1e-6f));
}

} // namespace
} // namespace optimus
