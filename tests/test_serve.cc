/**
 * @file
 * Serving-path contracts: incremental KV-cache decode is bitwise
 * equal to full-sequence recompute, the continuous-batching engine
 * reproduces the single-request full-recompute oracle for every
 * request under any admission interleaving, Infer mode never
 * constructs stash storage, and pipelined serving traffic is
 * accounted in the InterStage CommEvent stream (exactly, one event
 * per stacked pass, and with smaller wire bytes when a lossy
 * boundary compressor is installed), and a reused engine keeps
 * matching the oracle wave after wave while batching beats
 * serialized decode in tokens/s. The ctest legs re-run this suite
 * across OPTIMUS_THREADS and OPTIMUS_SIMD=scalar.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "comm/transport.hh"
#include "nn/attention.hh"
#include "obs/clock.hh"
#include "runtime/runtime.hh"
#include "serve/engine.hh"
#include "tensor/arena.hh"
#include "tensor/simd.hh"
#include "test_util.hh"

using namespace optimus;

namespace
{

GptConfig
tinyModel()
{
    GptConfig model;
    model.vocab = 24;
    model.hidden = 16;
    model.layers = 4;
    model.heads = 2;
    model.seqLen = 16;
    model.seed = 77;
    return model;
}

/** Deterministic activation fill (no RNG: reproducible per cell). */
void
fillCells(Tensor &t)
{
    float *d = t.data();
    for (int64_t i = 0; i < t.size(); ++i)
        d[i] = 0.1f * static_cast<float>((i * 31 + 7) % 13 - 6);
}

/** Deterministic prompt mix with lengths 3 .. 2 + @p lengths. */
std::vector<std::vector<int32_t>>
mixedPrompts(int count, int lengths = 3)
{
    std::vector<std::vector<int32_t>> prompts;
    for (int r = 0; r < count; ++r) {
        std::vector<int32_t> prompt;
        for (int t = 0; t < 3 + r % lengths; ++t)
            prompt.push_back((7 * r + 3 * t + 1) % 24);
        prompts.push_back(std::move(prompt));
    }
    return prompts;
}

/** Collect per-request generated tokens keyed by request id. */
std::map<int64_t, std::vector<int32_t>>
attachCollector(serve::ServeEngine &engine)
{
    std::map<int64_t, std::vector<int32_t>> outputs;
    auto *out = &outputs;
    engine.setFinishCallback(
        [out](const serve::FinishedRequest &done) {
            (*out)[done.id] = std::vector<int32_t>(
                done.tokens.begin() + done.promptLen,
                done.tokens.end());
        });
    return outputs;
}

TEST(Serve, AttentionIncrementalMatchesRecompute)
{
    const int64_t hidden = 16, heads = 2, seq = 12;
    Rng rng(123);
    MultiHeadAttention attn("attn", hidden, heads, seq, rng);
    attn.setMode(Mode::Infer);

    Tensor x({seq, hidden});
    fillCells(x);

    // Plain Infer forward is the full-sequence recompute reference.
    const Tensor full = attn.forward(x);

    // Chunked prefill (5 rows at once) then single-token decode
    // must reproduce it bit for bit.
    KvCache cache;
    cache.ensure(seq, hidden);
    const int64_t prefill = 5;
    Tensor head({prefill, hidden});
    for (int64_t i = 0; i < prefill * hidden; ++i)
        head.data()[i] = x.data()[i];
    Tensor y = attn.forwardCached(head, cache);
    for (int64_t i = 0; i < prefill * hidden; ++i)
        ASSERT_EQ(full.data()[i], y.data()[i]) << "prefill row";

    for (int64_t r = prefill; r < seq; ++r) {
        Tensor row({1, hidden});
        for (int64_t c = 0; c < hidden; ++c)
            row.data()[c] = x.data()[r * hidden + c];
        Tensor yr = attn.forwardCached(row, cache);
        for (int64_t c = 0; c < hidden; ++c)
            ASSERT_EQ(full.data()[r * hidden + c], yr.data()[c])
                << "decode row " << r << " col " << c;
    }
    EXPECT_EQ(cache.len, seq);
}

/**
 * Infer attention of every position of @p x, computed the way the
 * serving path did before its row kernels: one dotDouble call per
 * (query, key), std::exp softmax, and a j-ascending context loop of
 * one multiply and one add per step. The projections reuse the
 * layer's own parameters (their GEMM rows are batch-invariant).
 */
Tensor
perKeyAttentionOracle(const MultiHeadAttention &attn, const Tensor &x)
{
    const std::vector<ParamPtr> p = attn.params();
    Linear qkv(p[0], p[1]), proj(p[2], p[3]);
    qkv.setMode(Mode::Infer);
    proj.setMode(Mode::Infer);
    const int64_t rows = x.rows(), h = attn.hidden();
    const int64_t heads = attn.heads(), dh = attn.headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    const simd::Tier tier = simd::tier();
    const Tensor qkv_out = qkv.forward(x);
    const float *qd = qkv_out.data();
    Tensor ctx({rows, h});
    std::vector<float> s(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t hd = 0; hd < heads; ++hd) {
            const float *qrow = qd + r * 3 * h + hd * dh;
            for (int64_t j = 0; j <= r; ++j)
                s[j] = static_cast<float>(simd::dotDouble(
                           tier, qrow, qd + j * 3 * h + h + hd * dh,
                           dh)) *
                       scale;
            float max_val = s[0];
            for (int64_t j = 1; j <= r; ++j)
                max_val = s[j] > max_val ? s[j] : max_val;
            double denom = 0.0;
            for (int64_t j = 0; j <= r; ++j) {
                s[j] = std::exp(s[j] - max_val);
                denom += s[j];
            }
            const float inv = static_cast<float>(1.0 / denom);
            for (int64_t j = 0; j <= r; ++j)
                s[j] *= inv;
            float *out = ctx.data() + r * h + hd * dh;
            for (int64_t c = 0; c < dh; ++c)
                out[c] = 0.0f;
            for (int64_t j = 0; j <= r; ++j) {
                const float *vrow = qd + j * 3 * h + 2 * h + hd * dh;
                for (int64_t c = 0; c < dh; ++c)
                    out[c] += s[j] * vrow[c];
            }
        }
    }
    return proj.forward(ctx);
}

/**
 * forwardCached (a 5-row prefill, then one row per call) and a
 * stacked two-segment forwardSegments pass per position must give
 * perKeyAttentionOracle's bits at every position of @p x.
 */
void
expectCachedMatchesOracle(MultiHeadAttention &attn, const Tensor &x,
                          const char *label)
{
    const int64_t seq = x.rows(), hidden = x.cols();
    const Tensor want = perKeyAttentionOracle(attn, x);
    auto rowsOf = [&](int64_t r0, int64_t count) {
        Tensor t({count, hidden});
        std::memcpy(t.data(), x.data() + r0 * hidden,
                    sizeof(float) * count * hidden);
        return t;
    };
    auto expectRows = [&](const Tensor &got, int64_t got_row, int64_t r0,
                          int64_t count, const char *path) {
        ASSERT_EQ(std::memcmp(got.data() + got_row * hidden,
                              want.data() + r0 * hidden,
                              sizeof(float) * count * hidden),
                  0)
            << label << " " << path << " hidden=" << hidden << " rows "
            << r0 << ".." << r0 + count - 1;
    };

    KvCache cache;
    cache.ensure(seq, hidden);
    const int64_t prefill = 5;
    expectRows(attn.forwardCached(rowsOf(0, prefill), cache), 0, 0,
               prefill, "forwardCached prefill");
    for (int64_t r = prefill; r < seq; ++r)
        expectRows(attn.forwardCached(rowsOf(r, 1), cache), 0, r, 1,
                   "forwardCached decode");

    // Segment a runs position r and segment b the same sequence one
    // position behind, both in one pass.
    KvCache a, b;
    a.ensure(seq, hidden);
    b.ensure(seq, hidden);
    for (int64_t r = 0; r < seq; ++r) {
        const int64_t segments = r == 0 ? 1 : 2;
        Tensor stacked({segments, hidden});
        std::memcpy(stacked.data(), x.data() + r * hidden,
                    sizeof(float) * hidden);
        if (r > 0)
            std::memcpy(stacked.data() + hidden,
                        x.data() + (r - 1) * hidden,
                        sizeof(float) * hidden);
        const KvSegment segs[2] = {{&a, 1}, {&b, 1}};
        const Tensor y = attn.forwardSegments(
            stacked, {segs, static_cast<size_t>(segments)}, 0);
        expectRows(y, 0, r, 1, "forwardSegments");
        if (r > 0)
            expectRows(y, 1, r - 1, 1, "forwardSegments behind");
    }
}

TEST(Serve, CachedAttentionMatchesPerKeyOracle)
{
    // Contexts 1..64 at head widths 12 and 16, random weights and
    // biases.
    const int64_t seq = 64;
    for (const auto &[hidden, heads] :
         {std::pair<int64_t, int64_t>{24, 2}, {32, 2}}) {
        Rng rng(static_cast<uint64_t>(hidden));
        MultiHeadAttention attn("attn", hidden, heads, seq, rng, 0.3f);
        attn.setMode(Mode::Infer);
        for (const ParamPtr &param : attn.params())
            if (param->value.rank() == 1)
                param->value = Tensor::randn(param->value.shape(), rng,
                                             0.0f, 0.1f);
        expectCachedMatchesOracle(attn, Tensor::randn({seq, hidden}, rng),
                                  "random");
    }

    // Cancelling scores at head width 16: q = x, k = x * d and v = x
    // (exact copies through the qkv GEMM), where within each head
    // x[0] == x[2] ~ 2^20 and d[0] == -d[2] == 2^14. The key terms
    // of dimensions 0 and 2 cancel exactly, and every other term
    // lies below their double ulp, so a score's bits depend on the
    // order in which its terms are added.
    const int64_t hidden = 32, heads = 2, dh = hidden / heads;
    Rng rng(99);
    MultiHeadAttention attn("attn", hidden, heads, seq, rng);
    attn.setMode(Mode::Infer);
    const std::vector<ParamPtr> params = attn.params();
    Tensor &w = params[0]->value; // [hidden x 3 hidden]
    w.setZero();
    params[1]->value.setZero();
    for (int64_t i = 0; i < hidden; ++i) {
        const int64_t c = i % dh;
        const float d = c == 0 ? 16384.0f : c == 2 ? -16384.0f : 1.0f;
        w.data()[i * 3 * hidden + i] = 1.0f;
        w.data()[i * 3 * hidden + hidden + i] = d;
        w.data()[i * 3 * hidden + 2 * hidden + i] = 1.0f;
    }
    Tensor x = Tensor::randn({seq, hidden}, rng);
    for (int64_t r = 0; r < seq; ++r) {
        for (int64_t h0 = 0; h0 < hidden; h0 += dh) {
            float *head = x.data() + r * hidden + h0;
            head[0] = std::ldexp(1.0f + 0.5f * std::fabs(head[0]), 20);
            head[2] = head[0];
        }
    }
    expectCachedMatchesOracle(attn, x, "cancelling");
}

TEST(Serve, EngineMatchesReferenceAcrossPipelineDepths)
{
    const GptConfig model = tinyModel();
    const std::vector<int32_t> prompt = {3, 1, 4, 1, 5};
    const int64_t max_new = 8;
    const std::vector<int32_t> expect =
        serve::referenceGreedyDecode(model, prompt, max_new);
    ASSERT_EQ(static_cast<int64_t>(expect.size()), max_new);

    for (int stages : {1, 2, 4}) {
        serve::ServeConfig config;
        config.model = model;
        config.pipelineStages = stages;
        config.maxSequences = 2;
        config.maxBatchTokens = 16;
        serve::ServeEngine engine(config);
        auto outputs = attachCollector(engine);

        const int64_t id = engine.submit(prompt, max_new);
        engine.drain();

        ASSERT_TRUE(engine.idle());
        ASSERT_EQ(engine.completedRequests(), 1);
        ASSERT_EQ(outputs.count(id), 1u);
        EXPECT_EQ(outputs[id], expect)
            << "pipelineStages=" << stages;
    }
}

TEST(Serve, BatchingIsInterleavingInvariant)
{
    const GptConfig model = tinyModel();
    const auto prompts = mixedPrompts(6);
    const int64_t max_new = 6;

    // Oracle: every request decoded alone by full recompute.
    std::vector<std::vector<int32_t>> expect;
    for (const auto &prompt : prompts)
        expect.push_back(
            serve::referenceGreedyDecode(model, prompt, max_new));

    serve::ServeConfig config;
    config.model = model;
    config.pipelineStages = 2;
    config.maxSequences = 3;
    config.maxBatchTokens = 12;

    // Arrival pattern A: everything up front.
    serve::ServeEngine burst(config);
    auto burst_out = attachCollector(burst);
    std::vector<int64_t> burst_ids;
    for (const auto &prompt : prompts)
        burst_ids.push_back(burst.submit(prompt, max_new));
    burst.drain();

    // Arrival pattern B: trickled between decode iterations.
    serve::ServeEngine trickle(config);
    auto trickle_out = attachCollector(trickle);
    std::vector<int64_t> trickle_ids;
    size_t next = 0;
    while (next < prompts.size() || !trickle.idle()) {
        if (next < prompts.size()) {
            trickle_ids.push_back(
                trickle.submit(prompts[next], max_new));
            ++next;
        }
        trickle.step();
        trickle.step();
    }

    ASSERT_EQ(burst.completedRequests(), 6);
    ASSERT_EQ(trickle.completedRequests(), 6);
    for (size_t r = 0; r < prompts.size(); ++r) {
        EXPECT_EQ(burst_out[burst_ids[r]], expect[r])
            << "burst request " << r;
        EXPECT_EQ(trickle_out[trickle_ids[r]], expect[r])
            << "trickled request " << r;
    }
}

TEST(Serve, ReusedEngineMatchesOracleAndBatchingBeatsSerialized)
{
    // Closed-loop waves on one engine: the slots a wave retires
    // serve the next, and every wave must still reproduce the
    // full-recompute oracle with its full token budget. A stacked
    // pass runs each row-wise layer as one GEMM over every decoding
    // sequence, so the best batched wave must also beat the best
    // serialized (one-slot) wave in tokens/s, at one thread and at
    // the pool width. The model is wide enough that a prefill pass's
    // GELU fills two dispatch chunks, so the pool width leg pools.
    GptConfig model = tinyModel();
    model.hidden = 256;
    const auto prompts = mixedPrompts(6, 4);
    const int64_t max_new = 8;
    const int reps = 10;
    const int64_t wave_tokens =
        static_cast<int64_t>(prompts.size()) * max_new;
    std::vector<std::vector<int32_t>> expect;
    for (const auto &prompt : prompts)
        expect.push_back(
            serve::referenceGreedyDecode(model, prompt, max_new));

    // One untimed wave sizes the slot arenas, then best of reps.
    const auto best_tokens_per_s = [&](serve::ServeEngine &engine) {
        double best = 0.0;
        for (int rep = 0; rep <= reps; ++rep) {
            const int64_t before = engine.tokensGenerated();
            const int64_t t0 = obs::nowNs();
            for (const auto &prompt : prompts)
                engine.submit(prompt, max_new);
            engine.drain();
            const double s = obs::secondsBetween(t0, obs::nowNs());
            EXPECT_EQ(engine.tokensGenerated() - before, wave_tokens)
                << "wave " << rep;
            if (rep > 0)
                best = std::max(best, wave_tokens / s);
        }
        return best;
    };

    std::vector<int> widths = {1};
    if (runtimeThreads() > 1)
        widths.push_back(runtimeThreads());
    for (int threads : widths) {
        std::optional<SerialRegion> serial_region;
        if (threads == 1)
            serial_region.emplace();

        serve::ServeConfig config;
        config.model = model;
        config.pipelineStages = 2;
        config.maxSequences = 1;
        config.maxBatchTokens = model.seqLen;
        serve::ServeEngine serialized(config);
        config.maxSequences = 8;
        config.maxBatchTokens = 64;
        serve::ServeEngine batched(config);
        auto outputs = attachCollector(batched);

        double serialized_tps = 0.0, batched_tps = 0.0;
        const int regions = test::pooledRegions([&] {
            serialized_tps = best_tokens_per_s(serialized);
            batched_tps = best_tokens_per_s(batched);
        });
        // The pool-width leg must reach the pool, or it repeats the
        // one-thread leg.
        if (threads > 1) {
            EXPECT_GT(regions, 0);
        }

        // Ids ascend in submission order, so entry k of the map is
        // wave k / 6's instance of prompt k % 6.
        ASSERT_EQ(outputs.size(), (reps + 1) * prompts.size());
        size_t k = 0;
        for (const auto &entry : outputs) {
            EXPECT_EQ(entry.second, expect[k % prompts.size()])
                << "threads " << threads << " wave "
                << k / prompts.size() << " request "
                << k % prompts.size();
            ++k;
        }
        EXPECT_GT(batched_tps, serialized_tps)
            << "threads " << threads;
    }
}

TEST(Serve, InferForwardNeverStashes)
{
    const int64_t hidden = 16, heads = 2, seq = 8;
    Rng rng(5);
    MultiHeadAttention attn("attn", hidden, heads, seq, rng);
    Tensor x({seq, hidden});
    fillCells(x);

    // Train mode stashes one entry per forward.
    (void)attn.forward(x);
    EXPECT_EQ(attn.stashDepth(), 1u);
    attn.clearStash();

    // Infer mode never touches the stash...
    attn.setMode(Mode::Infer);
    (void)attn.forward(x);
    EXPECT_EQ(attn.stashDepth(), 0u);

    // ...and a warmed arena-scoped Infer forward allocates nothing:
    // no stash storage is constructed at all, so steady state is
    // pure workspace recycling (mem:: counters are process-wide).
    if (arenaEnabled()) {
        Workspace ws("test.infer");
        {
            WorkspaceScope scope(&ws);
            (void)attn.forward(x);
        }
        const int64_t heap_before = mem::heapAllocs();
        const int64_t hits_before = mem::arenaHits();
        {
            WorkspaceScope scope(&ws);
            (void)attn.forward(x);
        }
        EXPECT_EQ(mem::heapAllocs(), heap_before);
        EXPECT_GT(mem::arenaHits(), hits_before);
    }
}

TEST(Serve, PipelineBoundaryVolumeIsAccounted)
{
    const GptConfig model = tinyModel();
    Transport recorder(true);

    serve::ServeConfig config;
    config.model = model;
    config.pipelineStages = 2;
    config.maxSequences = 2;
    config.maxBatchTokens = 16;
    config.transport = &recorder;
    serve::ServeEngine engine(config);

    const std::vector<int32_t> prompt = {3, 1, 4, 1, 5};
    const int64_t max_new = 6;
    engine.submit(prompt, max_new);
    engine.drain();

    // One boundary (P=2): the prefill moves promptLen rows once,
    // then each of the (max_new - 1) decode rounds moves one row.
    const int64_t prompt_len =
        static_cast<int64_t>(prompt.size());
    const int64_t rows = prompt_len + (max_new - 1);
    const CommVolume vol =
        recorder.trace().volume(CommPhase::InterStage);
    EXPECT_EQ(vol.events, 1 + (max_new - 1));
    EXPECT_EQ(vol.compressedEvents, 0);
    // The engine's ledger agrees with the recording event for event.
    const obs::CompressionHealth health = engine.boundaryHealth();
    EXPECT_EQ(health.sends, vol.events);
    EXPECT_EQ(health.compressedSends, 0);
    EXPECT_EQ(health.exactBytes, vol.exactBytes);
    EXPECT_EQ(health.wireBytes, vol.wireBytes);
    EXPECT_EQ(vol.exactBytes,
              rows * model.hidden *
                  static_cast<int64_t>(sizeof(float)));
    EXPECT_EQ(vol.wireBytes, vol.exactBytes); // exact boundary
}

TEST(Serve, EnginesWithoutTransportKeepTheirOwnLedgers)
{
    // An engine built without a transport owns one, so two such
    // engines alive at once each count only their own boundary
    // sends: prompt rows once, then one row per decode round.
    const GptConfig model = tinyModel();
    serve::ServeConfig config;
    config.model = model;
    config.pipelineStages = 2;
    config.maxSequences = 2;
    config.maxBatchTokens = 16;
    serve::ServeEngine a(config);
    serve::ServeEngine b(config);

    a.submit({3, 1, 4, 1, 5}, 6);
    b.submit({2, 7, 1}, 3);
    while (!a.idle() || !b.idle()) {
        a.step();
        b.step();
    }

    const int64_t row_bytes =
        model.hidden * static_cast<int64_t>(sizeof(float));
    const obs::CompressionHealth ha = a.boundaryHealth();
    EXPECT_EQ(ha.sends, 1 + 5);
    EXPECT_EQ(ha.exactBytes, (5 + 5) * row_bytes);
    EXPECT_EQ(ha.wireBytes, ha.exactBytes);
    const obs::CompressionHealth hb = b.boundaryHealth();
    EXPECT_EQ(hb.sends, 1 + 2);
    EXPECT_EQ(hb.exactBytes, (3 + 2) * row_bytes);
    EXPECT_EQ(hb.wireBytes, hb.exactBytes);
}

TEST(Serve, StackedPassesSendOneBoundaryEventEach)
{
    // Selective batching: a round runs one stacked prefill pass over
    // every prompt it admits and one stacked decode pass over every
    // other active sequence, so each pass crosses each stage
    // boundary exactly once, however many sequences it carries.
    const GptConfig model = tinyModel();
    Transport recorder(true);

    serve::ServeConfig config;
    config.model = model;
    config.pipelineStages = 2;
    config.maxSequences = 5;
    config.maxBatchTokens = 32;
    config.transport = &recorder;
    serve::ServeEngine engine(config);

    const auto prompts = mixedPrompts(5);
    // Round 0 admits two requests; round 1 decodes them while it
    // admits the other three.
    engine.submit(prompts[0], 4);
    engine.submit(prompts[1], 4);
    ASSERT_EQ(engine.step(), 2);
    int64_t admitted_rows = 0;
    for (int r = 2; r < 5; ++r) {
        engine.submit(prompts[r], 4);
        admitted_rows += static_cast<int64_t>(prompts[r].size());
    }
    ASSERT_EQ(engine.step(), 5);

    const int64_t row_bytes =
        model.hidden * static_cast<int64_t>(sizeof(float));
    std::vector<int64_t> round1;
    for (const auto &event : recorder.trace().events()) {
        if (event.phase == CommPhase::InterStage &&
            event.iteration == 1)
            round1.push_back(event.exactBytes);
    }
    ASSERT_EQ(round1.size(), 2u);
    EXPECT_EQ(round1[0], admitted_rows * row_bytes); // prefill pass
    EXPECT_EQ(round1[1], 2 * row_bytes);             // decode pass
}

TEST(Serve, CompressedBoundaryShrinksWireBytes)
{
    const GptConfig model = tinyModel();
    Transport recorder(true);

    serve::ServeConfig config;
    config.model = model;
    config.pipelineStages = 2;
    config.maxSequences = 2;
    config.maxBatchTokens = 16;
    config.transport = &recorder;
    config.boundary.kind = CompressorKind::TopK;
    config.boundary.topkFraction = 0.25;
    serve::ServeEngine engine(config);

    auto outputs = attachCollector(engine);
    const auto prompts = mixedPrompts(2);
    std::vector<int64_t> ids;
    for (const auto &prompt : prompts)
        ids.push_back(engine.submit(prompt, 6));
    engine.drain();

    // Lossy transfer trades bitwise identity for volume: every
    // request still completes with its full token budget, and the
    // recorded wire bytes must be strictly below exact.
    ASSERT_EQ(engine.completedRequests(), 2);
    for (int64_t id : ids)
        EXPECT_EQ(outputs[id].size(), 6u);
    const CommVolume vol =
        recorder.trace().volume(CommPhase::InterStage);
    EXPECT_GT(vol.exactBytes, 0);
    EXPECT_LT(vol.wireBytes, vol.exactBytes);
    EXPECT_EQ(vol.compressedEvents, vol.events);
    const obs::CompressionHealth health = engine.boundaryHealth();
    EXPECT_EQ(health.sends, vol.events);
    EXPECT_EQ(health.compressedSends, vol.compressedEvents);
    EXPECT_EQ(health.wireBytes, vol.wireBytes);
    for (const auto &event : recorder.trace().events()) {
        if (event.phase == CommPhase::InterStage) {
            EXPECT_EQ(static_cast<int>(event.compressor.kind),
                      static_cast<int>(CompressorKind::TopK));
        }
    }
}

} // namespace
