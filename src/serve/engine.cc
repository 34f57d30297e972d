#include "serve/engine.hh"

#include <span>

#include "obs/metrics.hh"
#include "obs/promexport.hh"
#include "obs/rings.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace optimus
{
namespace serve
{

namespace
{

/** Greedy sample: argmax over one logits row, lowest id wins ties. */
int32_t
argmaxRow(const Tensor &logits, int64_t row)
{
    const int64_t vocab = logits.cols();
    const float *d = logits.data() + row * vocab;
    int64_t best = 0;
    for (int64_t t = 1; t < vocab; ++t) {
        if (d[t] > d[best])
            best = t;
    }
    return static_cast<int32_t>(best);
}

} // namespace

ServeEngine::ServeEngine(const ServeConfig &config)
    : config_(config),
      blocksPerStage_(0),
      stepArena_(std::make_unique<Workspace>("serve.step"))
{
    OPTIMUS_ASSERT(config_.pipelineStages >= 1);
    OPTIMUS_ASSERT(config_.model.layers % config_.pipelineStages == 0);
    OPTIMUS_ASSERT(config_.maxSequences >= 1);
    OPTIMUS_ASSERT(config_.maxBatchTokens >= 1);
    obs::initTelemetryFromEnv();
    obs::maybeStartMetricsServerFromEnv();
    blocksPerStage_ = config_.model.layers / config_.pipelineStages;

    if (!config_.transport)
        ownedTransport_ = std::make_unique<Transport>();
    transport_ =
        config_.transport ? config_.transport : ownedTransport_.get();

    stages_.reserve(static_cast<size_t>(config_.pipelineStages));
    for (int s = 0; s < config_.pipelineStages; ++s) {
        stages_.push_back(std::make_unique<StageModule>(
            config_.model, s, config_.pipelineStages));
        stages_.back()->setMode(Mode::Infer);
    }

    // One stateful channel per boundary (warm starts are per
    // stream, matching the trainer's per-channel compressors).
    if (config_.boundary.kind != CompressorKind::None) {
        for (int s = 0; s + 1 < config_.pipelineStages; ++s)
            boundaryCompressors_.push_back(
                makeCompressor(config_.boundary));
    }

    slots_.resize(static_cast<size_t>(config_.maxSequences));
    for (auto &seq : slots_) {
        seq.arena = std::make_unique<Workspace>("serve.slot");
        seq.kv.resize(static_cast<size_t>(config_.model.layers));
    }
    decodeSlots_.reserve(static_cast<size_t>(config_.maxSequences));
    admittedSlots_.reserve(
        static_cast<size_t>(config_.maxSequences));
    segments_.resize(static_cast<size_t>(config_.maxSequences));
}

int64_t
ServeEngine::submit(const std::vector<int32_t> &prompt,
                    int64_t max_new_tokens)
{
    OPTIMUS_ASSERT(!prompt.empty());
    OPTIMUS_ASSERT(max_new_tokens >= 1);
    OPTIMUS_ASSERT(static_cast<int64_t>(prompt.size()) +
                       max_new_tokens <=
                   config_.model.seqLen);

    PendingRequest &req = pending_.pushSlot();
    req.id = nextId_++;
    // Copy-assign into the recycled slot (keeps its capacity).
    req.prompt = prompt;
    req.maxNewTokens = max_new_tokens;
    req.submitNs = obs::nowNs();
    if (obs::metricsEnabled())
        obs::MetricsRegistry::instance().counter("serve.requests")
            .add(1);
    return req.id;
}

int64_t
ServeEngine::activeSequences() const
{
    int64_t n = 0;
    for (const auto &seq : slots_)
        n += seq.active ? 1 : 0;
    return n;
}

bool
ServeEngine::idle() const
{
    return pending_.empty() && activeSequences() == 0;
}

void
ServeEngine::drain()
{
    while (!idle())
        step();
}

int64_t
ServeEngine::step()
{
    obs::ScopedSpan span("serve", "serve.step", iteration_);
    const int64_t t0 = obs::metricsEnabled() ? obs::nowNs() : 0;
    transport_->setIteration(iteration_);
    obs::probeStepBegin(iteration_);
    WorkspaceScope step_scope(stepArena_.get());

    retireFinished();

    // Every sequence still active decodes one token this round;
    // charge them against the budget before admitting prompts.
    decodeSlots_.clear();
    for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].active) {
            // optlint:coldalloc — capacity reserved at construction.
            decodeSlots_.push_back(static_cast<int64_t>(i));
        }
    }
    const int64_t decoding = static_cast<int64_t>(decodeSlots_.size());
    int64_t budget = config_.maxBatchTokens - decoding;
    const int64_t before = tokensGenerated_;
    const int64_t prompt_rows = admitPending(budget);
    if (!admittedSlots_.empty()) {
        obs::ScopedSpan span(
            "serve", "serve.prefill", iteration_, "rows", prompt_rows,
            "seqs", static_cast<int64_t>(admittedSlots_.size()));
        runPass(admittedSlots_);
    }
    if (decoding > 0) {
        obs::ScopedSpan span("serve", "serve.decode", iteration_,
                             "rows", decoding);
        runPass(decodeSlots_);
    }

    const int64_t produced = tokensGenerated_ - before;
    if (obs::metricsEnabled() && produced > 0)
        obs::MetricsRegistry::instance().counter("serve.tokens")
            .add(produced);
    sampleTelemetry(produced,
                    t0 ? obs::secondsBetween(t0, obs::nowNs()) : 0.0);
    mem::publishMetrics();
    ++iteration_;
    return produced;
}

void
ServeEngine::retireFinished()
{
    for (auto &seq : slots_) {
        if (!seq.finished())
            continue;
        const int64_t latency_ns = obs::nowNs() - seq.submitNs;
        latencyUs_.add(latency_ns / 1000);
        if (obs::metricsEnabled()) {
            obs::MetricsRegistry::instance()
                .counter("serve.completed")
                .add(1);
            obs::MetricsRegistry::instance()
                .histogram("serve.latencyUs")
                .observe(latency_ns / 1000);
        }
        if (onFinish_) {
            FinishedRequest done{seq.id, seq.tokens, seq.promptLen,
                                 latency_ns};
            onFinish_(done);
        }
        seq.active = false;
        seq.id = -1;
        ++completed_;
    }
}

int64_t
ServeEngine::admitPending(int64_t &budget)
{
    admittedSlots_.clear();
    int64_t rows = 0;
    while (!pending_.empty()) {
        int64_t slot = -1;
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].active) {
                slot = static_cast<int64_t>(i);
                break;
            }
        }
        if (slot < 0)
            break;

        PendingRequest &req = pending_.front();
        const int64_t cost = static_cast<int64_t>(req.prompt.size());
        // Over-budget admission waits — unless nothing is running,
        // so a prompt longer than the whole budget still progresses.
        if (cost > budget && activeSequences() > 0)
            break;

        Sequence &seq = slots_[slot];
        seq.id = req.id;
        seq.active = true;
        seq.promptLen = cost;
        seq.maxNewTokens = req.maxNewTokens;
        seq.submitNs = req.submitNs;
        // Copy-assign reuses the slot's ratcheted capacity; the
        // reserve sizes it for the whole response up front so
        // decode-time appends never grow it.
        seq.tokens = req.prompt;
        // optlint:coldalloc — admission-time capacity ratchet.
        seq.tokens.reserve(
            static_cast<size_t>(cost + seq.maxNewTokens));
        {
            WorkspaceScope scope(seq.arena.get());
            for (auto &cache : seq.kv)
                cache.ensure(config_.model.seqLen,
                             config_.model.hidden);
        }
        pending_.popFront();
        budget -= cost;
        if (budget < 0)
            budget = 0;
        rows += cost;
        // optlint:coldalloc — capacity reserved at construction.
        admittedSlots_.push_back(slot);
    }
    return rows;
}

// optlint:hot — the steady-state serving path: one token per
// sequence with zero heap allocations once slots are warm.
void
ServeEngine::runPass(const std::vector<int64_t> &slot_idx)
{
    const int64_t n = static_cast<int64_t>(slot_idx.size());
    const int64_t h = config_.model.hidden;
    const int64_t bps = blocksPerStage_;

    // A sequence's pending rows are the tokens its caches have not
    // seen yet: the whole prompt after admission, the newest token
    // while decoding.
    int64_t total = 0;
    for (int64_t i = 0; i < n; ++i) {
        const Sequence &seq = slots_[slot_idx[i]];
        segments_[i].rows =
            static_cast<int64_t>(seq.tokens.size()) - seq.kv[0].len;
        total += segments_[i].rows;
    }
    const std::span<const KvSegment> segments(segments_.data(),
                                              static_cast<size_t>(n));

    // Stacked pass input (engine step arena): segment i's rows sit
    // back to back after segment i - 1's.
    Tensor x({total, h});
    int64_t row0 = 0;
    for (int64_t i = 0; i < n; ++i) {
        const Sequence &seq = slots_[slot_idx[i]];
        const int64_t pos0 = seq.kv[0].len;
        stages_[0]->inferEmbedInto(seq.tokens.data() + pos0,
                                   segments_[i].rows, pos0, x, row0);
        row0 += segments_[i].rows;
    }
    for (size_t s = 0; s < stages_.size(); ++s) {
        if (s > 0)
            boundaryTransfer(static_cast<int>(s) - 1, x);
        for (int64_t i = 0; i < n; ++i)
            segments_[i].kv = slots_[slot_idx[i]].kv.data() +
                              static_cast<int64_t>(s) * bps;
        x = stages_[s]->inferBlocks(x, segments);
    }

    // Only each segment's last row feeds the head: rows are
    // independent, so gathering first is bitwise neutral and skips
    // the prompt rows' wasted vocab projections.
    Tensor last({n, h});
    const float *xd = x.data();
    float *ld = last.data();
    int64_t row_end = 0;
    for (int64_t i = 0; i < n; ++i) {
        row_end += segments_[i].rows;
        const float *src = xd + (row_end - 1) * h;
        for (int64_t c = 0; c < h; ++c)
            ld[i * h + c] = src[c];
    }
    const Tensor logits = stages_.back()->inferLogits(last);
    for (int64_t i = 0; i < n; ++i) {
        // optlint:coldalloc — capacity reserved at admission.
        slots_[slot_idx[i]].tokens.push_back(argmaxRow(logits, i));
    }
    tokensGenerated_ += n;
}

void
ServeEngine::boundaryTransfer(int src_stage, Tensor &acts)
{
    const int64_t exact =
        acts.size() * static_cast<int64_t>(sizeof(float));
    int64_t wire = exact;
    CompressorSpec spec; // kind None: exact transfer
    if (!boundaryCompressors_.empty()) {
        // The receiving stage decodes from the lossy
        // reconstruction, exactly like the trainer's compressed
        // backward channels.
        Compressor &channel = *boundaryCompressors_[src_stage];
        wire = channel.compress(acts, boundaryRecon_);
        const float *rd = boundaryRecon_.data();
        float *ad = acts.data();
        const int64_t n = acts.size();
        // Observe before the reconstruction overwrites the
        // activations: the exact boundary payload against what the
        // next stage will actually decode from.
        boundaryProbe_.observe(ad, rd, static_cast<size_t>(n));
        for (int64_t c = 0; c < n; ++c)
            ad[c] = rd[c];
        spec = config_.boundary;
    }
    transport_->p2pSend(CommPhase::InterStage, src_stage, src_stage + 1,
                        -1, exact, wire, spec);
}

obs::CompressionHealth
ServeEngine::boundaryHealth() const
{
    // The boundary is the engine's only traffic, so the ledger's
    // InterStage entry is exactly the boundary's sends and bytes.
    return transport_->health(CommPhase::InterStage, boundaryProbe_);
}

// optlint:hot — runs once per scheduler round inside the
// zero-allocation window; rings and alert slots were registered
// during the warmup waves.
void
ServeEngine::sampleTelemetry(int64_t produced, double step_seconds)
{
    if (obs::metricsEnabled()) {
        static obs::Ring &tokens_ring =
            obs::RingRegistry::instance().ring("serve.tokens");
        static obs::Ring &step_ring =
            obs::RingRegistry::instance().ring(
                "serve.step.seconds");
        static obs::Ring &active_ring =
            obs::RingRegistry::instance().ring("serve.active");
        tokens_ring.push(static_cast<double>(produced));
        step_ring.push(step_seconds);
        active_ring.push(static_cast<double>(activeSequences()));
    }
    if (!obs::probeActive())
        return;

    const obs::CompressionHealth health = boundaryHealth();
    const obs::CompressionHealth round =
        health.delta(boundaryHealthPrev_);
    boundaryHealthPrev_ = health;

    if (obs::metricsEnabled()) {
        static obs::Ring &relerr_ring =
            obs::RingRegistry::instance().ring(
                "probe.serve.relerr");
        static obs::Ring &ratio_ring =
            obs::RingRegistry::instance().ring(
                "probe.serve.wireratio");
        static obs::Ring &cosine_ring =
            obs::RingRegistry::instance().ring(
                "probe.serve.cosine");
        relerr_ring.push(round.relError());
        ratio_ring.push(round.wireRatio());
        cosine_ring.push(round.meanCosine());
    }

    // Boundary-reconstruction monitor, mirroring the trainer's
    // channel monitors.
    if (round.compressedSends > 0) {
        obs::monitorThreshold("serve", obs::AlertKind::RelError,
                              iteration_, round.relError(),
                              obs::probeThresholds().relErrMax);
    }
}

std::vector<int32_t>
referenceGreedyDecode(const GptConfig &config,
                      const std::vector<int32_t> &prompt,
                      int64_t max_new_tokens)
{
    OPTIMUS_ASSERT(!prompt.empty());
    OPTIMUS_ASSERT(static_cast<int64_t>(prompt.size()) +
                       max_new_tokens <=
                   config.seqLen);

    StageModule stage(config, 0, 1);
    stage.setMode(Mode::Infer);

    std::vector<int32_t> tokens = prompt;
    tokens.reserve(prompt.size() +
                   static_cast<size_t>(max_new_tokens));
    std::vector<KvCache> caches(
        static_cast<size_t>(config.layers));
    std::vector<int32_t> out;
    out.reserve(static_cast<size_t>(max_new_tokens));

    const int64_t h = config.hidden;
    for (int64_t t = 0; t < max_new_tokens; ++t) {
        // ensure() drops cached positions: every token is a full
        // prefix recompute, the slowest-but-simplest oracle.
        const int64_t n = static_cast<int64_t>(tokens.size());
        for (auto &cache : caches)
            cache.ensure(n, h);

        Tensor x = stage.inferEmbed(tokens.data(), n, 0);
        x = stage.inferBlocks(x, caches.data());

        Tensor last_row({1, h});
        float *ld = last_row.data();
        const float *xd = x.data() + (n - 1) * h;
        for (int64_t c = 0; c < h; ++c)
            ld[c] = xd[c];
        Tensor logits = stage.inferLogits(last_row);

        const int32_t tok = argmaxRow(logits, 0);
        tokens.push_back(tok);
        out.push_back(tok);
    }
    return out;
}

} // namespace serve
} // namespace optimus
