#include "parallel/trainer3d.hh"

#include <cmath>
#include <cstdlib>

#include "obs/metrics.hh"
#include "obs/promexport.hh"
#include "obs/rings.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/** Span-trace output path: config wins, then the env knob. */
std::string
resolveTracePath(const Trainer3dConfig &config)
{
    if (!config.tracePath.empty())
        return config.tracePath;
    if (const char *env = std::getenv("OPTIMUS_TRACE"))
        return env;
    return "";
}

} // namespace

/** Forward-only view of replica 0 used for validation/zero-shot. */
class Trainer3d::ReplicaScorer : public LmScorer
{
  public:
    explicit ReplicaScorer(Trainer3d &trainer) : trainer_(trainer) {}

    Tensor
    scoreLogits(const std::vector<int32_t> &tokens,
                int64_t batch) override
    {
        const int p = trainer_.config_.pipelineStages;
        Tensor h = trainer_.stage(0, 0).forwardTokens(tokens, batch);
        for (int s = 1; s < p; ++s)
            h = trainer_.stage(0, s).forwardHidden(h);
        for (int s = 0; s < p; ++s)
            trainer_.stage(0, s).clearStash();
        return h;
    }

    int64_t seqLen() const override
    {
        return trainer_.config_.model.seqLen;
    }

    int64_t vocab() const override
    {
        return trainer_.config_.model.vocab;
    }

  private:
    Trainer3d &trainer_;
};

Trainer3d::Trainer3d(const Trainer3dConfig &config)
    : config_(config),
      transport_(config.traceCommunication)
{
    const int d_ways = config.dataParallel;
    const int p_ways = config.pipelineStages;
    OPTIMUS_ASSERT(d_ways >= 1 && p_ways >= 1);
    OPTIMUS_ASSERT(config.microBatches >= 1);

    // Resolve the telemetry env knobs (OPTIMUS_TELEMETRY /
    // OPTIMUS_PROBES / thresholds / OPTIMUS_METRICS_PORT) while
    // construction may still allocate freely.
    obs::initTelemetryFromEnv();
    obs::maybeStartMetricsServerFromEnv();

    stepArena_ = std::make_unique<Workspace>("step");
    replicaArenas_.reserve(d_ways);
    for (int d = 0; d < d_ways; ++d)
        replicaArenas_.push_back(
            std::make_unique<Workspace>("replica"));

    tracePath_ = resolveTracePath(config);
    if (!tracePath_.empty() && !obs::tracingEnabled()) {
        obs::startTracing();
        ownsTrace_ = true;
    }

    stages_.resize(d_ways);
    channels_.resize(d_ways);
    optimizers_.resize(d_ways);
    losses_.resize(d_ways);
    for (int d = 0; d < d_ways; ++d) {
        for (int p = 0; p < p_ways; ++p) {
            stages_[d].push_back(std::make_unique<StageModule>(
                config.model, p, p_ways));
            auto params = stages_[d].back()->params();
            optimizers_[d].push_back(std::make_unique<AdamOptimizer>(
                std::move(params), config.learningRate));
        }
        for (int s = 1; s < p_ways; ++s) {
            // Identical compressor seed across replicas: replicas
            // must behave identically given identical data order
            // seeds are per-channel, not per-replica-random.
            channels_[d].push_back(std::make_unique<BackwardChannel>(
                config.cb, p_ways, s,
                config.seed + 17 * s, &transport_, d));
            channels_[d].back()->enableInstrumentation(
                config.instrumentChannels);
        }
    }

    // Aligned per-stage parameter lists, built once: the engines,
    // the gradient-norm probe, and the optimizers all view the same
    // stable Param objects.
    workerParams_.resize(p_ways);
    for (int p = 0; p < p_ways; ++p) {
        workerParams_[p].reserve(d_ways);
        for (int d = 0; d < d_ways; ++d)
            workerParams_[p].push_back(stages_[d][p]->params());
    }

    // The tied embedding tables of the first and last stage are
    // synchronized by embSync_, so the engines give them no bucket.
    std::vector<ParamPtr> first_copies, last_copies;
    std::vector<const Param *> excluded;
    for (int d = 0; d < d_ways; ++d) {
        first_copies.push_back(stages_[d][0]->embeddingTable());
        last_copies.push_back(
            stages_[d][p_ways - 1]->embeddingTable());
        excluded.push_back(first_copies[d].get());
        excluded.push_back(last_copies[d].get());
    }
    embSync_ = std::make_unique<EmbeddingSynchronizer>(
        config.fusedEmbeddingSync, first_copies, last_copies,
        &transport_);

    engines_.reserve(p_ways);
    for (int p = 0; p < p_ways; ++p) {
        ReduceEngineConfig ec;
        ec.compressStage =
            stageSelectedForCompression(config.dp, p, p_ways);
        ec.rank = config.dp.rank;
        ec.errorFeedback = config.dp.errorFeedback;
        ec.seed = config.seed + 31 * (p + 1);
        ec.bucketBytes = config.bucketBytes;
        ec.transport = &transport_;
        engines_.push_back(std::make_unique<ReduceEngine>(
            ec, workerParams_[p], excluded));
    }

    // The step refills these sampled micro-batches in place.
    microBatches_.resize(d_ways * config.microBatches);

    scorer_ = std::make_unique<ReplicaScorer>(*this);
}

Trainer3d::~Trainer3d()
{
    if (ownsTrace_) {
        obs::stopTracing();
        if (!obs::writeTrace(tracePath_))
            warn("failed to write trace to '%s'", tracePath_.c_str());
    }
}

LmScorer &
Trainer3d::scorer()
{
    return *scorer_;
}

StageModule &
Trainer3d::stage(int d, int p)
{
    OPTIMUS_ASSERT(d >= 0 && d < static_cast<int>(stages_.size()));
    OPTIMUS_ASSERT(p >= 0 && p < static_cast<int>(stages_[d].size()));
    return *stages_[d][p];
}

const StageModule &
Trainer3d::stage(int d, int p) const
{
    return *stages_[d][p];
}

BackwardChannel &
Trainer3d::channel(int d, int s)
{
    OPTIMUS_ASSERT(s >= 1 && s < config_.pipelineStages);
    return *channels_[d][s - 1];
}

const ReduceEngine &
Trainer3d::reduceEngine(int p) const
{
    OPTIMUS_ASSERT(p >= 0 &&
                   p < static_cast<int>(engines_.size()));
    return *engines_[p];
}

// optlint:hot — steady-state step path (zero-allocation contract).
IterationStats
Trainer3d::trainIteration(const LmDataset &data, Rng &rng)
{
    const int d_ways = config_.dataParallel;
    const int p_ways = config_.pipelineStages;
    const int m_count = config_.microBatches;
    const int64_t mb_rows = config_.microBatchSize;

    // Serial portions of the step (sampling, embedding sync,
    // optimizer) draw tensor storage from the step arena; the
    // replica loop below installs per-replica scopes. Workspaces
    // rewind when nothing is outstanding and recycle through their
    // free lists otherwise — either way no heap call.
    stepArena_->reset();
    for (auto &arena : replicaArenas_)
        arena->reset();
    WorkspaceScope step_scope(stepArena_.get());

    IterationStats stats;
    double loss_sum = 0.0;

    // Stamp this iteration's transport events (outside any parallel
    // region; the first iteration is 0). The same boundary arms the
    // sampled probe cadence for every channel this step touches.
    transport_.setIteration(iterations_);
    obs::probeStepBegin(iterations_);

    // The comm ledger is cumulative; snapshot it so the returned
    // stats cover this iteration only.
    const CommVolume inter_stage0 = commVolume(CommPhase::InterStage);
    const CommVolume dp_reduce0 = commVolume(CommPhase::DpReduce);
    const CommVolume emb_sync0 = commVolume(CommPhase::EmbSync);

    // Sample the global mini-batch: D * M micro-batches, assigned
    // round-robin-free (contiguous shards) to replicas. The batches
    // persist across iterations and are refilled in place.
    for (int i = 0; i < d_ways * m_count; ++i)
        data.sampleBatchInto(microBatches_[i], mb_rows, rng);

    for (int p = 0; p < p_ways; ++p)
        engines_[p]->beginIteration(reduceGroup_, iterations_);

    if (obs::metricsEnabled()) {
        static obs::Counter &iters =
            obs::MetricsRegistry::instance().counter(
                "trainer.iterations");
        iters.add(1);
    }

    const float inv_m = 1.0f / static_cast<float>(m_count);
    // Every phase boundary below is one obs::nowNs() reading used
    // for both the StepPhaseTimes accumulator and the trace span,
    // so tools/tracesum reconciles with the struct exactly.
    const int64_t t_iter = obs::nowNs();

    // The D replicas touch disjoint state (stages, channels, loss
    // heads, optimizers) until the all-reduce, so they execute
    // concurrently; the only sync point is a stage's bucket reduce,
    // which waits for the D-th replica to finish that stage.
    // Per-replica losses land in a fixed slot and are summed in
    // replica order, keeping the reported loss independent of
    // OPTIMUS_THREADS. Nested parallel regions inside the stages
    // (GEMM, layer kernels) run inline on the issuing worker.
    replicaLoss_.assign(d_ways, 0.0);
    std::vector<double> &replica_loss = replicaLoss_;
    parallelFor(0, d_ways, 1, [&](int64_t d_lo, int64_t d_hi) {
        for (int64_t d = d_lo; d < d_hi; ++d) {
            obs::ScopedSpan replica_span("compute", "replica", d,
                                         "iter", iterations_);
            // Replica-private recycling pool for activations,
            // stashes, and channel buffers.
            WorkspaceScope replica_scope(replicaArenas_[d].get());
            // Forward all micro-batches in order (message order per
            // channel is micro-batch order, identical to 1F1B).
            const int64_t t_fwd =
                obs::tracingEnabled() ? obs::nowNs() : 0;
            for (int m = 0; m < m_count; ++m) {
                const LmBatch &mb = microBatches_[d * m_count + m];
                Tensor h = stages_[d][0]->forwardTokens(mb.tokens,
                                                        mb.batch);
                for (int p = 1; p < p_ways; ++p) {
                    channels_[d][p - 1]->observeForward(h, m);
                    h = stages_[d][p]->forwardHidden(h);
                }
                replica_loss[d] += losses_[d].forward(h, mb.targets);
            }
            if (t_fwd != 0) {
                obs::emitSpan("compute", "forward", t_fwd,
                              obs::nowNs(), d, "iter", iterations_);
            }
            const int64_t t_bwd =
                obs::tracingEnabled() ? obs::nowNs() : 0;
            // Backward all micro-batches in order. On the last
            // micro-batch a stage's gradients are final the moment
            // its backward returns, so they are averaged over the
            // micro-batches (scaled by 1/M) right there and the
            // stage's engine is signalled; the D-th replica's signal
            // puts the stage's buckets on the pool queue while
            // earlier stages are still in backward.
            for (int m = 0; m < m_count; ++m) {
                Tensor g = losses_[d].backward();
                for (int p = p_ways - 1; p >= 1; --p) {
                    g = stages_[d][p]->backwardHidden(g);
                    if (m == m_count - 1) {
                        optimizers_[d][p]->scaleGrad(inv_m);
                        engines_[p]->notifyReplicaDone();
                    }
                    g = channels_[d][p - 1]->send(g, m, m_count);
                }
                g = stages_[d][0]->backwardHidden(g);
                stages_[d][0]->backwardTokens(g);
                if (m == m_count - 1) {
                    optimizers_[d][0]->scaleGrad(inv_m);
                    engines_[0]->notifyReplicaDone();
                }
            }
            if (t_bwd != 0) {
                obs::emitSpan("compute", "backward", t_bwd,
                              obs::nowNs(), d, "iter", iterations_);
            }
        }
    });
    const int64_t t_fb_end = obs::nowNs();
    stats.phases.forwardBackward = obs::secondsBetween(t_iter,
                                                       t_fb_end);
    obs::emitSpan("phase", "forwardBackward", t_iter, t_fb_end,
                  iterations_);
    for (int d = 0; d < d_ways; ++d)
        loss_sum += replica_loss[d];

    // Data-parallel gradient all-reduce: every bucket was enqueued
    // inside the replica loop, so this is the exposed wait only.
    const int64_t t_reduce = obs::nowNs();
    reduceGroup_.wait();
    for (int p = 0; p < p_ways; ++p)
        stats.phases.dpReduceBusy += engines_[p]->busySeconds();
    const int64_t t_reduce_end = obs::nowNs();
    stats.phases.dpReduce = obs::secondsBetween(t_reduce,
                                                t_reduce_end);
    obs::emitSpan("phase", "dpReduce", t_reduce, t_reduce_end,
                  iterations_);

    // Embedding synchronization (baseline or fused).
    const int64_t t_emb = obs::nowNs();
    stats.embVolume = embSync_->synchronize();
    const int64_t t_emb_end = obs::nowNs();
    stats.phases.embSync = obs::secondsBetween(t_emb, t_emb_end);
    obs::emitSpan("phase", "embSync", t_emb, t_emb_end, iterations_);

    // Global gradient norm, sampled after the reduce (replicas are
    // identical, so replica 0 in stage/parameter order suffices)
    // and before the optimizer zeroes the gradients. Read-only
    // observation: probed and unprobed runs stay bitwise identical.
    double grad_norm = -1.0;
    if (obs::probeActive()) {
        double grad_norm_sq = 0.0;
        for (int p = 0; p < p_ways; ++p) {
            for (const auto &param : workerParams_[p][0]) {
                grad_norm_sq += obs::l2NormSq(
                    param->grad.data(),
                    static_cast<size_t>(param->grad.size()));
            }
        }
        grad_norm = std::sqrt(grad_norm_sq);
    }

    // Optimizer update; replicas update identically because their
    // gradients are now identical.
    const int64_t t_opt = obs::nowNs();
    if (config_.applyUpdates) {
        parallelFor(0, d_ways, 1, [&](int64_t d_lo, int64_t d_hi) {
            for (int64_t d = d_lo; d < d_hi; ++d) {
                for (int p = 0; p < p_ways; ++p) {
                    optimizers_[d][p]->step();
                    optimizers_[d][p]->zeroGrad();
                }
            }
        });
    }
    const int64_t t_opt_end = obs::nowNs();
    stats.phases.optimizer = obs::secondsBetween(t_opt, t_opt_end);
    obs::emitSpan("phase", "optimizer", t_opt, t_opt_end,
                  iterations_);

    // Every verb of the step has returned (the replica loop and the
    // reduce group joined), so the ledger deltas are complete.
    const CommVolume inter_stage =
        commVolume(CommPhase::InterStage).delta(inter_stage0);
    const CommVolume dp_reduce =
        commVolume(CommPhase::DpReduce).delta(dp_reduce0);
    const CommVolume emb_sync =
        commVolume(CommPhase::EmbSync).delta(emb_sync0);
    stats.interStageBytes = inter_stage.wireBytes;
    stats.interStageBytesExact = inter_stage.exactBytes;
    stats.dpVolume.exactBytes = dp_reduce.exactBytes;
    stats.dpVolume.actualBytes = dp_reduce.wireBytes;

    stats.loss = loss_sum / static_cast<double>(d_ways * m_count);
    const int64_t t_end = obs::nowNs();
    stats.phases.total = obs::secondsBetween(t_iter, t_end);
    obs::emitSpan("phase", "step", t_iter, t_end, iterations_);
    // Telemetry boundary: ring samples, health-probe rollups, and
    // threshold monitors — all pure observation, all allocation-
    // free once the rings are registered (warmup does that).
    sampleTelemetry(stats, grad_norm, emb_sync.wireBytes);
    // Fold the allocation tallies into obs::metrics and the
    // mem.heapAllocs counter track once per step.
    mem::publishMetrics();
    ++iterations_;
    return stats;
}

obs::CompressionHealth
Trainer3d::ppHealth() const
{
    obs::CompressionHealth h;
    for (const auto &replica : channels_) {
        for (const auto &channel : replica)
            h.merge(channel->health());
    }
    return transport_.health(CommPhase::InterStage, h);
}

obs::CompressionHealth
Trainer3d::dpHealth() const
{
    obs::CompressionHealth h;
    for (const auto &engine : engines_)
        h.merge(engine->health());
    return transport_.health(CommPhase::DpReduce, h);
}

// optlint:hot — runs once per step inside the zero-allocation
// window; rings and alert slots were registered during warmup.
void
Trainer3d::sampleTelemetry(const IterationStats &stats,
                           double grad_norm, int64_t emb_wire_bytes)
{
    if (obs::metricsEnabled()) {
        static obs::Ring &loss_ring =
            obs::RingRegistry::instance().ring("train.loss");
        static obs::Ring &step_ring =
            obs::RingRegistry::instance().ring(
                "train.step.seconds");
        static obs::Ring &fb_ring =
            obs::RingRegistry::instance().ring(
                "train.forwardBackward.seconds");
        static obs::Ring &reduce_ring =
            obs::RingRegistry::instance().ring(
                "train.dpReduce.seconds");
        loss_ring.push(stats.loss);
        step_ring.push(stats.phases.total);
        fb_ring.push(stats.phases.forwardBackward);
        reduce_ring.push(stats.phases.dpReduce);
    }
    if (!obs::probeActive())
        return;

    // Per-window health: cumulative snapshots minus the previous
    // sampled step's (residual norms carry over as state). Only
    // sampled steps pay the health fold and the ring pushes.
    const obs::CompressionHealth pp = ppHealth();
    const obs::CompressionHealth dp = dpHealth();
    const obs::CompressionHealth pp_step = pp.delta(ppHealthPrev_);
    const obs::CompressionHealth dp_step = dp.delta(dpHealthPrev_);
    ppHealthPrev_ = pp;
    dpHealthPrev_ = dp;

    if (obs::metricsEnabled()) {
        static obs::Ring &pp_relerr =
            obs::RingRegistry::instance().ring("probe.pp.relerr");
        static obs::Ring &pp_ratio =
            obs::RingRegistry::instance().ring(
                "probe.pp.wireratio");
        static obs::Ring &pp_residual =
            obs::RingRegistry::instance().ring(
                "probe.pp.residual");
        static obs::Ring &pp_cosine =
            obs::RingRegistry::instance().ring("probe.pp.cosine");
        static obs::Ring &dp_relerr =
            obs::RingRegistry::instance().ring("probe.dp.relerr");
        static obs::Ring &dp_ratio =
            obs::RingRegistry::instance().ring(
                "probe.dp.wireratio");
        static obs::Ring &dp_residual =
            obs::RingRegistry::instance().ring(
                "probe.dp.residual");
        static obs::Ring &dp_cosine =
            obs::RingRegistry::instance().ring("probe.dp.cosine");
        static obs::Ring &emb_bytes =
            obs::RingRegistry::instance().ring("probe.emb.bytes");
        static obs::Ring &gradnorm_ring =
            obs::RingRegistry::instance().ring("train.gradnorm");
        pp_relerr.push(pp_step.relError());
        pp_ratio.push(pp_step.wireRatio());
        pp_residual.push(pp_step.residualNorm());
        pp_cosine.push(pp_step.meanCosine());
        dp_relerr.push(dp_step.relError());
        dp_ratio.push(dp_step.wireRatio());
        dp_residual.push(dp_step.residualNorm());
        dp_cosine.push(dp_step.meanCosine());
        emb_bytes.push(static_cast<double>(emb_wire_bytes));
        gradnorm_ring.push(grad_norm);
    }

    // Threshold monitors -> rate-limited alerts.
    const obs::ProbeThresholds &limits = obs::probeThresholds();
    if (pp_step.compressedSends > 0) {
        obs::monitorThreshold("pp", obs::AlertKind::RelError,
                              iterations_, pp_step.relError(),
                              limits.relErrMax);
    }
    if (dp_step.compressedSends > 0) {
        obs::monitorThreshold("dp", obs::AlertKind::RelError,
                              iterations_, dp_step.relError(),
                              limits.relErrMax);
    }
    // Negative means "not sampled"; a NaN norm is a sampled value.
    if (!(grad_norm < 0.0)) {
        obs::monitorThreshold("train", obs::AlertKind::GradNorm,
                              iterations_, grad_norm,
                              limits.gradNormMax);
    }
    if (haveBestLoss_ && limits.lossFactor > 0.0) {
        obs::monitorThreshold("train", obs::AlertKind::LossDrift,
                              iterations_, stats.loss,
                              limits.lossFactor * bestLoss_);
    }
    if (!haveBestLoss_ || stats.loss < bestLoss_) {
        bestLoss_ = stats.loss;
        haveBestLoss_ = true;
    }
}

double
Trainer3d::validatePerplexity(const LmDataset &val)
{
    const auto batches = val.evalBatches(8);
    OPTIMUS_ASSERT(!batches.empty());
    double nll_sum = 0.0;
    for (const auto &b : batches) {
        Tensor logits = scorer_->scoreLogits(b.tokens, b.batch);
        nll_sum += SoftmaxCrossEntropy::evaluate(logits, b.targets);
    }
    return SoftmaxCrossEntropy::perplexity(
        nll_sum / static_cast<double>(batches.size()));
}

float
Trainer3d::replicaDivergence() const
{
    float worst = 0.0f;
    const int d_ways = config_.dataParallel;
    for (int p = 0; p < config_.pipelineStages; ++p) {
        const auto reference = stages_[0][p]->params();
        for (int d = 1; d < d_ways; ++d) {
            const auto other = stages_[d][p]->params();
            OPTIMUS_ASSERT(other.size() == reference.size());
            for (size_t j = 0; j < reference.size(); ++j) {
                const Tensor &a = reference[j]->value;
                const Tensor &b = other[j]->value;
                OPTIMUS_ASSERT(a.size() == b.size());
                for (int64_t i = 0; i < a.size(); ++i) {
                    const float diff = std::fabs(a[i] - b[i]);
                    if (diff > worst)
                        worst = diff;
                }
            }
        }
    }
    return worst;
}

int64_t
Trainer3d::lepBufferBytes() const
{
    int64_t total = 0;
    for (const auto &replica : channels_) {
        for (const auto &ch : replica)
            total += ch->errorBufferBytes();
    }
    return total;
}

int64_t
Trainer3d::compressorStateBytes() const
{
    int64_t total = 0;
    for (const auto &replica : channels_) {
        for (const auto &ch : replica)
            total += ch->compressorStateBytes();
    }
    for (const auto &engine : engines_)
        total += engine->stateBytes();
    return total;
}

int64_t
Trainer3d::parameterBytes() const
{
    int64_t total = 0;
    for (int p = 0; p < config_.pipelineStages; ++p) {
        for (const auto &param : stages_[0][p]->params())
            total += static_cast<int64_t>(sizeof(float)) *
                     param->size();
    }
    return total;
}

} // namespace optimus
