/**
 * @file
 * The two training workloads, both driven through Trainer3d:
 *
 *  train_cc     the paper's technique set at D=4 x P=4: compressed
 *               backpropagation with lazy error propagation and
 *               epilogue-only compression, selective stage
 *               compression (0.75) with PowerSGD on the DP gradients,
 *               fused embedding sync, and few tokens per step
 *               relative to the parameter count, so compression,
 *               communication, reduction and task scheduling carry
 *               real weight;
 *  train_dense  a plain single-worker run (D=1, P=1, no compression)
 *               of a wider model with longer sequences, so GEMM and
 *               the nn layers do almost all of the work.
 *
 * Each run trains a fixed number of steps on a fixed corpus, from
 * fixed initial weights and a fixed batch stream, before it scores
 * val_ppl: quality depends neither on machine speed nor on the seed,
 * so any change to the training numerics shows at every seed. Timing
 * continues on the same trainer, on batches drawn from --seed, until
 * the requested seconds have passed.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "bench.hh"
#include "data/corpus.hh"
#include "layers.hh"
#include "obs/tracesum.hh"
#include "parallel/trainer3d.hh"
#include "trace_read.hh"

using namespace optimus;

namespace perfbench
{

namespace
{

/** Seed of the fixed quality-phase batch stream. */
constexpr uint64_t kQualityBatchSeed = 123;

struct TrainSpec
{
    const char *name = "";
    GptConfig model;
    int d = 1, p = 1, m = 1, b = 1;
    /** Paper techniques: CB (+LEP, epilogue-only), SC 0.75, FE. */
    bool compress = false;
    /** Steps from trainer construction to the val_ppl score. */
    int qualitySteps = 0;
    int64_t corpusTokens = 0;

    int64_t tokensPerStep() const
    {
        return static_cast<int64_t>(d) * m * b * model.seqLen;
    }
};

TrainSpec
ccSpec(bool smoke)
{
    TrainSpec spec;
    spec.name = "train_cc";
    spec.model.vocab = smoke ? 24 : 64;
    spec.model.hidden = smoke ? 16 : 64;
    spec.model.layers = smoke ? 4 : 8;
    spec.model.heads = smoke ? 2 : 4;
    spec.model.seqLen = 8;
    spec.d = smoke ? 2 : 4;
    spec.p = smoke ? 2 : 4;
    spec.m = 4;
    spec.b = 2;
    spec.compress = true;
    spec.qualitySteps = smoke ? 4 : 100;
    spec.corpusTokens = smoke ? 4000 : 40000;
    return spec;
}

TrainSpec
denseSpec(bool smoke)
{
    TrainSpec spec;
    spec.name = "train_dense";
    spec.model.vocab = smoke ? 24 : 64;
    spec.model.hidden = smoke ? 16 : 128;
    spec.model.layers = smoke ? 2 : 4;
    spec.model.heads = smoke ? 2 : 4;
    spec.model.seqLen = smoke ? 16 : 64;
    spec.m = 1;
    spec.b = 4;
    spec.qualitySteps = smoke ? 4 : 100;
    spec.corpusTokens = smoke ? 4000 : 40000;
    return spec;
}

/** Transport bytes the steps handed over, split by phase. */
struct WireTally
{
    int64_t interStage = 0, dpReduce = 0, embSync = 0;
    int64_t exact = 0;

    int64_t wire() const { return interStage + dpReduce + embSync; }

    void add(const IterationStats &stats)
    {
        interStage += stats.interStageBytes;
        dpReduce += stats.dpVolume.actualBytes;
        // Embedding sync is never compressed: one message of the
        // table per step.
        embSync += stats.embVolume.tableBytes;
        exact += stats.interStageBytesExact + stats.dpVolume.exactBytes +
                 stats.embVolume.tableBytes;
    }
};

CorpusConfig
corpusConfig(const TrainSpec &spec)
{
    CorpusConfig cc;
    cc.vocab = spec.model.vocab;
    cc.totalTokens = spec.corpusTokens;
    cc.seed = kCorpusSeed;
    return cc;
}

/** One trainer with its data, from construction to the end of a
 *  run. A non-empty @p trace_path records the obs span trace and the
 *  CommTrace. */
class TrainRun
{
  public:
    TrainRun(const TrainSpec &spec, const std::string &trace_path)
        : corpus_(corpusConfig(spec)),
          train_(corpus_.train(), spec.model.seqLen),
          val_(corpus_.validation(), spec.model.seqLen),
          rng_(kQualityBatchSeed)
    {
        Trainer3dConfig config;
        config.model = spec.model;
        config.dataParallel = spec.d;
        config.pipelineStages = spec.p;
        config.microBatches = spec.m;
        config.microBatchSize = spec.b;
        if (spec.compress) {
            config.cb.enabled = true;
            config.cb.lazyErrorPropagation = true;
            config.cb.epilogueOnly = true;
            config.dp.enabled = true;
            config.dp.stageFraction = 0.75;
            config.fusedEmbeddingSync = true;
        }
        config.tracePath = trace_path;
        config.traceCommunication = !trace_path.empty();
        trainer_ = std::make_unique<Trainer3d>(config);
    }

    /** Step until one step leaves the heap-allocation tally
     *  unchanged (at least two steps, at most eight). */
    void warmUp()
    {
        for (int s = 0; s < 8; ++s) {
            const int64_t before = mem::heapAllocs();
            step();
            if (s >= 1 && mem::heapAllocs() == before)
                return;
        }
    }

    IterationStats step()
    {
        const IterationStats stats =
            trainer_->trainIteration(train_, rng_);
        ++attempted;
        if (!std::isfinite(stats.loss))
            ++failed;
        wire.add(stats);
        return stats;
    }

    double valPpl() { return trainer_->validatePerplexity(val_); }
    /** Draw the following batches from @p seed. */
    void reseed(uint64_t seed) { rng_ = Rng(seed); }
    Trainer3d &trainer() { return *trainer_; }
    const LmDataset &train() const { return train_; }

    int64_t attempted = 0;
    int64_t failed = 0;
    /** Every step since construction, warm-up included. */
    WireTally wire;

  private:
    SyntheticCorpus corpus_;
    LmDataset train_;
    LmDataset val_;
    Rng rng_;
    std::unique_ptr<Trainer3d> trainer_;
};

/** Steps timed on @p run until @p seconds passed (at least
 *  @p min_steps); returns per-step seconds. */
std::vector<double>
timeSteps(TrainRun &run, double seconds, int min_steps,
          std::vector<IterationStats> *stats = nullptr)
{
    std::vector<double> times;
    const double start = now();
    while (static_cast<int>(times.size()) < min_steps ||
           now() - start < seconds) {
        const double t0 = now();
        const IterationStats s = run.step();
        times.push_back(now() - t0);
        if (stats)
            stats->push_back(s);
    }
    return times;
}

void
checkRun(Report &report, TrainRun &run)
{
    report.attempted += run.attempted;
    report.failed += run.failed;
    const float divergence = run.trainer().replicaDivergence();
    report.check(divergence == 0.0f,
                 "replicaDivergence() = " + std::to_string(divergence));
}

/** The quiet step: the shortest of a run's step times (NOTES.md). */
double
quiet(const std::vector<double> &seconds)
{
    return *std::min_element(seconds.begin(), seconds.end());
}

Report
endToEnd(const TrainSpec &spec, const Options &options)
{
    Report report;
    // kSetups set-ups, spread over the run so that their median
    // samples the host over the whole run and not over its first
    // seconds. Each one replaces the trainer; the fixed-count quality
    // phase runs on the first.
    std::vector<double> setups;
    std::unique_ptr<TrainRun> run;
    const auto set_up = [&] {
        if (run)
            checkRun(report, *run);
        run.reset();
        const double t0 = now();
        run = std::make_unique<TrainRun>(spec, "");
        run->warmUp();
        setups.push_back(now() - t0);
    };

    std::vector<double> step_s, gap_s;
    double last_end = 0.0;
    const auto timed_step = [&] {
        const double t0 = now();
        run->step();
        const double t1 = now();
        step_s.push_back(t1 - t0);
        gap_s.push_back(t1 - last_end);
        last_end = t1;
    };
    // Fixed-count phase on fixed batches up to the quality point,
    // then the untimed validation score; timing then continues to
    // the requested wall time on seeded batches.
    const double start = now();
    set_up();
    const int64_t warm_steps = run->attempted;
    last_end = now();
    while (run->trainer().iterations() < spec.qualitySteps)
        timed_step();
    const WireTally quality_wire = run->wire;
    const double val_ppl = run->valPpl();
    run->reseed(options.seed);

    const double from = now();
    const double stop = options.smoke ? from : start + options.seconds;
    const auto due = [&](size_t k) {
        return from + (stop - from) * static_cast<double>(k) / kSetups;
    };
    last_end = now();
    while (static_cast<int>(setups.size()) < kSetups || now() < stop) {
        if (static_cast<int>(setups.size()) < kSetups &&
            now() >= due(setups.size())) {
            set_up();
            run->reseed(options.seed);
            last_end = now();
        } else {
            timed_step();
        }
    }
    checkRun(report, *run);

    const double tokens = static_cast<double>(spec.tokensPerStep());
    report.add("tokens_per_s", tokens / quiet(step_s), "tok/s");
    report.add("val_ppl", val_ppl, "ppl");
    report.add("wire_bytes_per_token",
               static_cast<double>(quality_wire.wire()) /
                   (tokens * spec.qualitySteps),
               "B/tok");
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
    // A step is one request for a batch of trained tokens: the whole
    // batch arrives when trainIteration returns, and the gap between
    // outputs is the gap between step completions. Every step does
    // the same work, so the quiet distribution is a single point and
    // each percentile slot carries it.
    const double step_ms = 1e3 * quiet(step_s);
    const double gap_ms = 1e3 * quiet(gap_s);
    report.add("ttft_ms_p50", step_ms, "ms");
    report.add("ttft_ms_p95", step_ms, "ms");
    report.add("itl_ms_p50", gap_ms, "ms");
    report.add("itl_ms_p99", gap_ms, "ms");
    report.notes.push_back("ttft/itl: quiet step of " +
                           std::to_string(step_s.size()) + " steps");

    report.info.emplace_back("warmup_steps", std::to_string(warm_steps));
    report.info.emplace_back("quality_steps",
                             std::to_string(spec.qualitySteps));
    report.info.emplace_back("timed_steps",
                             std::to_string(step_s.size()));
    report.info.emplace_back("median_step_ms",
                             std::to_string(1e3 * median(step_s)));
    report.info.emplace_back("setup_s_samples", jsonList(setups));
    return report;
}

Report
perLayer(const TrainSpec &spec, const Options &options)
{
    Report report;
    const double tokens = static_cast<double>(spec.tokensPerStep());
    const double budget = 0.3 * options.seconds;
    const int min_steps = options.smoke ? 3 : 10;

    // Untraced reference for the tracing overhead.
    double untraced_tps = 0.0;
    double sample_s = 0.0;
    {
        TrainRun run(spec, "");
        run.warmUp();
        run.reseed(options.seed);
        untraced_tps =
            tokens / quiet(timeSteps(run, budget, min_steps));
        checkRun(report, run);
        // The D*M micro-batches one step samples.
        sample_s = sampleSeconds(run.train(), spec.b, spec.d * spec.m);
    }

    // Traced run: obs span trace through Trainer3dConfig::tracePath,
    // written when the trainer is destroyed.
    const std::string trace_path =
        options.outDir + "/trace-" + spec.name + ".json";
    std::vector<IterationStats> stats;
    std::vector<double> traced_s;
    int64_t first_timed_step = 0;
    int64_t heap_allocs = 0;
    WireTally tally;
    {
        TrainRun run(spec, trace_path);
        run.warmUp();
        run.reseed(options.seed);
        first_timed_step = run.trainer().iterations();
        const int64_t heap0 = mem::heapAllocs();
        traced_s = timeSteps(run, budget, min_steps, &stats);
        heap_allocs = mem::heapAllocs() - heap0;
        checkRun(report, run);
        tally = run.wire;
        const CommTrace &trace = *run.trainer().trace();
        report.check(
            trace.volume(CommPhase::InterStage).wireBytes ==
                    tally.interStage &&
                trace.volume(CommPhase::DpReduce).wireBytes ==
                    tally.dpReduce &&
                trace.volume(CommPhase::EmbSync).wireBytes ==
                    tally.embSync,
            "IterationStats wire bytes differ from CommTrace");
    }
    const obs::TraceSummary summary =
        obs::summarizeTraceFile(trace_path);
    const TraceScan scan =
        scanTrace(trace_path, "phase", "step", first_timed_step);
    report.check(summary.valid && scan.valid,
                 "trace " + trace_path + " missing or empty");
    const double traced_tps = tokens / quiet(traced_s);

    const auto phase_ms = [&](double StepPhaseTimes::*field) {
        std::vector<double> v;
        for (const IterationStats &s : stats)
            v.push_back(1e3 * (s.phases.*field));
        return median(v);
    };
    std::vector<double> unattributed;
    for (const IterationStats &s : stats) {
        const StepPhaseTimes &ph = s.phases;
        unattributed.push_back(100.0 *
                               (ph.total - ph.forwardBackward -
                                ph.dpReduce - ph.embSync - ph.optimizer) /
                               ph.total);
    }
    const double fb_ms = phase_ms(&StepPhaseTimes::forwardBackward);
    const int threads = runtimeThreads();
    const int64_t h = spec.model.hidden;

    const GemmRate gemm = timeGemm(spec.b * spec.model.seqLen, h, 4 * h);
    report.add("tensor.gemm_gflops", gemm.gflops, "GFLOP/s");
    report.add("tensor.gemm_ms", 1e3 * gemm.seconds, "ms");
    report.add("tensor.heap_allocs_per_step",
               static_cast<double>(heap_allocs) /
                   static_cast<double>(traced_s.size()),
               "count");
    report.add("tensor.arena_peak_mb",
               static_cast<double>(mem::peakBytes()) / (1024.0 * 1024.0),
               "MiB");

    const NnTimes nn = timeTrainLayers(spec.model, spec.b);
    report.add("nn.embedding_ms", 1e3 * nn.embedding, "ms");
    report.add("nn.layernorm_ms", 1e3 * nn.layernorm, "ms");
    report.add("nn.qkv_ms", 1e3 * nn.qkv, "ms");
    report.add("nn.attention_core_ms", 1e3 * nn.attentionCore, "ms");
    report.add("nn.proj_ms", 1e3 * nn.proj, "ms");
    report.add("nn.mlp_ms", 1e3 * nn.mlp, "ms");
    report.add("nn.head_loss_ms", 1e3 * nn.headLoss, "ms");
    report.add("nn.optimizer_ms", 1e3 * nn.optimizer, "ms");
    // D*M micro-batches per step; replicas spread over the pool.
    const double lanes = std::min(threads, spec.d);
    const double explained_ms =
        1e3 * spec.d * spec.m * nn.modelPass(spec.model.layers) / lanes;
    report.add("nn.unattributed_pct",
               100.0 * (fb_ms - explained_ms) / fb_ms, "%");

    // DP buckets hold the block weights (PowerSGD rank 8); the
    // boundary carries one micro-batch of activations (rank 4).
    const std::vector<CompressShape> shapes = {
        {h, 4 * h, 8}, {4 * h, h, 8}, {h, 3 * h, 8},
        {h, h, 8},     {spec.b * spec.model.seqLen, h, 4}};
    report.add("compress.powersgd_melem_s", powerSgdMelemPerS(shapes),
               "Melem/s");
    report.add("compress.ms_per_step", msPerWindow(scan, "compress/"),
               "ms");
    report.add("compress.ratio",
               static_cast<double>(tally.wire()) /
                   static_cast<double>(tally.exact),
               "ratio");

    for (const char *phase : {"interStage", "dpReduce", "embSync"}) {
        const PhaseComm comm =
            phaseComm(summary, summary.steps, scan, phase);
        const std::string base = std::string("comm.") + phase;
        report.add(base + ".calls_per_step", comm.calls, "count");
        report.add(base + ".wire_bytes_per_step", comm.wireBytes, "B");
        report.add(base + ".ms_per_step", comm.ms, "ms");
    }

    report.add("parallel.forward_backward_ms", fb_ms, "ms");
    report.add("parallel.dp_reduce_exposed_ms",
               phase_ms(&StepPhaseTimes::dpReduce), "ms");
    report.add("parallel.dp_reduce_busy_ms",
               phase_ms(&StepPhaseTimes::dpReduceBusy), "ms");
    report.add("parallel.emb_sync_ms",
               phase_ms(&StepPhaseTimes::embSync), "ms");
    report.add("parallel.optimizer_ms",
               phase_ms(&StepPhaseTimes::optimizer), "ms");
    report.add("parallel.unattributed_pct", median(unattributed), "%");

    report.add("runtime.parallel_for_per_step",
               countPerWindow(scan, "runtime/parallelFor"), "count");
    report.add("runtime.tasks_per_step",
               countPerWindow(scan, "runtime/task"), "count");
    report.add("runtime.worker_idle_pct", workerIdlePct(scan, threads),
               "%");
    report.add("runtime.dispatch_us", dispatchMicros(), "us");

    report.add("serve.prefill_ms_per_round", 0.0, "ms");
    report.add("serve.decode_ms_per_round", 0.0, "ms");
    report.add("serve.decode_rows_mean", 0.0, "rows");
    report.add("serve.queue_wait_ms_p50", 0.0, "ms");

    report.add("data.sample_ms_per_step", 1e3 * sample_s, "ms");
    report.add("obs.trace_overhead_pct",
               100.0 * (untraced_tps - traced_tps) / untraced_tps, "%");
    const double model_gflops =
        6.0 * static_cast<double>(spec.model.paramCount()) *
        untraced_tps * 1e-9;
    report.add("train.model_gflops", model_gflops, "GFLOP/s");
    report.add("train.mfu_pct", 100.0 * model_gflops / gemm.gflops, "%");

    report.info.emplace_back("traced_steps",
                             std::to_string(traced_s.size()));
    report.info.emplace_back("trace_path", "\"" + trace_path + "\"");
    return report;
}

Report
runTrain(const TrainSpec &spec, const Options &options)
{
    Report report = options.trace ? perLayer(spec, options)
                                  : endToEnd(spec, options);
    report.info.emplace_back("dp", std::to_string(spec.d));
    report.info.emplace_back("pp", std::to_string(spec.p));
    report.info.emplace_back("micro_batches", std::to_string(spec.m));
    report.info.emplace_back("micro_batch_size", std::to_string(spec.b));
    report.info.emplace_back("tokens_per_step",
                             std::to_string(spec.tokensPerStep()));
    report.info.emplace_back("params",
                             std::to_string(spec.model.paramCount()));
    return report;
}

} // namespace

Report
runTrainCc(const Options &options)
{
    return runTrain(ccSpec(options.smoke), options);
}

Report
runTrainDense(const Options &options)
{
    return runTrain(denseSpec(options.smoke), options);
}

} // namespace perfbench
