/**
 * @file
 * Observability overhead benchmark: full Trainer3d iterations on
 * the overlapped+compressed bench_step_overlap workload, first with
 * everything off, then with the span tracer recording to a file,
 * then with the telemetry rings + compression-health probes live —
 * reporting each per-step overhead ratio. A ServeEngine wave is
 * measured the same way (telemetry off vs on). Writes
 * BENCH_obs.json (tracing plus `rings`/`probes` columns) and leaves
 * the recorded trace (BENCH_obs_trace.json) behind for Perfetto /
 * tracesum.
 *
 * --smoke shrinks the run for ctest and turns on the validation
 * gates: the written trace must parse, its per-phase totals must
 * reconcile with the summed StepPhaseTimes to <1%, and — when the
 * pool has an idle worker to drain buckets into
 * (OPTIMUS_THREADS >= D+1) — at least one dpReduce bucket span must
 * temporally overlap a backward span.
 *
 * --hold-scrape SECONDS keeps the process alive after the runs
 * until the exporter (OPTIMUS_METRICS_PORT) has served at least one
 * scrape or the deadline passes — the CI hook for curling a live
 * /metrics endpoint.
 *
 * Usage: bench_obs [--iters 3] [--reps 5] [--bucket-kb 64]
 *        [--smoke] [--hold-scrape SECONDS]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "obs/promexport.hh"
#include "obs/rings.hh"
#include "obs/trace.hh"
#include "obs/tracesum.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"
#include "serve/engine.hh"
#include "util/cli.hh"

using namespace optimus;

namespace
{

const char *kTracePath = "BENCH_obs_trace.json";

GptConfig
benchModel(bool smoke)
{
    GptConfig model;
    if (smoke) {
        model.vocab = 24;
        model.hidden = 16;
        model.layers = 4;
        model.heads = 2;
        model.seqLen = 8;
    } else {
        model.vocab = 64;
        model.hidden = 64;
        model.layers = 8;
        model.heads = 4;
        model.seqLen = 8;
    }
    model.seed = 77;
    return model;
}

LmDataset
benchData(const GptConfig &model)
{
    CorpusConfig cc;
    cc.vocab = model.vocab;
    cc.totalTokens = 20000;
    cc.seed = 5;
    SyntheticCorpus corpus(cc);
    return {corpus.train(), model.seqLen};
}

/** The 2-stage / 2-replica compressed overlapped-reduce workload. */
Trainer3dConfig
makeConfig(const GptConfig &model, int64_t bucket_bytes, bool smoke,
           const std::string &trace_path)
{
    Trainer3dConfig config;
    config.model = model;
    config.dataParallel = 2;
    config.pipelineStages = 2;
    config.microBatches = smoke ? 2 : 4;
    config.microBatchSize = 2;
    config.bucketBytes = bucket_bytes;
    config.cb.enabled = true;
    config.dp.enabled = true;
    config.dp.stageFraction = 0.75;
    config.tracePath = trace_path;
    return config;
}

struct RunResult
{
    double bestStep = 1e30;
    double meanStep = 0.0;
    int iterations = 0;
    StepPhaseTimes phaseSum;
};

/**
 * Run warmup + reps*iters iterations and keep the best (noise
 * floor) and mean per-step time. Every iteration's phase breakdown
 * is accumulated so a traced run can be reconciled against the
 * trace file, which covers all of the trainer's iterations.
 */
RunResult
measure(Trainer3d &trainer, const LmDataset &data, Rng &rng,
        int reps, int iters)
{
    RunResult result;
    double total = 0.0;
    const auto fold = [&](bool timed) {
        const int64_t t0 = obs::nowNs();
        const IterationStats stats = trainer.trainIteration(data, rng);
        const double step = obs::secondsBetween(t0, obs::nowNs());
        ++result.iterations;
        result.phaseSum.forwardBackward +=
            stats.phases.forwardBackward;
        result.phaseSum.dpReduce += stats.phases.dpReduce;
        result.phaseSum.dpReduceBusy += stats.phases.dpReduceBusy;
        result.phaseSum.overlapHidden += stats.phases.overlapHidden;
        result.phaseSum.embSync += stats.phases.embSync;
        result.phaseSum.optimizer += stats.phases.optimizer;
        result.phaseSum.total += stats.phases.total;
        if (timed) {
            total += step;
            result.bestStep = std::min(result.bestStep, step);
        }
    };
    fold(false); // warm-up: bucket binding, pool spin-up, allocator
    for (int rep = 0; rep < reps; ++rep) {
        for (int it = 0; it < iters; ++it)
            fold(true);
    }
    result.meanStep = total / (reps * iters);
    return result;
}

/** Relative error with an absolute floor for near-zero phases. */
bool
reconciles(double trace_s, double timer_s)
{
    return std::abs(trace_s - timer_s) <= 0.01 * timer_s + 2e-6;
}

/** Deterministic request mix with prompt lengths 3..6. */
std::vector<std::vector<int32_t>>
servePrompts(int count, int64_t vocab)
{
    std::vector<std::vector<int32_t>> prompts;
    for (int r = 0; r < count; ++r) {
        std::vector<int32_t> prompt;
        for (int t = 0; t < 3 + r % 4; ++t)
            prompt.push_back(static_cast<int32_t>(
                (7 * r + 3 * t + 1) % vocab));
        prompts.push_back(std::move(prompt));
    }
    return prompts;
}

/**
 * Best-of-reps wall time of one closed-loop serving wave (submit
 * the whole mix, drain) on a 2-stage lossy-boundary engine — the
 * workload whose boundary transfers feed the serve health probes.
 */
struct ServeWaveResult
{
    double bestSeconds = 1e30;
    obs::CompressionHealth health;
};

ServeWaveResult
measureServeWave(bool smoke, int reps)
{
    GptConfig model = benchModel(smoke);
    model.seqLen = smoke ? 16 : 64;
    serve::ServeConfig config;
    config.model = model;
    config.pipelineStages = 2;
    config.maxSequences = smoke ? 4 : 8;
    config.maxBatchTokens = smoke ? 16 : 64;
    config.boundary.kind = CompressorKind::TopK;
    config.boundary.topkFraction = 0.5;
    serve::ServeEngine engine(config);
    const auto prompts =
        servePrompts(smoke ? 6 : 12, model.vocab);
    const int64_t max_new = smoke ? 4 : 8;

    const auto wave = [&]() {
        for (const auto &prompt : prompts)
            engine.submit(prompt, max_new);
        engine.drain();
    };
    wave(); // warmup: arenas, ring/vector capacities
    ServeWaveResult result;
    for (int rep = 0; rep < reps; ++rep) {
        const int64_t t0 = obs::nowNs();
        wave();
        result.bestSeconds =
            std::min(result.bestSeconds,
                     obs::secondsBetween(t0, obs::nowNs()));
    }
    result.health = engine.boundaryHealth();
    return result;
}

/**
 * Smoke gate: some bucket-reduce span must run concurrently with a
 * backward span (the overlap the engine exists to create). Checked
 * on the in-memory events of the run's trace.
 */
bool
anyBucketOverlapsBackward(const std::vector<obs::TraceEvent> &events)
{
    std::vector<const obs::TraceEvent *> buckets, backwards;
    for (const auto &e : events) {
        if (e.phase != 'X')
            continue;
        if (std::strcmp(e.category, "reduce") == 0)
            buckets.push_back(&e);
        else if (std::strcmp(e.category, "compute") == 0 &&
                 std::strcmp(e.name, "backward") == 0)
            backwards.push_back(&e);
    }
    for (const auto *bucket : buckets) {
        for (const auto *backward : backwards) {
            if (bucket->beginNs < backward->endNs &&
                backward->beginNs < bucket->endNs)
                return true;
        }
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const bool smoke = args.getBool("smoke", false);
    const int iters =
        static_cast<int>(args.getInt("iters", smoke ? 2 : 3));
    const int reps =
        static_cast<int>(args.getInt("reps", smoke ? 2 : 5));
    const int64_t bucket_bytes = args.getInt("bucket-kb", 64) * 1024;

    const GptConfig model = benchModel(smoke);
    const LmDataset data = benchData(model);

    std::printf("=== observability overhead benchmark ===\n");
    std::printf("pool threads: %d  iters: %d  reps: %d  bucket: "
                "%lld KiB%s\n\n",
                runtimeThreads(), iters, reps,
                static_cast<long long>(bucket_bytes / 1024),
                smoke ? "  [smoke]" : "");

    // Tracing disabled first: the flag is process-global, so the
    // two states cannot interleave the way bench_step_overlap's
    // modes do.
    RunResult off;
    {
        Trainer3d trainer(makeConfig(model, bucket_bytes, smoke, ""));
        Rng rng(11);
        off = measure(trainer, data, rng, reps, iters);
    }

    // Tracing enabled: the trainer owns the process trace and its
    // destructor writes the file.
    RunResult on;
    {
        Trainer3d trainer(
            makeConfig(model, bucket_bytes, smoke, kTracePath));
        Rng rng(11);
        on = measure(trainer, data, rng, reps, iters);
    }
    const std::vector<obs::TraceEvent> events = obs::traceEvents();

    // Telemetry run: rings + health probes live (tracing back off).
    RunResult tel;
    obs::CompressionHealth pp_health, dp_health;
    {
        obs::enableMetrics(true);
        obs::enableProbes(true);
        Trainer3d trainer(makeConfig(model, bucket_bytes, smoke, ""));
        Rng rng(11);
        tel = measure(trainer, data, rng, reps, iters);
        pp_health = trainer.ppHealth();
        dp_health = trainer.dpHealth();
        obs::enableProbes(false);
        obs::enableMetrics(false);
    }

    // Serving wave, telemetry off then on.
    const ServeWaveResult serve_off = measureServeWave(smoke, reps);
    obs::enableMetrics(true);
    obs::enableProbes(true);
    const ServeWaveResult serve_on = measureServeWave(smoke, reps);
    obs::enableProbes(false);
    obs::enableMetrics(false);

    const double overhead =
        off.bestStep > 0.0 ? on.bestStep / off.bestStep : 1.0;
    const double tel_overhead =
        off.bestStep > 0.0 ? tel.bestStep / off.bestStep : 1.0;
    const double serve_overhead =
        serve_off.bestSeconds > 0.0
            ? serve_on.bestSeconds / serve_off.bestSeconds
            : 1.0;
    std::printf("tracing off:  best %8.3f ms  mean %8.3f ms\n",
                1e3 * off.bestStep, 1e3 * off.meanStep);
    std::printf("tracing on:   best %8.3f ms  mean %8.3f ms\n",
                1e3 * on.bestStep, 1e3 * on.meanStep);
    std::printf("telemetry on: best %8.3f ms  mean %8.3f ms\n",
                1e3 * tel.bestStep, 1e3 * tel.meanStep);
    std::printf("overhead (best-over-best): tracing %.3fx, "
                "telemetry %.3fx, %zu events\n",
                overhead, tel_overhead, events.size());
    std::printf("serve wave: off %8.3f ms  on %8.3f ms "
                "(%.3fx)\n\n",
                1e3 * serve_off.bestSeconds,
                1e3 * serve_on.bestSeconds, serve_overhead);

    const obs::TraceSummary summary =
        obs::summarizeTraceFile(kTracePath);
    bool ok = true;
    if (!summary.valid ||
        summary.steps != static_cast<int64_t>(on.iterations)) {
        ok = false;
        std::fprintf(stderr,
                     "FAILED: %s invalid or wrong step count "
                     "(%lld vs %d)\n",
                     kTracePath,
                     static_cast<long long>(summary.steps),
                     on.iterations);
    } else {
        std::fputs(obs::renderTraceSummary(summary).c_str(), stdout);
    }

    if (ok && smoke) {
        // Reconciliation gate: trace vs the timers it mirrors.
        const struct
        {
            const char *name;
            double traceSeconds;
            double timerSeconds;
        } rows[] = {
            {"forwardBackward", summary.forwardBackward,
             on.phaseSum.forwardBackward},
            {"dpReduce", summary.dpReduce, on.phaseSum.dpReduce},
            {"dpReduceBusy", summary.dpReduceBusy,
             on.phaseSum.dpReduceBusy},
            {"embSync", summary.embSync, on.phaseSum.embSync},
            {"optimizer", summary.optimizer, on.phaseSum.optimizer},
            {"total", summary.total, on.phaseSum.total},
        };
        for (const auto &row : rows) {
            if (!reconciles(row.traceSeconds, row.timerSeconds)) {
                ok = false;
                std::fprintf(stderr,
                             "FAILED: %s does not reconcile: trace "
                             "%.6f s vs timers %.6f s\n",
                             row.name, row.traceSeconds,
                             row.timerSeconds);
            }
        }

        // Overlap gate: needs a worker free to drain buckets while
        // the replica chunks occupy the others.
        const bool can_overlap = runtimeThreads() >= 2 + 1;
        const bool overlapped = anyBucketOverlapsBackward(events);
        std::printf("bucket/backward overlap: %s%s\n",
                    overlapped ? "yes" : "no",
                    can_overlap ? "" : " (not required at this "
                                       "thread count)");
        if (can_overlap && !overlapped) {
            ok = false;
            std::fprintf(stderr,
                         "FAILED: no dpReduce bucket span overlaps "
                         "a backward span despite %d pool threads\n",
                         runtimeThreads());
        }
    }

    FILE *f = std::fopen("BENCH_obs.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_obs.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"obs_overhead\",\n");
    std::fprintf(f, "  \"threads\": %d,\n", runtimeThreads());
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"unit\": \"seconds/step\",\n");
    std::fprintf(f,
                 "  \"tracing_off\": {\"best\": %.6f, \"mean\": "
                 "%.6f},\n",
                 off.bestStep, off.meanStep);
    std::fprintf(f,
                 "  \"tracing_on\": {\"best\": %.6f, \"mean\": "
                 "%.6f},\n",
                 on.bestStep, on.meanStep);
    std::fprintf(f, "  \"overhead_ratio\": %.4f,\n", overhead);
    std::fprintf(f,
                 "  \"rings\": {\"step_off\": %.6f, \"step_on\": "
                 "%.6f, \"step_ratio\": %.4f,\n"
                 "    \"serve_wave_off\": %.6f, \"serve_wave_on\": "
                 "%.6f, \"serve_wave_ratio\": %.4f},\n",
                 off.bestStep, tel.bestStep, tel_overhead,
                 serve_off.bestSeconds, serve_on.bestSeconds,
                 serve_overhead);
    std::fprintf(f,
                 "  \"probes\": {\"pp_relerr\": %.6f, "
                 "\"pp_wire_ratio\": %.4f,\n"
                 "    \"dp_relerr\": %.6f, \"dp_wire_ratio\": "
                 "%.4f,\n"
                 "    \"serve_relerr\": %.6f, \"serve_wire_ratio\": "
                 "%.4f, \"alerts\": %lld},\n",
                 pp_health.relError(), pp_health.wireRatio(),
                 dp_health.relError(), dp_health.wireRatio(),
                 serve_on.health.relError(),
                 serve_on.health.wireRatio(),
                 static_cast<long long>(
                     obs::AlertLog::instance().raisedTotal()));
    std::fprintf(f, "  \"trace_events\": %zu,\n", events.size());
    std::fprintf(f, "  \"trace_spans\": %lld,\n",
                 static_cast<long long>(summary.spans));
    std::fprintf(f, "  \"trace_path\": \"%s\",\n", kTracePath);
    std::fprintf(f, "  \"valid\": %s\n}\n", ok ? "true" : "false");
    std::fclose(f);

    std::printf("results written to BENCH_obs.json (trace: %s)\n",
                kTracePath);

    // CI hook: stay alive until the exporter has served a scrape
    // (or the deadline passes) so `curl /metrics` sees live data.
    const double hold = args.getDouble("hold-scrape", 0.0);
    if (hold > 0.0) {
        obs::maybeStartMetricsServerFromEnv();
        if (obs::metricsServerPort() < 0) {
            std::fprintf(stderr,
                         "FAILED: --hold-scrape without a running "
                         "exporter (set OPTIMUS_METRICS_PORT)\n");
            return 1;
        }
        std::printf("holding for a scrape on port %d (max %.0f "
                    "s)...\n",
                    obs::metricsServerPort(), hold);
        std::fflush(stdout);
        // Wait for a scrape issued AFTER the hold began: earlier
        // scrapes may predate the telemetry phase and therefore
        // show empty rings — the hold exists so a scraper can see
        // the finished run.
        const int64_t base = obs::metricsScrapeCount();
        const int64_t deadline =
            obs::nowNs() + static_cast<int64_t>(hold * 1e9);
        timespec ts{0, 50 * 1000 * 1000};
        while (obs::metricsScrapeCount() <= base &&
               obs::nowNs() < deadline)
            nanosleep(&ts, nullptr);
        std::printf("exporter served %lld scrape(s)\n",
                    static_cast<long long>(
                        obs::metricsScrapeCount()));
        if (obs::metricsScrapeCount() <= base)
            return 1;
    }
    return ok ? 0 : 1;
}
