/**
 * @file
 * Training-step benchmark for the bucketed gradient reduction
 * engine: full Trainer3d iterations at several (D, P, M) grid
 * points, with the per-phase wall-time breakdown from
 * IterationStats — how much reduce time the engine hides behind
 * backward (D >= 2) and what stays exposed. Writes BENCH_step.json.
 *
 * Usage: bench_step_overlap [--iters 3] [--reps 9]
 *        [--bucket-kb 256] [--dp-compress] [--smoke]
 * --smoke shrinks the run to one tiny grid point, for ctest /
 * sanitizer jobs. Thread count comes from OPTIMUS_THREADS (default:
 * hardware).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"
#include "util/cli.hh"

using namespace optimus;

namespace
{

struct GridPoint
{
    int d, p, m;
};

/** Fastest step of one grid point and its phase breakdown. */
struct StepTiming
{
    double step = 1e30;
    StepPhaseTimes phases;
};

double
seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

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
        // Small per-step token count relative to the parameter
        // count, so the reduce phase is a meaningful slice of the
        // step rather than vanishing behind the GEMMs.
        model.vocab = 64;
        model.hidden = 64;
        model.layers = 8;
        model.heads = 4;
        model.seqLen = 8;
    }
    model.seed = 77;
    return model;
}

Trainer3dConfig
makeConfig(const GptConfig &model, const GridPoint &point,
           int64_t bucket_bytes, bool compress, int micro_batch)
{
    Trainer3dConfig config;
    config.model = model;
    config.dataParallel = point.d;
    config.pipelineStages = point.p;
    config.microBatches = point.m;
    config.microBatchSize = micro_batch;
    config.bucketBytes = bucket_bytes;
    if (compress) {
        config.dp.enabled = true;
        config.dp.stageFraction = 0.75;
    }
    return config;
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

/**
 * One measurement repetition: run @p iters consecutive iterations,
 * timing each one individually, and fold the fastest into @p best.
 * All iterations of a point perform identical work, so the minimum
 * over every sample is the sharpest available estimate of the
 * point's noise floor; the phase breakdown kept is the one from the
 * winning iteration.
 */
void
measureRep(Trainer3d &trainer, const LmDataset &data, Rng &rng,
           int iters, StepTiming &best)
{
    for (int it = 0; it < iters; ++it) {
        const double t0 = seconds();
        const IterationStats stats =
            trainer.trainIteration(data, rng);
        const double step = seconds() - t0;
        if (step < best.step) {
            best.step = step;
            best.phases = stats.phases;
        }
    }
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
        static_cast<int>(args.getInt("reps", smoke ? 2 : 9));
    const int64_t bucket_bytes =
        args.getInt("bucket-kb", 256) * 1024;
    const bool compress = args.getBool("dp-compress", false);

    const GptConfig model = benchModel(smoke);
    const LmDataset data = benchData(model);

    std::vector<GridPoint> points;
    if (smoke)
        points = {{2, 2, 2}};
    else
        points = {{1, 2, 4}, {2, 2, 4}, {2, 4, 4}, {4, 2, 2}};

    std::printf("=== training-step overlap benchmark ===\n");
    std::printf(
        "pool threads: %d  iters: %d  reps: %d  bucket: %lld KiB  "
        "dp-compress: %d%s\n\n",
        runtimeThreads(), iters, reps,
        static_cast<long long>(bucket_bytes / 1024), compress,
        smoke ? "  [smoke]" : "");

    FILE *f = std::fopen("BENCH_step.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_step.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"step_overlap\",\n");
    std::fprintf(f, "  \"threads\": %d,\n", runtimeThreads());
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"dp_compress\": %s,\n",
                 compress ? "true" : "false");
    std::fprintf(f, "  \"unit\": \"seconds/step\",\n");
    std::fprintf(f, "  \"points\": [\n");

    for (size_t pi = 0; pi < points.size(); ++pi) {
        const GridPoint &point = points[pi];
        Trainer3d trainer(makeConfig(model, point, bucket_bytes,
                                     compress, smoke ? 2 : 1));
        Rng rng(11);
        // Warm-up: two steps, matching the arena layer's warmup
        // definition — the first sizes the arenas (and spins up the
        // pool, binds buckets), the second finishes any lazily-built
        // persistent state whose placement kept step one's slabs
        // from rewinding. From step three on, heapAllocs should stay
        // flat (echoed below; alloc_gate enforces it at D=2).
        trainer.trainIteration(data, rng);
        trainer.trainIteration(data, rng);

        // Steady-state allocation deltas over the measured reps:
        // heapAllocs counts heap calls, arenaHits the recycled-tensor
        // traffic.
        StepTiming t;
        const int64_t heap_before = mem::heapAllocs();
        const int64_t hits_before = mem::arenaHits();
        for (int rep = 0; rep < reps; ++rep)
            measureRep(trainer, data, rng, iters, t);
        const int64_t heap_delta = mem::heapAllocs() - heap_before;
        const int64_t hits_delta = mem::arenaHits() - hits_before;

        std::printf("D=%d P=%d M=%d  step %8.3f ms  (fb %7.3f  "
                    "reduce %7.3f  busy %7.3f  hidden %7.3f  emb "
                    "%7.3f  opt %7.3f)\n",
                    point.d, point.p, point.m, 1e3 * t.step,
                    1e3 * t.phases.forwardBackward,
                    1e3 * t.phases.dpReduce,
                    1e3 * t.phases.dpReduceBusy,
                    1e3 * t.phases.overlapHidden,
                    1e3 * t.phases.embSync,
                    1e3 * t.phases.optimizer);
        std::printf("  mem: steady-state heapAllocs +%lld  "
                    "arenaHits +%lld\n",
                    static_cast<long long>(heap_delta),
                    static_cast<long long>(hits_delta));

        std::fprintf(f,
                     "    {\"d\": %d, \"p\": %d, \"m\": %d, "
                     "\"step\": %.6f, \"forward_backward\": %.6f, "
                     "\"dp_reduce\": %.6f, \"dp_reduce_busy\": %.6f, "
                     "\"overlap_hidden\": %.6f, \"emb_sync\": %.6f, "
                     "\"optimizer\": %.6f, \"steady_heap_allocs\": "
                     "%lld}%s\n",
                     point.d, point.p, point.m, t.step,
                     t.phases.forwardBackward, t.phases.dpReduce,
                     t.phases.dpReduceBusy, t.phases.overlapHidden,
                     t.phases.embSync, t.phases.optimizer,
                     static_cast<long long>(heap_delta),
                     pi + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"mem\": {\"arena\": %s, \"heap_allocs\": %lld, "
                 "\"arena_hits\": %lld, \"heap_fallbacks\": %lld, "
                 "\"peak_bytes\": %lld}\n}\n",
                 arenaEnabled() ? "true" : "false",
                 static_cast<long long>(mem::heapAllocs()),
                 static_cast<long long>(mem::arenaHits()),
                 static_cast<long long>(mem::heapFallbacks()),
                 static_cast<long long>(mem::peakBytes()));
    std::fclose(f);

    std::printf("mem: arena=%d lifetime heapAllocs=%lld "
                "arenaHits=%lld fallbacks=%lld peakBytes=%lld\n",
                arenaEnabled() ? 1 : 0,
                static_cast<long long>(mem::heapAllocs()),
                static_cast<long long>(mem::arenaHits()),
                static_cast<long long>(mem::heapFallbacks()),
                static_cast<long long>(mem::peakBytes()));

    std::printf("\nresults written to BENCH_step.json\n");
    return 0;
}
