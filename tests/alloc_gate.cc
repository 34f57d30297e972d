/**
 * @file
 * The zero-allocation steady-state gate (tier-1). Global operator
 * new/delete are replaced with counting wrappers, and tensor storage
 * (which takes std::aligned_alloc directly, not operator new) is
 * counted by mem::heapAllocs(). After a two-step warmup both counts
 * are armed around full training iterations, and the gate fails on
 * ANY heap allocation made anywhere in the process — tensor storage,
 * containers, closures, pool tasks — on the
 * forward/backward/compress/reduce/update path. It runs at every
 * (D,P,M) point of kGrid in one process. This is the runtime
 * enforcement of what optlint's ALLOC01 hot set declares statically
 * and what the coldalloc / coldfn annotations promise is
 * warmup-only.
 *
 * `--serve` gates the serving decode path instead: a pipelined
 * (P=2) continuous-batching ServeEngine is warmed with two full
 * request waves (slot arenas sized, every ring and vector capacity
 * ratcheted), then a third identical wave — admission, batched
 * decode, retirement — runs fully armed and must make zero heap
 * allocations.
 *
 * `--telemetry` re-runs both gates with the full observability
 * stack live: time-series rings, health probes sampling every step,
 * and the Prometheus exporter listening on an ephemeral port.
 *
 * Not a gtest binary on purpose: the harness itself must not
 * allocate between arming and checking.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "obs/promexport.hh"
#include "parallel/trainer3d.hh"
#include "serve/engine.hh"
#include "tensor/arena.hh"

namespace
{

std::atomic<bool> g_armed{false};
std::atomic<long long> g_armedAllocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (g_armed.load(std::memory_order_relaxed))
        g_armedAllocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    if (align > alignof(std::max_align_t)) {
        // aligned_alloc wants the size rounded to the alignment.
        const std::size_t rounded = (n + align - 1) / align * align;
        return std::aligned_alloc(align, rounded);
    }
    return std::malloc(n);
}

} // namespace

void *
operator new(std::size_t n)
{
    void *p = countedAlloc(n, 0);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    void *p = countedAlloc(n, static_cast<std::size_t>(align));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

using namespace optimus;

/** Heap allocations made inside one armed window. */
struct Armed
{
    /** Replaced operator new calls (containers, closures, ...). */
    long long news = 0;
    /** mem::heapAllocs() delta: tensor storage off the arenas. */
    long long tensors = 0;

    bool clean() const { return news == 0 && tensors == 0; }
};

/** Open an armed window. @return the tensor tally to disarm with. */
int64_t
arm()
{
    g_armedAllocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    return mem::heapAllocs();
}

Armed
disarm(int64_t heap_before)
{
    g_armed.store(false, std::memory_order_relaxed);
    return {g_armedAllocs.load(std::memory_order_relaxed),
            static_cast<long long>(mem::heapAllocs() - heap_before)};
}

struct GridPoint
{
    int d, p, m;
    /** Error feedback on both compressed paths (DP residuals and
     *  lazy error propagation). */
    bool feedback = true;
    /** Compress only epilogue backward messages, so the rest go
     *  exact and clear the lazily propagated error. */
    bool epilogueOnly = false;
};

/**
 * The gated (D,P,M) points: the P=1 and D=1 corners, a 4-stage
 * pipeline, and 4 replicas, around the D=2 P=2 M=2 centre; the
 * centre again with error feedback off on both paths (PowerSGD
 * reads the raw messages), and a 4-stage point with the epilogue
 * policy (exact sends resolve the stored error).
 */
constexpr GridPoint kGrid[] = {
    {1, 1, 2},
    {1, 2, 4},
    {2, 2, 2},
    {2, 4, 4},
    {4, 2, 2},
    {2, 2, 2, false},
    {2, 4, 4, true, true},
};

/**
 * The gated training config: compressed backward channels and
 * compressed DP reduction, so the armed steps at D >= 2 cover the
 * bucket reduce overlapped with backward.
 */
Trainer3dConfig
gateConfig(const GridPoint &point)
{
    GptConfig model;
    model.vocab = 24;
    model.hidden = 16;
    model.layers = 4;
    model.heads = 2;
    model.seqLen = 8;
    model.seed = 77;

    Trainer3dConfig config;
    config.model = model;
    config.dataParallel = point.d;
    config.pipelineStages = point.p;
    config.microBatches = point.m;
    config.microBatchSize = 2;
    config.cb.enabled = true;
    config.cb.lazyErrorPropagation = point.feedback;
    config.cb.epilogueOnly = point.epilogueOnly;
    config.cb.spec.rank = 2;
    config.dp.enabled = true;
    config.dp.errorFeedback = point.feedback;
    config.dp.stageFraction = 1.0;
    config.dp.rank = 2;
    return config;
}

/** @return allocations over two post-warmup steps at @p point. */
Armed
runGate(const LmDataset &data, const GridPoint &point)
{
    Trainer3d trainer(gateConfig(point));
    Rng rng(99);
    // Warmup: step one sizes the arenas and ratchets every scratch
    // capacity; step two builds lazily-constructed compressor warm
    // state (PowerSGD q matrices, per-parameter residuals).
    trainer.trainIteration(data, rng);
    trainer.trainIteration(data, rng);

    const int64_t heap_before = arm();
    trainer.trainIteration(data, rng);
    trainer.trainIteration(data, rng);
    return disarm(heap_before);
}

/**
 * Run the training gate at every grid point, printing one line per
 * point. @return true when every point was allocation-free.
 */
bool
runGrid(const LmDataset &data, const char *mode)
{
    bool ok = true;
    for (const GridPoint &point : kGrid) {
        const Armed armed = runGate(data, point);
        std::printf("alloc_gate: mode=%-9s D=%d P=%d M=%d ef=%d "
                    "epilogue=%d  armed allocs=%lld  tensor "
                    "heapAllocs=%lld\n",
                    mode, point.d, point.p, point.m, point.feedback,
                    point.epilogueOnly, armed.news, armed.tensors);
        if (!armed.clean()) {
            ok = false;
            std::fprintf(stderr,
                         "alloc_gate: FAIL mode=%s D=%d P=%d M=%d "
                         "ef=%d epilogue=%d: %lld operator new + "
                         "%lld tensor heap allocation(s) in a "
                         "steady-state step\n",
                         mode, point.d, point.p, point.m,
                         point.feedback, point.epilogueOnly,
                         armed.news, armed.tensors);
        }
    }
    return ok;
}

/** Deterministic prompt mix (lengths 3..5 over the gate vocab). */
std::vector<std::vector<int32_t>>
servePrompts()
{
    std::vector<std::vector<int32_t>> prompts;
    for (int r = 0; r < 6; ++r) {
        std::vector<int32_t> prompt;
        for (int t = 0; t < 3 + r % 3; ++t)
            prompt.push_back((7 * r + 3 * t + 1) % 24);
        prompts.push_back(std::move(prompt));
    }
    return prompts;
}

/**
 * @return allocations over one full post-warmup request wave
 * (admission, batched pipelined decode, retirement).
 */
Armed
runServeGate()
{
    serve::ServeConfig config;
    config.model.vocab = 24;
    config.model.hidden = 16;
    config.model.layers = 4;
    config.model.heads = 2;
    config.model.seqLen = 16;
    config.model.seed = 77;
    config.pipelineStages = 2;
    config.maxSequences = 4;
    config.maxBatchTokens = 16;
    serve::ServeEngine engine(config);

    const std::vector<std::vector<int32_t>> prompts = servePrompts();

    // Warmup: wave one sizes the slot arenas and ratchets every
    // token/ring capacity; wave two proves the shapes repeat. The
    // scheduler is deterministic, so wave three reuses exactly the
    // slot assignments (and therefore capacities) of wave one.
    for (int wave = 0; wave < 2; ++wave) {
        for (const auto &prompt : prompts)
            engine.submit(prompt, 8);
        engine.drain();
    }

    for (const auto &prompt : prompts)
        engine.submit(prompt, 8);
    const int64_t heap_before = arm();
    engine.drain();
    return disarm(heap_before);
}

/**
 * Full-telemetry gate: time-series rings, health probes with every
 * step sampled (OPTIMUS_PROBE_INTERVAL=1 equivalent), and an idle
 * exporter listener — the armed training step and serve wave must
 * still make zero heap allocations. Ring registration, alert-slot
 * setup, and the listener socket are warmup work by design.
 */
int
telemetryMain(const LmDataset &data)
{
    obs::enableMetrics(true);
    obs::enableProbes(true);
    obs::setProbeInterval(1);
    if (!obs::startMetricsServer(0))
        std::fprintf(stderr, "alloc_gate: warning: exporter "
                             "listener failed to start\n");
    const bool train_ok = runGrid(data, "telemetry");
    const Armed serve = runServeGate();
    obs::stopMetricsServer();
    obs::enableProbes(false);
    obs::enableMetrics(false);
    obs::setProbeInterval(16);
    std::printf("alloc_gate: mode=telemetry serve wave  armed "
                "allocs=%lld  tensor heapAllocs=%lld\n",
                serve.news, serve.tensors);
    if (!train_ok || !serve.clean()) {
        std::fprintf(stderr,
                     "alloc_gate: FAIL mode=telemetry: heap "
                     "allocation(s) with rings+probes+exporter "
                     "enabled\n");
        return 1;
    }
    std::printf("alloc_gate: PASS (zero steady-state heap "
                "allocations with rings, probes, and the exporter "
                "enabled)\n");
    return 0;
}

/** Lifetime tallies, for context next to a gate's verdict. */
void
printLifetime()
{
    std::printf("alloc_gate: lifetime heapAllocs=%lld arenaHits=%lld "
                "fallbacks=%lld peakBytes=%lld\n",
                static_cast<long long>(mem::heapAllocs()),
                static_cast<long long>(mem::arenaHits()),
                static_cast<long long>(mem::heapFallbacks()),
                static_cast<long long>(mem::peakBytes()));
}

int
serveMain()
{
    const Armed armed = runServeGate();
    std::printf("alloc_gate: mode=serve     armed allocs=%lld  "
                "tensor heapAllocs=%lld\n",
                armed.news, armed.tensors);
    printLifetime();
    if (!armed.clean()) {
        std::fprintf(stderr,
                     "alloc_gate: FAIL mode=serve: %lld operator new "
                     "+ %lld tensor heap allocation(s) in a "
                     "steady-state request wave\n",
                     armed.news, armed.tensors);
        return 1;
    }
    std::printf("alloc_gate: PASS (zero steady-state heap "
                "allocations on the serving decode path)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!arenaEnabled()) {
        std::printf("alloc_gate: OPTIMUS_ARENA=0, nothing to "
                    "enforce; skipping\n");
        return 0;
    }

    if (argc > 1 && std::strcmp(argv[1], "--serve") == 0)
        return serveMain();

    CorpusConfig cc;
    cc.vocab = 24;
    cc.totalTokens = 6000;
    cc.seed = 5;
    SyntheticCorpus corpus(cc);
    const LmDataset data(corpus.train(), 8);

    if (argc > 1 && std::strcmp(argv[1], "--telemetry") == 0)
        return telemetryMain(data);

    const bool ok = runGrid(data, "train");
    printLifetime();
    if (!ok)
        return 1;
    std::printf("alloc_gate: PASS (zero steady-state heap "
                "allocations on the training step at every grid "
                "point)\n");
    return 0;
}
