/**
 * @file
 * The workspace-arena memory layer (DESIGN.md section 9): size-class
 * recycling across shape changes, scope install/restore, scope
 * propagation onto pool workers, arena hits on the training step,
 * and bitwise identity of training with arenas on vs off (the
 * steady-state zero-allocation gate over the (D,P,M) grid is
 * tests/alloc_gate.cc). OPTIMUS_ARENA is latched once per process,
 * so the on/off A/B re-runs this binary in a child process with the
 * gate flipped and compares parameter digests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"
#include "tensor/tensor.hh"

namespace optimus
{
namespace
{

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

/**
 * A full-coverage 3D config: D=2 replicas, P=2 stages, compressed
 * backward channels and compressed (PowerSGD + error feedback) DP
 * reduction, so a step crosses every hot subsystem the arena layer
 * claims: forward/backward kernels, top-of-stack compressors, the
 * reduce engine, and the embedding synchronizer.
 */
Trainer3dConfig
fullConfig()
{
    Trainer3dConfig config;
    config.model = tinyModel();
    config.dataParallel = 2;
    config.pipelineStages = 2;
    config.microBatches = 2;
    config.microBatchSize = 2;
    config.cb.enabled = true;
    config.cb.epilogueOnly = false;
    config.cb.spec.rank = 2;
    config.dp.enabled = true;
    config.dp.stageFraction = 1.0;
    config.dp.rank = 2;
    return config;
}

/** FNV-1a over the bit patterns of every parameter of @p trainer. */
uint64_t
paramDigest(Trainer3d &trainer)
{
    uint64_t h = 1469598103934665603ull;
    const auto fold = [&h](uint32_t bits) {
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const int d_ways = trainer.config().dataParallel;
    const int p_ways = trainer.config().pipelineStages;
    for (int d = 0; d < d_ways; ++d) {
        for (int p = 0; p < p_ways; ++p) {
            for (const auto &param : trainer.stage(d, p).params()) {
                for (int64_t i = 0; i < param->size(); ++i) {
                    uint32_t bits;
                    static_assert(sizeof(bits) == sizeof(float));
                    const float v = param->value[i];
                    std::memcpy(&bits, &v, sizeof(bits));
                    fold(bits);
                }
            }
        }
    }
    return h;
}

/** Train @p iters steps on the full config and digest the params. */
uint64_t
trainedDigest(int iters)
{
    Trainer3d trainer(fullConfig());
    LmDataset data = tinyData(tinyModel().seqLen);
    Rng rng(99);
    for (int i = 0; i < iters; ++i)
        trainer.trainIteration(data, rng);
    return paramDigest(trainer);
}

TEST(Workspace, RecyclesAcrossShapeChanges)
{
    if (!arenaEnabled())
        GTEST_SKIP() << "OPTIMUS_ARENA=0";
    Workspace ws("test");
    {
        WorkspaceScope scope(&ws);
        // Warm the arena with one [8 x 8] tensor, then cycle
        // through different shapes of the same size class: every
        // steady-state allocation must be an arena hit.
        { Tensor warm({8, 8}); }
        const WorkspaceStats warm_stats = ws.stats();
        EXPECT_GE(warm_stats.heapFallbacks, 1);
        for (int i = 0; i < 10; ++i) {
            Tensor a({8, 8});
            Tensor b({4, 16});
            Tensor c({64});
        }
        const WorkspaceStats stats = ws.stats();
        EXPECT_EQ(stats.heapFallbacks, warm_stats.heapFallbacks);
        EXPECT_GT(stats.arenaHits, warm_stats.arenaHits);
        EXPECT_EQ(stats.outstanding, 0);
    }
    EXPECT_TRUE(ws.reset());
}

TEST(Workspace, ResetDegradesToRecyclingWithLiveTensors)
{
    if (!arenaEnabled())
        GTEST_SKIP() << "OPTIMUS_ARENA=0";
    Workspace ws("test");
    WorkspaceScope scope(&ws);
    // A persistent tensor (compressor warm state, parked
    // activation) blocks the rewind; recycling must still be
    // heap-free afterwards.
    Tensor persistent({16, 16});
    { Tensor warm({16, 16}); }
    EXPECT_FALSE(ws.reset());
    const WorkspaceStats warm_stats = ws.stats();
    for (int i = 0; i < 10; ++i) {
        Tensor t({16, 16});
        EXPECT_FALSE(ws.reset());
    }
    EXPECT_EQ(ws.stats().heapFallbacks, warm_stats.heapFallbacks);
}

TEST(Workspace, ScopeRestoresOuterWorkspace)
{
    if (!arenaEnabled())
        GTEST_SKIP() << "OPTIMUS_ARENA=0";
    Workspace outer("outer");
    Workspace inner("inner");
    WorkspaceScope outer_scope(&outer);
    EXPECT_EQ(currentWorkspace(), &outer);
    {
        WorkspaceScope inner_scope(&inner);
        EXPECT_EQ(currentWorkspace(), &inner);
    }
    EXPECT_EQ(currentWorkspace(), &outer);
}

/**
 * A scope covers the parallel work its thread starts: tensors built
 * in parallelFor chunk bodies and in queued tasks come from the
 * caller's workspace, whichever thread runs them. At
 * OPTIMUS_THREADS >= 2 chunk 1 runs on a pool worker (static
 * round-robin), and the task below only ever runs on one, because
 * the caller does not drain the queue until the task has finished.
 */
TEST(Workspace, PoolWorkersDrawFromTheCallersScope)
{
    if (!arenaEnabled())
        GTEST_SKIP() << "OPTIMUS_ARENA=0";
    const int64_t chunks = 2 * runtimeThreads();
    std::vector<Workspace *> seen(static_cast<size_t>(chunks) + 1,
                                  nullptr);
    Workspace ws("test.pool");
    WorkspaceScope scope(&ws);
    const int64_t heap_before = mem::heapAllocs();
    const WorkspaceStats before = ws.stats();

    parallelFor(0, chunks, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            Tensor t({4, 4});
            seen[static_cast<size_t>(i)] = currentWorkspace();
        }
    });
    std::atomic<bool> ran{false};
    TaskGroup group;
    group.run([&] {
        Tensor t({4, 4});
        seen.back() = currentWorkspace();
        ran.store(true);
    });
    while (!ran.load())
        std::this_thread::yield();
    group.wait();

    for (size_t i = 0; i + 1 < seen.size(); ++i)
        EXPECT_EQ(seen[i], &ws) << "chunk " << i;
    EXPECT_EQ(seen.back(), &ws) << "task";
    const WorkspaceStats after = ws.stats();
    EXPECT_EQ(after.arenaHits + after.heapFallbacks -
                  before.arenaHits - before.heapFallbacks,
              chunks + 1);
    EXPECT_EQ(after.outstanding, 0);
    // Only slab growth may touch the heap; no tensor went around
    // the workspace.
    EXPECT_EQ(mem::heapAllocs() - heap_before,
              after.heapFallbacks - before.heapFallbacks);
}

TEST(AllocGate, ArenaHitsAccumulateOnTheStepPath)
{
    if (!arenaEnabled())
        GTEST_SKIP() << "OPTIMUS_ARENA=0";
    Trainer3d trainer(fullConfig());
    LmDataset data = tinyData(tinyModel().seqLen);
    Rng rng(99);
    trainer.trainIteration(data, rng);
    const int64_t before = mem::arenaHits();
    trainer.trainIteration(data, rng);
    EXPECT_GT(mem::arenaHits(), before);
}

/**
 * Training must be bitwise identical with arenas on and off: the
 * workspace layer moves storage, never values. The cross-mode leg
 * re-runs this binary with OPTIMUS_ARENA flipped (the gate latches
 * at first use, so one process cannot host both modes) and compares
 * digests through the child's stdout.
 */
TEST(AllocGate, ArenaVsHeapBitwiseIdentical)
{
    const uint64_t here = trainedDigest(5);
    // Run-to-run determinism within this process's mode.
    EXPECT_EQ(here, trainedDigest(5));

    if (std::getenv("OPTIMUS_ARENA_DIGEST_ONLY") != nullptr) {
        // Child invocation: report and stop (the parent compares).
        std::printf("ARENA_DIGEST %016llx\n",
                    static_cast<unsigned long long>(here));
        return;
    }

    // Resolve this binary's path here: the popen'd shell would
    // resolve /proc/self/exe to itself.
    char self[4096];
    const ssize_t len =
        readlink("/proc/self/exe", self, sizeof(self) - 1);
    ASSERT_GT(len, 0);
    self[len] = '\0';
    const std::string cmd =
        std::string("OPTIMUS_ARENA_DIGEST_ONLY=1 OPTIMUS_ARENA=") +
        (arenaEnabled() ? "0" : "1") + " '" + self +
        "' --gtest_filter=AllocGate.ArenaVsHeapBitwiseIdentical"
        " 2>/dev/null";
    FILE *child = popen(cmd.c_str(), "r");
    ASSERT_NE(child, nullptr);
    uint64_t other = 0;
    bool found = false;
    char line[256];
    while (std::fgets(line, sizeof(line), child)) {
        unsigned long long parsed = 0;
        if (std::sscanf(line, "ARENA_DIGEST %llx", &parsed) == 1) {
            other = parsed;
            found = true;
        }
    }
    const int status = pclose(child);
    ASSERT_EQ(status, 0);
    ASSERT_TRUE(found) << "child produced no digest";
    EXPECT_EQ(here, other);
}

} // namespace
} // namespace optimus
