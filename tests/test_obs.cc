/**
 * @file
 * Tests for the observability layer (src/obs): span nesting and
 * track assignment in the tracer, Chrome trace-event JSON export,
 * bitwise neutrality of span tracing on a full Trainer3d run (the
 * PR's acceptance gate, mirroring the CommTrace gate in
 * test_comm.cc), determinism of the metrics registry snapshot
 * against the thread-invariant CommTrace volumes, and the
 * tracesum-vs-StepPhaseTimes reconciliation (<1%), DP bucket
 * reduce spans overlapping backward spans, ring-buffer
 * wraparound and rollup arithmetic, compression-health probes
 * (hand-computed norms, bitwise neutrality of a probed run, exact
 * probe-vs-CommTrace byte reconciliation), the alert log's rate
 * limiter, the Prometheus exporter's text format and a live scrape
 * of a probed run, and the tracesum serve-wave summary. Run at
 * OPTIMUS_THREADS in {1, 4, 8} via tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "core/quality_experiment.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "nn/activation.hh"
#include "nn/layernorm.hh"
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
#include "tensor/matmul.hh"
#include "test_util.hh"
#include "util/stats.hh"

namespace optimus
{
namespace
{

/**
 * Per-process scratch file path: ctest runs this binary at several
 * OPTIMUS_THREADS / OPTIMUS_SIMD settings concurrently, and a shared
 * name lets one process read another's half-written trace.
 */
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + std::to_string(getpid()) + "_" + name;
}

/**
 * Tracing is one-trace-per-process; each test that records starts
 * from a clean slate (a prior test's trainer may have owned a
 * trace).
 */
void
resetTracing()
{
    obs::stopTracing();
    obs::clearTrace();
}

TEST(Tracer, DisabledPathEmitsNothing)
{
    resetTracing();
    ASSERT_FALSE(obs::tracingEnabled());
    {
        obs::ScopedSpan span("test", "noop");
    }
    obs::emitSpan("test", "noop", obs::nowNs(), obs::nowNs());
    obs::emitInstant("test", "noop");
    obs::emitCounter("test.noop", 1);
    EXPECT_TRUE(obs::traceEvents().empty());
}

TEST(Tracer, SpansNestAndCarryTracksAndArgs)
{
    resetTracing();
    obs::startTracing();
    ASSERT_TRUE(obs::tracingEnabled());
    {
        obs::ScopedSpan outer("test", "outer", 7, "arg", 42);
        obs::ScopedSpan inner("test", "inner");
        obs::emitInstant("test", "mark", 3);
        obs::emitCounter("test.counter", 11);
    }
    obs::stopTracing();

    const auto events = obs::traceEvents();
    const obs::TraceEvent *outer = nullptr;
    const obs::TraceEvent *inner = nullptr;
    const obs::TraceEvent *mark = nullptr;
    const obs::TraceEvent *counter = nullptr;
    for (const auto &e : events) {
        if (std::strcmp(e.name, "outer") == 0)
            outer = &e;
        else if (std::strcmp(e.name, "inner") == 0)
            inner = &e;
        else if (std::strcmp(e.name, "mark") == 0)
            mark = &e;
        else if (std::strcmp(e.name, "test.counter") == 0)
            counter = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(mark, nullptr);
    ASSERT_NE(counter, nullptr);

    // The emitting thread is the one that called startTracing():
    // track 0.
    EXPECT_EQ(outer->track, 0);
    EXPECT_EQ(inner->track, 0);

    // Nesting: outer covers inner (both ScopedSpans close before
    // the block ends, inner first).
    EXPECT_LE(outer->beginNs, inner->beginNs);
    EXPECT_LE(inner->endNs, outer->endNs);
    EXPECT_GE(inner->endNs, inner->beginNs);

    EXPECT_EQ(outer->phase, 'X');
    EXPECT_EQ(outer->id, 7);
    ASSERT_NE(outer->argName0, nullptr);
    EXPECT_STREQ(outer->argName0, "arg");
    EXPECT_EQ(outer->argValue0, 42);

    EXPECT_EQ(mark->phase, 'i');
    EXPECT_EQ(mark->id, 3);
    EXPECT_EQ(counter->phase, 'C');
    EXPECT_EQ(counter->argValue0, 11);
}

TEST(Tracer, PooledParallelForRecordsRuntimeSpans)
{
    resetTracing();
    obs::startTracing();
    std::vector<double> sink(4096, 0.0);
    parallelFor(0, static_cast<int64_t>(sink.size()), 256,
                [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i)
                        sink[i] = static_cast<double>(i) * 0.5;
                });
    obs::stopTracing();

    const auto events = obs::traceEvents();
    int parallel_for_spans = 0;
    int worker_chunk_spans = 0;
    for (const auto &e : events) {
        if (e.phase != 'X')
            continue;
        if (std::strcmp(e.name, "parallelFor") == 0) {
            ++parallel_for_spans;
            EXPECT_STREQ(e.category, "runtime");
            EXPECT_EQ(e.track, 0);
        } else if (std::strcmp(e.name, "chunks") == 0) {
            ++worker_chunk_spans;
            EXPECT_GT(e.track, 0); // pool workers sit on tracks >= 1
        }
    }
    if (runtimeThreads() > 1) {
        // The pooled path wraps the call on the issuing thread and
        // each worker's chunk walk on its own track.
        EXPECT_EQ(parallel_for_spans, 1);
        EXPECT_GE(worker_chunk_spans, 1);
    } else {
        // Single-threaded pools run parallelFor inline: the
        // top-level span is skipped by design (zero overhead, and
        // nothing concurrent to visualise).
        EXPECT_EQ(parallel_for_spans, 0);
        EXPECT_EQ(worker_chunk_spans, 0);
    }
}

TEST(Tracer, SmallWorkRunsInline)
{
    // The dispatch rule runs a region inline unless it fills two
    // chunks of kMinChunkWork, so small operators never reach the
    // pool (no runtime/parallelFor span) while a large GEMM still
    // does. At one thread every region runs inline.
    Rng rng(5);
    const auto gemmRegions = [&](int64_t n) {
        const Tensor a = Tensor::randn({n, n}, rng);
        const Tensor b = Tensor::randn({n, n}, rng);
        Tensor c({n, n});
        return test::pooledRegions([&] {
            gemm(c.data(), a.data(), b.data(), n, n, n, false);
        });
    };
    EXPECT_EQ(gemmRegions(64), 0);

    LayerNorm norm("ln", 64);
    const Tensor x = Tensor::randn({16, 64}, rng);
    (void)norm.forward(x);
    EXPECT_EQ(test::pooledRegions([&] { (void)norm.backward(x); }), 0);

    Gelu gelu;
    gelu.setMode(Mode::Infer);
    const Tensor g = Tensor::randn({1024}, rng);
    EXPECT_EQ(test::pooledRegions([&] { (void)gelu.forward(g); }), 0);

    if (runtimeThreads() > 1) {
        EXPECT_GE(gemmRegions(512), 1);
    } else {
        EXPECT_EQ(gemmRegions(512), 0);
    }
}

TEST(Tracer, WriteTraceEmitsChromeJson)
{
    resetTracing();
    obs::startTracing();
    {
        obs::ScopedSpan span("test", "export", 1, "bytes", 64);
    }
    obs::emitCounter("test.export.counter", 5);
    obs::stopTracing();

    const std::string path = tempPath("optimus_obs_export.json");
    ASSERT_TRUE(obs::writeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    const std::string json = text.str();

    // Chrome trace-event envelope with one event per line.
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("]}"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"export#1\""), std::string::npos);
    EXPECT_NE(json.find("\"bytes\":64"), std::string::npos);
}

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

/** Fully-compressed tiny grid on the overlapped engine path. */
Trainer3dConfig
tracedConfig(const std::string &trace_path)
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
    config.tracePath = trace_path;
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

TEST(TracedTrainer, SpanTracingIsBitwiseNeutral)
{
    // The acceptance gate: 5 iterations with span tracing on must
    // be bitwise identical to the untraced run at every
    // OPTIMUS_THREADS level ctest runs us at.
    resetTracing();
    const std::string path = tempPath("optimus_obs_neutrality.json");
    {
        Trainer3d traced(tracedConfig(path));
        Trainer3d plain(tracedConfig(""));
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng_t(11), rng_p(11);
        for (int it = 0; it < 5; ++it) {
            const auto st = traced.trainIteration(data, rng_t);
            const auto sp = plain.trainIteration(data, rng_p);
            ASSERT_EQ(st.loss, sp.loss) << "iteration " << it;
            ASSERT_EQ(st.dpVolume.actualBytes,
                      sp.dpVolume.actualBytes);
            ASSERT_EQ(st.interStageBytes, sp.interStageBytes);
        }
        EXPECT_EQ(bitwiseMismatch(traced, plain), 0);
    }
    // The owning trainer's destructor wrote the trace.
    EXPECT_FALSE(obs::tracingEnabled());
    const auto summary = obs::summarizeTraceFile(path);
    EXPECT_TRUE(summary.valid);
    EXPECT_GT(summary.spans, 0);
}

TEST(TraceSummary, ReconcilesWithStepPhaseTimes)
{
    resetTracing();
    const std::string path = tempPath("optimus_obs_reconcile.json");
    StepPhaseTimes sum;
    {
        Trainer3d trainer(tracedConfig(path));
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(11);
        for (int it = 0; it < 5; ++it) {
            const auto stats = trainer.trainIteration(data, rng);
            sum.forwardBackward += stats.phases.forwardBackward;
            sum.dpReduce += stats.phases.dpReduce;
            sum.dpReduceBusy += stats.phases.dpReduceBusy;
            sum.embSync += stats.phases.embSync;
            sum.optimizer += stats.phases.optimizer;
            sum.total += stats.phases.total;
        }
    }
    const obs::TraceSummary summary = obs::summarizeTraceFile(path);
    ASSERT_TRUE(summary.valid);
    EXPECT_EQ(summary.steps, 5);

    // Phase spans are emitted from the very clock readings that
    // build StepPhaseTimes, so the export's microsecond formatting
    // (3 decimals = ns resolution) is the only divergence. The
    // acceptance tolerance is <1% with a small absolute floor for
    // near-zero phases.
    const auto near = [](double trace_s, double timer_s) {
        return std::abs(trace_s - timer_s) <=
               0.01 * timer_s + 2e-6;
    };
    EXPECT_TRUE(near(summary.forwardBackward, sum.forwardBackward))
        << summary.forwardBackward << " vs " << sum.forwardBackward;
    EXPECT_TRUE(near(summary.dpReduce, sum.dpReduce))
        << summary.dpReduce << " vs " << sum.dpReduce;
    EXPECT_TRUE(near(summary.dpReduceBusy, sum.dpReduceBusy))
        << summary.dpReduceBusy << " vs " << sum.dpReduceBusy;
    EXPECT_TRUE(near(summary.embSync, sum.embSync))
        << summary.embSync << " vs " << sum.embSync;
    EXPECT_TRUE(near(summary.optimizer, sum.optimizer))
        << summary.optimizer << " vs " << sum.optimizer;
    EXPECT_TRUE(near(summary.total, sum.total))
        << summary.total << " vs " << sum.total;

    // The rendered table carries every reconciled row.
    const std::string table = obs::renderTraceSummary(summary);
    EXPECT_NE(table.find("dpReduceBusy"), std::string::npos);
    EXPECT_NE(table.find("total(step)"), std::string::npos);
}

TEST(TraceSummary, BucketReduceOverlapsBackward)
{
    // The overlap the reduce engine exists to create: with a worker
    // free to drain buckets while the D replica chunks occupy the
    // others, some bucket reduce span must run concurrently with a
    // backward span.
    Trainer3dConfig config =
        tracedConfig(tempPath("optimus_obs_overlap.json"));
    config.bucketBytes = 64 * 1024;
    config.fusedEmbeddingSync = false;
    if (runtimeThreads() < config.dataParallel + 1)
        GTEST_SKIP() << "needs " << config.dataParallel + 1
                     << " pool threads, have " << runtimeThreads();
    resetTracing();
    {
        Trainer3d trainer(config);
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(11);
        for (int it = 0; it < 5; ++it)
            trainer.trainIteration(data, rng);
    }
    std::vector<obs::TraceEvent> buckets, backwards;
    for (const obs::TraceEvent &e : obs::traceEvents()) {
        if (e.phase != 'X')
            continue;
        if (std::strcmp(e.category, "reduce") == 0)
            buckets.push_back(e);
        else if (std::strcmp(e.category, "compute") == 0 &&
                 std::strcmp(e.name, "backward") == 0)
            backwards.push_back(e);
    }
    ASSERT_FALSE(buckets.empty());
    ASSERT_FALSE(backwards.empty());
    bool overlapped = false;
    for (const obs::TraceEvent &bucket : buckets) {
        for (const obs::TraceEvent &backward : backwards) {
            if (bucket.beginNs < backward.endNs &&
                backward.beginNs < bucket.endNs)
                overlapped = true;
        }
    }
    EXPECT_TRUE(overlapped)
        << "no reduce bucket span overlaps a backward span with "
        << runtimeThreads() << " pool threads";
}

TEST(Metrics, SnapshotMatchesCommTraceAndIsDeterministic)
{
    resetTracing();
    auto &registry = obs::MetricsRegistry::instance();

    const auto runOnce = [&]() {
        registry.resetValues();
        obs::enableMetrics(true);
        Trainer3dConfig config = tracedConfig("");
        config.traceCommunication = true;
        Trainer3d trainer(config);
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(11);
        for (int it = 0; it < 3; ++it)
            trainer.trainIteration(data, rng);
        obs::enableMetrics(false);

        // The per-phase tallies live only in the transport ledger
        // (pinned against the CommTrace in test_comm.cc); the
        // registry keeps one wire-size observation per event, so its
        // histogram counts exactly the CommTrace's events.
        const CommTrace *trace = trainer.trace();
        EXPECT_NE(trace, nullptr);
        if (trace != nullptr) {
            const auto snap = registry.counterSnapshot();
            int64_t trace_events = 0;
            for (CommPhase phase :
                 {CommPhase::InterStage, CommPhase::DpReduce,
                  CommPhase::EmbSync, CommPhase::Other})
                trace_events += trace->volume(phase).events;
            EXPECT_GT(trace->volume(CommPhase::DpReduce).events, 0);
            EXPECT_EQ(registry.histogram("comm.event.wireBytes")
                          .snapshot()
                          .count(),
                      trace_events);
            for (const auto &entry : snap)
                EXPECT_NE(entry.first.rfind("comm.", 0), 0u)
                    << entry.first;
            EXPECT_EQ(snap.at("trainer.iterations"), 3);
            EXPECT_GT(snap.at("reduce.buckets.reduced"), 0);
            EXPECT_GT(snap.at("runtime.parallelFor.calls"), 0);
            EXPECT_GT(snap.at("runtime.tasks.submitted"), 0);
            // The allocation observability gauges are published
            // every step; steady-state behavior is enforced by
            // test_arena / alloc_gate, presence is pinned here.
            EXPECT_GT(snap.at("mem.arenaHits"), 0);
            EXPECT_GE(snap.at("mem.heapAllocs"), 0);
        }
        auto snap = registry.counterSnapshot();
        // mem.* mirrors the process-lifetime tallies behind
        // mem::heapAllocs() et al. — cumulative across runs by
        // design, so they are excluded from the run-to-run
        // determinism comparison below.
        for (auto it = snap.begin(); it != snap.end();) {
            if (it->first.rfind("mem.", 0) == 0)
                it = snap.erase(it);
            else
                ++it;
        }
        return snap;
    };

    const auto first = runOnce();
    const std::string json_a = registry.snapshotJson();
    const std::string json_b = registry.snapshotJson();
    EXPECT_EQ(json_a, json_b); // export itself is deterministic

    // JSON export is sorted and integer-valued; spot-check shape.
    EXPECT_EQ(json_a.rfind("{", 0), 0u);
    EXPECT_NE(json_a.find("\"trainer.iterations\":3"),
              std::string::npos);
    EXPECT_LT(json_a.find("reduce.buckets.reduced"),
              json_a.find("runtime.parallelFor.calls"));
    EXPECT_LT(json_a.find("runtime.parallelFor.calls"),
              json_a.find("trainer.iterations"));

    // An identical second run reproduces the identical snapshot
    // (semantic counts, not scheduling accidents).
    const auto second = runOnce();
    EXPECT_EQ(first, second);
}

TEST(Rings, WraparoundKeepsNewestAndRollupIsExact)
{
    obs::Ring ring(8);
    EXPECT_EQ(ring.capacity(), 8);
    EXPECT_EQ(ring.size(), 0);
    for (int i = 0; i < 20; ++i)
        ring.push(static_cast<double>(i));

    // 20 pushes through capacity 8 retain exactly 12..19.
    EXPECT_EQ(ring.size(), 8);
    EXPECT_EQ(ring.totalPushed(), 20);
    EXPECT_EQ(ring.firstIndex(), 12);
    for (int64_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.at(i), static_cast<double>(12 + i));

    const obs::RingRollup roll = ring.rollup();
    EXPECT_EQ(roll.count, 8);
    EXPECT_EQ(roll.total, 20);
    EXPECT_EQ(roll.min, 12.0);
    EXPECT_EQ(roll.max, 19.0);
    EXPECT_EQ(roll.mean, 15.5);
    EXPECT_EQ(roll.last, 19.0);
    // Nearest-rank p99 of an 8-sample window is the window max.
    EXPECT_EQ(roll.p99, 19.0);

    std::vector<double> window;
    ring.snapshot(window);
    ASSERT_EQ(window.size(), 8u);
    EXPECT_EQ(window.front(), 12.0);
    EXPECT_EQ(window.back(), 19.0);

    ring.reset();
    EXPECT_EQ(ring.size(), 0);
    EXPECT_EQ(ring.capacity(), 8);

    // Registry: find-or-create returns a stable reference and the
    // creation-time capacity wins over later requests.
    obs::Ring &a = obs::RingRegistry::instance().ring("test.ring", 4);
    obs::Ring &b =
        obs::RingRegistry::instance().ring("test.ring", 1024);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.capacity(), 4);
}

TEST(Probes, HealthArithmeticMatchesHandComputedNorms)
{
    // l2 helpers against hand-evaluated sums.
    const float a[4] = {3.0f, 4.0f, 0.0f, -2.0f};
    const float b[4] = {1.0f, 4.0f, 2.0f, 0.0f};
    EXPECT_EQ(obs::l2NormSq(a, 4), 29.0);       // 9+16+0+4
    EXPECT_EQ(obs::l2DiffNormSq(a, b, 4), 12.0); // 4+0+4+4

    obs::CompressionHealth h;
    h.sends = 4;
    h.compressedSends = 3;
    h.exactBytes = 4000;
    h.wireBytes = 1000;
    h.inputNormSq = 29.0;
    h.errNormSq = 12.0;
    h.residualNormSq = 16.0;
    h.cosineSum = 2.7;
    h.cosineCount = 3;
    EXPECT_EQ(h.wireRatio(), 0.25);
    EXPECT_EQ(h.relError(), std::sqrt(12.0 / 29.0));
    EXPECT_EQ(h.residualNorm(), 4.0);
    EXPECT_EQ(h.meanCosine(), 2.7 / 3.0);

    // Defaults: nothing moved / nothing sampled degrade to neutral.
    const obs::CompressionHealth empty;
    EXPECT_EQ(empty.wireRatio(), 1.0);
    EXPECT_EQ(empty.relError(), 0.0);
    EXPECT_EQ(empty.meanCosine(), 1.0);

    // merge() folds the norm accumulators and leaves the send and
    // byte fields (ledger-owned) alone; delta() subtracts every
    // accumulated field but keeps residualNormSq (state, not
    // accumulation).
    obs::CompressionHealth sum = h;
    sum.merge(h);
    EXPECT_EQ(sum.sends, 4);
    EXPECT_EQ(sum.exactBytes, 4000);
    EXPECT_EQ(sum.inputNormSq, 58.0);
    EXPECT_EQ(sum.residualNormSq, 32.0);
    EXPECT_EQ(sum.cosineCount, 6);
    obs::CompressionHealth later = sum;
    later.sends = 8;
    later.compressedSends = 6;
    later.wireBytes = 2000;
    const obs::CompressionHealth window = later.delta(h);
    EXPECT_EQ(window.sends, 4);
    EXPECT_EQ(window.compressedSends, 3);
    EXPECT_EQ(window.wireBytes, 1000);
    EXPECT_EQ(window.errNormSq, 12.0);
    EXPECT_EQ(window.cosineCount, 3);
    EXPECT_EQ(window.residualNormSq, sum.residualNormSq);
}

TEST(Probes, ObserveAccumulatesOnlyOnSampledSteps)
{
    const float a[4] = {3.0f, 4.0f, 0.0f, -2.0f};
    const float b[4] = {1.0f, 4.0f, 2.0f, 0.0f};
    obs::CompressionHealth h;
    obs::enableProbes(false);
    h.observe(a, b, 4);
    EXPECT_EQ(h.cosineCount, 0);

    obs::enableProbes(true);
    obs::setProbeInterval(2);
    obs::probeStepBegin(1); // not sampled
    h.observe(a, b, 4);
    EXPECT_EQ(h.cosineCount, 0);
    obs::probeStepBegin(2);
    h.observe(a, b, 4);
    h.observe(a, b, 4);
    obs::enableProbes(false);
    obs::setProbeInterval(16);
    EXPECT_EQ(h.inputNormSq, 2 * 29.0);
    EXPECT_EQ(h.errNormSq, 2 * 12.0);
    EXPECT_EQ(h.cosineSum, 2 * cosineSimilarity(a, b, 4));
    EXPECT_EQ(h.cosineCount, 2);
    EXPECT_EQ(h.sends, 0);
    EXPECT_EQ(h.wireBytes, 0);
}

TEST(Probes, SampledCadenceFollowsProbeStepBegin)
{
    obs::enableProbes(true);
    obs::setProbeInterval(4);
    obs::probeStepBegin(0);
    EXPECT_TRUE(obs::probeActive());
    obs::probeStepBegin(1);
    EXPECT_FALSE(obs::probeActive());
    obs::probeStepBegin(4);
    EXPECT_TRUE(obs::probeActive());

    // Disabling probes disarms the gate immediately, and a begin
    // while disabled stays disarmed.
    obs::enableProbes(false);
    EXPECT_FALSE(obs::probeActive());
    obs::probeStepBegin(0);
    EXPECT_FALSE(obs::probeActive());

    obs::setProbeInterval(0); // clamps to 1
    EXPECT_EQ(obs::probeInterval(), 1);
    obs::setProbeInterval(16);
}

TEST(Alerts, RateLimiterHoldsPerChannelAndKind)
{
    obs::AlertLog &log = obs::AlertLog::instance();
    log.reset();
    obs::probeThresholds().alertIntervalSteps = 10;

    EXPECT_TRUE(log.raise("dp", obs::AlertKind::RelError, 0, 0.97,
                          0.95));
    for (int64_t step = 1; step < 10; ++step) {
        EXPECT_FALSE(log.raise("dp", obs::AlertKind::RelError, step,
                               0.98, 0.95));
    }
    // A different kind (or channel) has its own slot.
    EXPECT_TRUE(log.raise("dp", obs::AlertKind::GradNorm, 1, 50.0,
                          10.0));
    EXPECT_TRUE(log.raise("pp", obs::AlertKind::RelError, 1, 0.99,
                          0.95));
    // The interval expires at lastStep + interval.
    EXPECT_TRUE(log.raise("dp", obs::AlertKind::RelError, 10, 0.96,
                          0.95));

    EXPECT_EQ(log.raisedTotal(), 4);
    const std::vector<obs::Alert> alerts = log.snapshot();
    ASSERT_EQ(alerts.size(), 4u);
    EXPECT_STREQ(alerts[0].channel, "dp");
    EXPECT_EQ(alerts[0].step, 0);
    EXPECT_EQ(alerts[0].value, 0.97);
    EXPECT_EQ(alerts[0].threshold, 0.95);
    EXPECT_STREQ(obs::alertKindName(alerts[1].kind), "gradNorm");
    log.reset();
    EXPECT_EQ(log.raisedTotal(), 0);
}

TEST(Alerts, MonitorRaisesOnNonFiniteValues)
{
    // NaN fails every ordered comparison, so a plain value >
    // threshold check would never alert on it.
    obs::AlertLog &log = obs::AlertLog::instance();
    log.reset();
    obs::probeThresholds().alertIntervalSteps = 10;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    // Threshold 0 disables the monitor, non-finite values included.
    EXPECT_FALSE(obs::monitorThreshold("pp", obs::AlertKind::RelError,
                                       0, nan, 0.0));
    EXPECT_FALSE(obs::monitorThreshold("pp", obs::AlertKind::RelError,
                                       0, inf, 0.0));
    EXPECT_EQ(log.raisedTotal(), 0);

    // A NaN relative error alerts once, then rate-limits.
    EXPECT_TRUE(obs::monitorThreshold("pp", obs::AlertKind::RelError,
                                      1, nan, 0.95));
    EXPECT_FALSE(obs::monitorThreshold("pp", obs::AlertKind::RelError,
                                       2, nan, 0.95));
    EXPECT_EQ(log.raisedTotal(), 1);
    const std::vector<obs::Alert> alerts = log.snapshot();
    ASSERT_EQ(alerts.size(), 1u);
    EXPECT_STREQ(alerts[0].channel, "pp");
    EXPECT_TRUE(std::isnan(alerts[0].value));
    EXPECT_EQ(alerts[0].threshold, 0.95);

    // Finite values keep the plain threshold semantics; +Inf alerts.
    EXPECT_FALSE(obs::monitorThreshold("dp", obs::AlertKind::RelError,
                                       1, 0.95, 0.95));
    EXPECT_TRUE(obs::monitorThreshold("dp", obs::AlertKind::GradNorm,
                                      1, inf, 10.0));
    EXPECT_EQ(log.raisedTotal(), 2);
    log.reset();
}

TEST(ProbedTrainer, EmbBytesRingReadsTheStepsSyncWireBytes)
{
    // probe.emb.bytes is the step's EmbSync wire traffic: the
    // baseline sync moves the table twice (stage averages, then
    // pairwise sums), the fused sync once, and P = 1 (one tied
    // table) once.
    struct Case
    {
        int stages;
        bool fused;
        int64_t tables;
    };
    const Case cases[] = {{2, false, 2}, {2, true, 1}, {1, false, 1}};
    const int64_t table_bytes =
        4 * static_cast<int64_t>(tinyModel().vocab) * tinyModel().hidden;
    obs::enableMetrics(true);
    obs::enableProbes(true);
    obs::setProbeInterval(1);
    for (const Case &c : cases) {
        obs::RingRegistry::instance().resetValues();
        Trainer3dConfig config = tracedConfig("");
        config.pipelineStages = c.stages;
        config.fusedEmbeddingSync = c.fused;
        Trainer3d trainer(config);
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(11);
        for (int it = 0; it < 2; ++it)
            trainer.trainIteration(data, rng);
        const obs::Ring *ring =
            obs::RingRegistry::instance().find("probe.emb.bytes");
        ASSERT_NE(ring, nullptr);
        ASSERT_EQ(ring->size(), 2);
        for (int64_t i = 0; i < ring->size(); ++i) {
            EXPECT_EQ(ring->at(i),
                      static_cast<double>(c.tables * table_bytes))
                << "P=" << c.stages << " fused=" << c.fused;
        }
    }
    obs::enableProbes(false);
    obs::enableMetrics(false);
    obs::setProbeInterval(16);
}

TEST(ProbedTrainer, ProbesAreBitwiseNeutralAndReconcile)
{
    // The probe acceptance gate: 5 probed iterations (every step
    // sampled, rings on) must be bitwise identical to the unprobed
    // run at every OPTIMUS_THREADS level ctest runs us at.
    resetTracing();
    obs::enableProbes(false);
    std::vector<double> plain_losses;
    Trainer3d plain(tracedConfig(""));
    {
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(11);
        for (int it = 0; it < 5; ++it)
            plain_losses.push_back(
                plain.trainIteration(data, rng).loss);
    }

    obs::RingRegistry::instance().resetValues();
    obs::enableMetrics(true);
    obs::enableProbes(true);
    obs::setProbeInterval(1);
    Trainer3dConfig probed_config = tracedConfig("");
    probed_config.traceCommunication = true;
    Trainer3d probed(probed_config);
    {
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(11);
        for (int it = 0; it < 5; ++it) {
            EXPECT_EQ(probed.trainIteration(data, rng).loss,
                      plain_losses[static_cast<size_t>(it)])
                << "iteration " << it;
        }
    }
    const obs::CompressionHealth pp = probed.ppHealth();
    const obs::CompressionHealth dp = probed.dpHealth();
    obs::enableProbes(false);
    obs::enableMetrics(false);
    obs::setProbeInterval(16);

    EXPECT_EQ(bitwiseMismatch(probed, plain), 0);

    // The probes actually observed the run...
    EXPECT_GT(pp.compressedSends, 0);
    EXPECT_GT(dp.compressedSends, 0);
    EXPECT_GT(pp.inputNormSq, 0.0);
    EXPECT_GT(dp.inputNormSq, 0.0);
    EXPECT_GT(pp.relError(), 0.0);
    EXPECT_LT(pp.relError(), 1.0);
    EXPECT_GT(dp.meanCosine(), 0.0);
    EXPECT_LE(dp.meanCosine(), 1.0);
    EXPECT_LT(dp.wireRatio(), 1.0);

    // ...and its byte totals reconcile with the CommTrace exactly:
    // both are folds over the same transport events.
    const CommTrace *trace = probed.trace();
    ASSERT_NE(trace, nullptr);
    const auto dp_volume = trace->volume(CommPhase::DpReduce);
    EXPECT_EQ(dp.sends, dp_volume.events);
    EXPECT_EQ(dp.compressedSends, dp_volume.compressedEvents);
    EXPECT_EQ(dp.exactBytes, dp_volume.exactBytes);
    EXPECT_EQ(dp.wireBytes, dp_volume.wireBytes);
    const auto pp_volume = trace->volume(CommPhase::InterStage);
    EXPECT_EQ(pp.sends, pp_volume.events);
    EXPECT_EQ(pp.compressedSends, pp_volume.compressedEvents);
    EXPECT_EQ(pp.exactBytes, pp_volume.exactBytes);
    EXPECT_EQ(pp.wireBytes, pp_volume.wireBytes);

    // The probe rings sampled every step.
    const obs::Ring *relerr =
        obs::RingRegistry::instance().find("probe.dp.relerr");
    ASSERT_NE(relerr, nullptr);
    EXPECT_EQ(relerr->totalPushed(), 5);
    const obs::Ring *gradnorm =
        obs::RingRegistry::instance().find("train.gradnorm");
    ASSERT_NE(gradnorm, nullptr);
    EXPECT_EQ(gradnorm->totalPushed(), 5);
    EXPECT_GT(gradnorm->rollup().min, 0.0);
}

TEST(Promexport, RendersExpositionFormatAndServesHttp)
{
    obs::RingRegistry::instance().resetValues();
    obs::Ring &ring =
        obs::RingRegistry::instance().ring("test.export.ring", 8);
    for (int i = 0; i < 3; ++i)
        ring.push(static_cast<double>(i) + 0.5);
    obs::AlertLog::instance().reset();
    obs::AlertLog::instance().raise("test", obs::AlertKind::RelError,
                                    7, 0.99, 0.95);

    const std::string text = obs::renderPrometheusText();
    EXPECT_NE(text.find("# TYPE optimus_ring gauge"),
              std::string::npos);
    EXPECT_NE(text.find("optimus_ring{ring=\"test.export.ring\","
                        "stat=\"last\"} 2.5"),
              std::string::npos);
    EXPECT_NE(text.find("# ring test.export.ring 0 0.5 1.5 2.5"),
              std::string::npos);
    EXPECT_NE(text.find("optimus_alerts_total 1"),
              std::string::npos);
    EXPECT_NE(text.find("# alert step=7 channel=test "
                        "kind=relError value=0.99 threshold=0.95"),
              std::string::npos);

    // Dump: atomic write, parseable back.
    const std::string path = tempPath("optimus_obs_metrics.prom");
    ASSERT_TRUE(obs::writeMetricsProm(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream dumped;
    dumped << in.rdbuf();
    EXPECT_NE(dumped.str().find("# ring test.export.ring"),
              std::string::npos);

    // A short probed training run fills the train.* rings and the
    // probe gauges the live scrape below must carry.
    obs::enableMetrics(true);
    obs::enableProbes(true);
    obs::setProbeInterval(1);
    {
        Trainer3d trainer(tracedConfig(""));
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(11);
        for (int it = 0; it < 3; ++it)
            trainer.trainIteration(data, rng);
    }

    // Live scrape over the loopback listener on an ephemeral port.
    ASSERT_TRUE(obs::startMetricsServer(0));
    const int port = obs::metricsServerPort();
    ASSERT_GT(port, 0);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char request[] =
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
    ASSERT_GT(::send(fd, request, sizeof(request) - 1, 0), 0);
    std::string response;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        response.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    obs::stopMetricsServer();
    obs::enableProbes(false);
    obs::enableMetrics(false);
    obs::setProbeInterval(16);
    EXPECT_EQ(obs::metricsServerPort(), -1);

    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(
        response.find("Content-Type: text/plain; version=0.0.4"),
        std::string::npos);
    EXPECT_NE(response.find("optimus_ring{ring=\"test.export.ring"),
              std::string::npos);
    EXPECT_GE(obs::metricsScrapeCount(), 1);

    // The body is Prometheus text exposition: the ring gauge family,
    // the raw-series comments and the alert counter are present, and
    // every sample line parses as `name{labels} value`.
    const size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::regex sample(
        "[A-Za-z_:][A-Za-z0-9_:]*(\\{[^}]*\\})? [-+0-9.eEnaif]+");
    bool type_line = false, p99 = false, raw = false, alerts = false;
    int64_t samples = 0;
    std::istringstream lines(response.substr(body_at + 4));
    for (std::string line; std::getline(lines, line);) {
        const auto starts = [&line](const char *prefix) {
            return line.rfind(prefix, 0) == 0;
        };
        type_line = type_line || line == "# TYPE optimus_ring gauge";
        p99 = p99 || starts("optimus_ring{ring=\"train.loss\","
                            "stat=\"p99\"} ");
        raw = raw || starts("# ring train.loss ");
        alerts = alerts || starts("optimus_alerts_total ");
        if (line.empty() || line[0] == '#')
            continue;
        ++samples;
        EXPECT_TRUE(std::regex_match(line, sample))
            << "unparseable exposition line: " << line;
    }
    EXPECT_TRUE(type_line);
    EXPECT_TRUE(p99);
    EXPECT_TRUE(raw);
    EXPECT_TRUE(alerts);
    EXPECT_GT(samples, 0);
    obs::AlertLog::instance().reset();
}

TEST(TraceSummaryServe, SummarizesWavesAndReconcilesBoundary)
{
    resetTracing();
    obs::startTracing();

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
    config.boundary.kind = CompressorKind::TopK;
    config.boundary.topkFraction = 0.5;
    serve::ServeEngine engine(config);
    for (int r = 0; r < 4; ++r) {
        std::vector<int32_t> prompt;
        for (int t = 0; t < 3 + r % 3; ++t)
            prompt.push_back((7 * r + 3 * t + 1) % 24);
        engine.submit(prompt, 4);
    }
    engine.drain();
    obs::stopTracing();

    const std::string path = tempPath("optimus_obs_serve_trace.json");
    ASSERT_TRUE(obs::writeTrace(path));
    const obs::TraceSummary summary = obs::summarizeTraceFile(path);
    ASSERT_TRUE(summary.valid);

    // Every scheduler round traced as a wave; prefill and decode
    // phase seconds nest inside the wave spans.
    EXPECT_GT(summary.serveWaves, 0);
    EXPECT_EQ(summary.serveWaves,
              static_cast<int64_t>(summary.waves.size()));
    EXPECT_GT(summary.serveDecode, 0.0);
    EXPECT_GT(summary.servePrefill, 0.0);
    double wave_step = 0.0;
    int64_t wave_prefills = 0;
    for (const obs::ServeWave &wave : summary.waves) {
        wave_step += wave.stepSeconds;
        wave_prefills += wave.prefills;
        EXPECT_LE(wave.prefillSeconds + wave.decodeSeconds,
                  wave.stepSeconds + 1e-5);
    }
    EXPECT_EQ(wave_prefills, 4); // one prefill span per request
    EXPECT_NEAR(wave_step, summary.serveStep, 1e-9);

    // The per-verb comm rollup folds the same p2pSend events the
    // engine's probe volume does — exact byte reconciliation.
    const auto it = summary.commByVerb.find("interStage/p2pSend");
    ASSERT_NE(it, summary.commByVerb.end());
    const obs::CompressionHealth health = engine.boundaryHealth();
    EXPECT_EQ(static_cast<int64_t>(it->second.exactBytes),
              health.exactBytes);
    EXPECT_EQ(static_cast<int64_t>(it->second.wireBytes),
              health.wireBytes);
    EXPECT_EQ(it->second.spans, health.sends);

    const std::string table = obs::renderTraceSummary(summary);
    EXPECT_NE(table.find("serve waves"), std::string::npos);
    EXPECT_NE(table.find("decode"), std::string::npos);
    EXPECT_NE(table.find("interStage/p2pSend"), std::string::npos);
}

TEST(QualityExperiment, CollectsMetricsSnapshot)
{
    resetTracing();
    QualityRunConfig config;
    config.model.hidden = 16;
    config.model.heads = 2;
    config.iterations = 4;
    config.corpus.totalTokens = 6000;
    config.collectMetrics = true;
    const auto result =
        runQualityExperiment(config, presets::cb());
    EXPECT_FALSE(obs::metricsEnabled());
    ASSERT_FALSE(result.metrics.empty());
    EXPECT_EQ(result.metrics.at("trainer.iterations"), 4);
    EXPECT_GT(result.metrics.at("runtime.parallelFor.calls"), 0);
    EXPECT_GT(result.metrics.at("reduce.buckets.reduced"), 0);
}

} // namespace
} // namespace optimus
