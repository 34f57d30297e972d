/**
 * @file
 * Tests for the communication transport layer (comm/transport.hh)
 * and the trace-driven replay bridge (pipesim/trace_replay.hh):
 * verb-level correctness of the Transport's data movement, its
 * per-phase ledger and its recording, bitwise neutrality of tracing
 * on a full Trainer3d run, the analytic-vs-trace consistency gates (trace
 * volumes equal the counters the trainer reports; embedding-sync
 * trace traffic equals Eq 15/16 exactly for D in {2, 4, 8}; replayed
 * seconds equal an independent walk through the same alpha-beta
 * functions). Run at OPTIMUS_THREADS in {1, 4, 8} via the ctest
 * registrations in tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "comm/transport.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "parallel/data_parallel.hh"
#include "parallel/trainer3d.hh"
#include "pipesim/trace_replay.hh"
#include "simnet/cost_model.hh"

namespace optimus
{
namespace
{

/** Rank-r tensor with a deterministic per-element pattern. */
Tensor
patternTensor(const std::vector<int64_t> &shape, int salt)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.size(); ++i)
        t.data()[i] = 0.25f * static_cast<float>((i + salt) % 7) -
                      0.5f * static_cast<float>(salt % 3);
    return t;
}

TEST(CommGroup, FromTensorsAndFinalize)
{
    Tensor a = patternTensor({6}, 1);
    Tensor b = patternTensor({6}, 2);
    CommGroup group = CommGroup::fromTensors({&a, &b});
    ASSERT_EQ(group.ranks, 2);
    ASSERT_EQ(group.segPtrs.size(), 1u);
    EXPECT_EQ(group.segPtrs[0][0], a.data());
    EXPECT_EQ(group.segPtrs[0][1], b.data());
    EXPECT_EQ(group.segLens, (std::vector<int64_t>{6}));
    EXPECT_EQ(group.segOffsets, (std::vector<int64_t>{0}));
    EXPECT_EQ(group.totalElems, 6);
}

TEST(InProcess, AllReduceMeanMatchesManual)
{
    Transport transport;
    transport.setIteration(3);
    const int ranks = 3;
    std::vector<Tensor> tensors;
    std::vector<Tensor *> ptrs;
    for (int d = 0; d < ranks; ++d)
        tensors.push_back(patternTensor({4, 5}, d));
    std::vector<Tensor> originals = tensors;
    for (auto &t : tensors)
        ptrs.push_back(&t);

    const CommEvent ev = transport.allReduceTensors(
        CommPhase::DpReduce, ptrs, ReduceOp::Mean);

    EXPECT_EQ(ev.iteration, 3);
    EXPECT_EQ(ev.phase, CommPhase::DpReduce);
    EXPECT_EQ(ev.verb, CommVerb::AllReduce);
    EXPECT_EQ(ev.ranks, ranks);
    EXPECT_EQ(ev.groups, 1);
    EXPECT_EQ(ev.exactBytes, 4 * 20);
    EXPECT_EQ(ev.wireBytes, ev.exactBytes);
    EXPECT_EQ(ev.compressor.kind, CompressorKind::None);

    for (int64_t i = 0; i < 20; ++i) {
        // The kernel's exact arithmetic: double accumulation in
        // rank order, one float cast of the scaled result.
        double acc = 0.0;
        for (int d = 0; d < ranks; ++d)
            acc += static_cast<double>(originals[d][i]);
        const float expect = static_cast<float>(acc / ranks);
        for (int d = 0; d < ranks; ++d)
            ASSERT_EQ(tensors[d][i], expect) << "i=" << i;
    }
}

TEST(InProcess, AllReduceSumMatchesManual)
{
    Transport transport;
    std::vector<Tensor> tensors;
    std::vector<Tensor *> ptrs;
    for (int d = 0; d < 2; ++d)
        tensors.push_back(patternTensor({9}, d + 5));
    std::vector<Tensor> originals = tensors;
    for (auto &t : tensors)
        ptrs.push_back(&t);

    transport.allReduceTensors(CommPhase::Other, ptrs, ReduceOp::Sum);
    for (int64_t i = 0; i < 9; ++i) {
        const float expect = static_cast<float>(
            static_cast<double>(originals[0][i]) + originals[1][i]);
        EXPECT_EQ(tensors[0][i], expect);
        EXPECT_EQ(tensors[1][i], expect);
    }
}

TEST(InProcess, OneRankAllReduceIsIdentityAndStillRecorded)
{
    // A D = 1 reduce leaves every byte as it was, the signed zero
    // and a NaN payload included (a combine through double would
    // turn -0 into +0), and still returns the full event, so the
    // ledger and wire_bytes_per_token do not move.
    Transport transport;
    transport.setIteration(7);
    Tensor t = patternTensor({3, 5}, 4);
    const uint32_t nan_bits = 0x7fc01234u;
    std::memcpy(t.data() + 1, &nan_bits, sizeof(nan_bits));
    t.data()[2] = -0.0f;
    t.data()[3] = 1e-40f;
    const Tensor original = t;
    for (ReduceOp op : {ReduceOp::Mean, ReduceOp::Sum}) {
        const CommEvent ev =
            transport.allReduceTensors(CommPhase::DpReduce, {&t}, op);
        EXPECT_EQ(0, std::memcmp(t.data(), original.data(),
                                 sizeof(float) * t.size()));
        EXPECT_EQ(ev.iteration, 7);
        EXPECT_EQ(ev.phase, CommPhase::DpReduce);
        EXPECT_EQ(ev.verb, CommVerb::AllReduce);
        EXPECT_EQ(ev.ranks, 1);
        EXPECT_EQ(ev.exactBytes, 4 * 15);
        EXPECT_EQ(ev.wireBytes, 4 * 15);
    }

    std::vector<CommGroup> groups;
    groups.push_back(CommGroup::fromTensors({&t}));
    const CommEvent ev = transport.allReduceGrouped(
        CommPhase::DpReduce, groups, ReduceOp::Mean);
    EXPECT_EQ(0, std::memcmp(t.data(), original.data(),
                             sizeof(float) * t.size()));
    EXPECT_EQ(ev.ranks, 1);
    EXPECT_EQ(ev.groups, 1);
    EXPECT_EQ(ev.exactBytes, 4 * 15);
    EXPECT_EQ(ev.wireBytes, 4 * 15);

    // The ledger counted each of the three events with its bytes.
    const CommVolume v = transport.volume(CommPhase::DpReduce);
    EXPECT_EQ(v.events, 3);
    EXPECT_EQ(v.exactBytes, 3 * 4 * 15);
    EXPECT_EQ(v.wireBytes, 3 * 4 * 15);
}

TEST(InProcess, GroupedCollectiveReducesEachGroup)
{
    Transport transport;
    // Two disjoint groups of identical geometry, as the baseline
    // embedding sync issues them.
    std::vector<Tensor> g0, g1;
    for (int d = 0; d < 2; ++d) {
        g0.push_back(patternTensor({8}, d));
        g1.push_back(patternTensor({8}, d + 9));
    }
    std::vector<Tensor> o0 = g0, o1 = g1;
    std::vector<CommGroup> groups;
    groups.push_back(CommGroup::fromTensors({&g0[0], &g0[1]}));
    groups.push_back(CommGroup::fromTensors({&g1[0], &g1[1]}));

    const CommEvent ev = transport.allReduceGrouped(
        CommPhase::EmbSync, groups, ReduceOp::Mean);
    EXPECT_EQ(ev.ranks, 2);
    EXPECT_EQ(ev.groups, 2);
    // Per-group logical message size, not multiplied by groups.
    EXPECT_EQ(ev.exactBytes, 4 * 8);

    for (int64_t i = 0; i < 8; ++i) {
        const float e0 = static_cast<float>(
            (static_cast<double>(o0[0][i]) + o0[1][i]) / 2.0);
        const float e1 = static_cast<float>(
            (static_cast<double>(o1[0][i]) + o1[1][i]) / 2.0);
        EXPECT_EQ(g0[0][i], e0);
        EXPECT_EQ(g0[1][i], e0);
        EXPECT_EQ(g1[0][i], e1);
        EXPECT_EQ(g1[1][i], e1);
    }
}

TEST(InProcess, BroadcastReplicatesRankZero)
{
    Transport transport;
    std::vector<Tensor> tensors;
    for (int d = 0; d < 3; ++d)
        tensors.push_back(patternTensor({7}, d));
    const Tensor root = tensors[0];
    CommGroup group = CommGroup::fromTensors(
        {&tensors[0], &tensors[1], &tensors[2]});

    const CommEvent ev =
        transport.broadcast(CommPhase::Other, group);
    EXPECT_EQ(ev.verb, CommVerb::Broadcast);
    EXPECT_EQ(ev.ranks, 3);
    EXPECT_EQ(ev.exactBytes, 4 * 7);
    for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(std::memcmp(tensors[d].data(), root.data(),
                              sizeof(float) * 7),
                  0);
    }
}

TEST(InProcess, P2pSendIsPureAccounting)
{
    Transport transport;
    transport.setIteration(11);
    CompressorSpec spec{CompressorKind::PowerSgd, 4, 0.01, 42};
    const CommEvent ev = transport.p2pSend(
        CommPhase::InterStage, 2, 1, 0, 4096, 512, spec);
    EXPECT_EQ(ev.iteration, 11);
    EXPECT_EQ(ev.verb, CommVerb::P2pSend);
    EXPECT_EQ(ev.src, 2);
    EXPECT_EQ(ev.dst, 1);
    EXPECT_EQ(ev.replica, 0);
    EXPECT_EQ(ev.ranks, 2);
    EXPECT_EQ(ev.exactBytes, 4096);
    EXPECT_EQ(ev.wireBytes, 512);
    EXPECT_EQ(ev.compressor.kind, CompressorKind::PowerSgd);
    EXPECT_EQ(ev.compressor.rank, 4);
}

TEST(InProcess, CompressedReduceMatchesDirectProtocol)
{
    // The transport verb must be a pure wrapper: same seed, same
    // inputs => bitwise-identical reconstruction and the protocol's
    // own payload as wire bytes.
    const int workers = 2, rank = 2;
    std::vector<Tensor> a, b;
    for (int d = 0; d < workers; ++d) {
        a.push_back(patternTensor({12, 6}, d + 1));
        b.push_back(a.back());
    }
    std::vector<const Tensor *> in_a, in_b;
    for (int d = 0; d < workers; ++d) {
        in_a.push_back(&a[d]);
        in_b.push_back(&b[d]);
    }

    DistributedPowerSgd direct(workers, rank, 7);
    Tensor mean_direct({12, 6});
    const int64_t payload = direct.reduce(in_b, mean_direct);

    Transport transport;
    DistributedPowerSgd viaTransport(workers, rank, 7);
    Tensor mean_via({12, 6});
    const CommEvent ev = transport.allReduceCompressed(
        CommPhase::DpReduce, viaTransport, in_a, mean_via);

    EXPECT_EQ(ev.verb, CommVerb::AllReduceCompressed);
    EXPECT_EQ(ev.ranks, workers);
    EXPECT_EQ(ev.exactBytes, 4 * 12 * 6);
    EXPECT_EQ(ev.wireBytes, payload);
    EXPECT_EQ(ev.compressor.kind, CompressorKind::PowerSgd);
    EXPECT_EQ(ev.compressor.rank, rank);
    EXPECT_EQ(std::memcmp(mean_via.data(), mean_direct.data(),
                          sizeof(float) * mean_via.size()),
              0);
}

TEST(Recording, CapturesEveryEvent)
{
    Transport recorder(true);
    recorder.setIteration(4);

    recorder.p2pSend(CommPhase::InterStage, 1, 0, 0, 100, 40,
                     CompressorSpec{});
    std::vector<Tensor> tensors;
    std::vector<Tensor *> ptrs;
    for (int d = 0; d < 2; ++d)
        tensors.push_back(patternTensor({5}, d));
    for (auto &t : tensors)
        ptrs.push_back(&t);
    recorder.allReduceTensors(CommPhase::DpReduce, ptrs,
                              ReduceOp::Mean);

    const CommTrace &trace = recorder.trace();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.volume(CommPhase::InterStage, 4).events, 1);
    EXPECT_EQ(trace.volume(CommPhase::InterStage, 5).events, 0);
    const CommVolume is = trace.volume(CommPhase::InterStage);
    EXPECT_EQ(is.events, 1);
    // Kind None is an exact send, whatever its byte counts say.
    EXPECT_EQ(is.compressedEvents, 0);
    EXPECT_EQ(is.exactBytes, 100);
    EXPECT_EQ(is.wireBytes, 40);
    const CommVolume dp = trace.volume(CommPhase::DpReduce);
    EXPECT_EQ(dp.events, 1);
    EXPECT_EQ(dp.compressedEvents, 0);
    EXPECT_EQ(dp.exactBytes, 20);
    EXPECT_EQ(dp.wireBytes, 20);
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

/** Fully-compressed tiny grid (CB + DP compression + fused sync). */
Trainer3dConfig
tracedConfig(bool trace, bool fused)
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
    config.fusedEmbeddingSync = fused;
    config.traceCommunication = trace;
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

TEST(TracedTrainer, RecordingIsBitwiseNeutral)
{
    // The acceptance gate: 5 iterations with tracing on must be
    // bitwise identical to the untraced run (same losses, same
    // parameters) at every OPTIMUS_THREADS level ctest runs us at.
    Trainer3d traced(
        tracedConfig(true, true));
    Trainer3d plain(
        tracedConfig(false, true));
    LmDataset data = tinyData(tinyModel().seqLen);
    Rng rng_t(11), rng_p(11);
    for (int it = 0; it < 5; ++it) {
        const auto st = traced.trainIteration(data, rng_t);
        const auto sp = plain.trainIteration(data, rng_p);
        ASSERT_EQ(st.loss, sp.loss) << "iteration " << it;
        ASSERT_EQ(st.dpVolume.actualBytes, sp.dpVolume.actualBytes);
        ASSERT_EQ(st.interStageBytes, sp.interStageBytes);
    }
    EXPECT_EQ(bitwiseMismatch(traced, plain), 0);
    ASSERT_NE(traced.trace(), nullptr);
    EXPECT_EQ(plain.trace(), nullptr);
    EXPECT_GT(traced.trace()->size(), 0u);
}

void
expectSameVolume(const CommVolume &a, const CommVolume &b,
                 const char *what)
{
    EXPECT_EQ(a.events, b.events) << what;
    EXPECT_EQ(a.compressedEvents, b.compressedEvents) << what;
    EXPECT_EQ(a.exactBytes, b.exactBytes) << what;
    EXPECT_EQ(a.wireBytes, b.wireBytes) << what;
}

/** One (D, P, compression) point of the ledger grid. */
struct LedgerCase
{
    int dataParallel;
    int pipelineStages;
    /** CB and DP compression both on (else both off). */
    bool compress;
};

class TracedTrainerGrid : public ::testing::TestWithParam<LedgerCase>
{
};

TEST_P(TracedTrainerGrid, TraceVolumesMatchReportedCounters)
{
    // Consistency gate: the trainer's comm ledger and the counters
    // it reports must equal the recorded event stream to the exact
    // integer, events and compressed events included.
    const LedgerCase grid = GetParam();
    Trainer3dConfig config = tracedConfig(true, false);
    config.dataParallel = grid.dataParallel;
    config.pipelineStages = grid.pipelineStages;
    config.cb.enabled = grid.compress;
    config.dp.enabled = grid.compress;
    Trainer3d trainer(config);
    const int d_ways = grid.dataParallel;
    const int p_ways = grid.pipelineStages;
    LmDataset data = tinyData(tinyModel().seqLen);
    Rng rng(11);

    // The DP exact volume is the flat size of every reduced
    // parameter -- derivable from the model independently of the
    // events. The synchronizer owns the embedding table of the
    // first and the last stage (one tied table when P = 1).
    const int64_t table =
        static_cast<int64_t>(tinyModel().vocab) * tinyModel().hidden;
    int64_t reduced_elems = -(p_ways == 1 ? 1 : 2) * table;
    int64_t buckets = 0;
    for (int p = 0; p < p_ways; ++p) {
        for (const auto &param : trainer.stage(0, p).params())
            reduced_elems += param->size();
    }

    for (int it = 0; it < 5; ++it) {
        const IterationStats stats =
            trainer.trainIteration(data, rng);
        const CommTrace &trace = *trainer.trace();
        if (it == 0) {
            for (int p = 0; p < p_ways; ++p)
                buckets += static_cast<int64_t>(
                    trainer.reduceEngine(p).buckets().size());
        }

        const CommVolume is =
            trace.volume(CommPhase::InterStage, it);
        EXPECT_EQ(is.wireBytes, stats.interStageBytes);
        EXPECT_EQ(is.exactBytes, stats.interStageBytesExact);
        EXPECT_EQ(is.events,
                  int64_t{d_ways} * (p_ways - 1) * config.microBatches);

        const CommVolume dp = trace.volume(CommPhase::DpReduce, it);
        EXPECT_EQ(dp.wireBytes, stats.dpVolume.actualBytes);
        EXPECT_EQ(dp.exactBytes, stats.dpVolume.exactBytes);
        EXPECT_EQ(dp.exactBytes, 4 * reduced_elems);
        EXPECT_EQ(dp.events, buckets);

        // Baseline sync is two grouped collectives of the table
        // (D-way averages, then pairwise sums), each of logical
        // size V; P = 1 only averages the one tied table.
        const CommVolume emb = trace.volume(CommPhase::EmbSync, it);
        EXPECT_EQ(emb.events, p_ways == 1 ? 1 : 2);
        EXPECT_EQ(emb.exactBytes,
                  emb.events * stats.embVolume.tableBytes);
        EXPECT_EQ(emb.compressedEvents, 0);
        // Eq 15 exactness straight off the recorded events.
        EXPECT_EQ(trace.trafficBytes(CommPhase::EmbSync, it),
                  stats.embVolume.trafficBytes);

        if (!grid.compress) {
            EXPECT_EQ(is.compressedEvents, 0);
            EXPECT_EQ(dp.compressedEvents, 0);
            EXPECT_EQ(is.wireBytes, is.exactBytes);
            EXPECT_EQ(dp.wireBytes, dp.exactBytes);
        }
    }

    // The ledger is cumulative over the run: all phases equal the
    // whole recording, and the health views read it.
    const CommTrace &trace = *trainer.trace();
    const CommPhase phases[] = {CommPhase::InterStage,
                                CommPhase::DpReduce,
                                CommPhase::EmbSync, CommPhase::Other};
    for (const CommPhase phase : phases)
        expectSameVolume(trainer.commVolume(phase), trace.volume(phase),
                         commPhaseName(phase));
    const CommVolume is = trace.volume(CommPhase::InterStage);
    const CommVolume dp = trace.volume(CommPhase::DpReduce);
    const obs::CompressionHealth pp_health = trainer.ppHealth();
    const obs::CompressionHealth dp_health = trainer.dpHealth();
    EXPECT_EQ(pp_health.sends, is.events);
    EXPECT_EQ(pp_health.compressedSends, is.compressedEvents);
    EXPECT_EQ(pp_health.exactBytes, is.exactBytes);
    EXPECT_EQ(pp_health.wireBytes, is.wireBytes);
    EXPECT_EQ(dp_health.sends, dp.events);
    EXPECT_EQ(dp_health.compressedSends, dp.compressedEvents);
    EXPECT_EQ(dp_health.exactBytes, dp.exactBytes);
    EXPECT_EQ(dp_health.wireBytes, dp.wireBytes);
    if (grid.compress) {
        // Compression is live on the boundaries and the DP reduce.
        if (p_ways > 1) {
            EXPECT_GT(is.compressedEvents, 0);
            EXPECT_LT(is.wireBytes, is.exactBytes);
        }
        EXPECT_GT(dp.compressedEvents, 0);
        EXPECT_LT(dp.wireBytes, dp.exactBytes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TracedTrainerGrid,
    ::testing::Values(LedgerCase{1, 1, false}, LedgerCase{1, 1, true},
                      LedgerCase{1, 2, false}, LedgerCase{1, 2, true},
                      LedgerCase{2, 2, false}, LedgerCase{2, 2, true},
                      LedgerCase{4, 4, false},
                      LedgerCase{4, 4, true}),
    [](const ::testing::TestParamInfo<LedgerCase> &info) {
        return "D" + std::to_string(info.param.dataParallel) + "P" +
               std::to_string(info.param.pipelineStages) +
               (info.param.compress ? "_compressed" : "_exact");
    });

/**
 * Two InterStage sends (one PowerSGD-compressed) and one 3-rank
 * EmbSync sum of 5 floats through @p transport.
 */
void
issueLedgerEvents(Transport &transport)
{
    CompressorSpec powersgd;
    powersgd.kind = CompressorKind::PowerSgd;
    transport.p2pSend(CommPhase::InterStage, 1, 0, 0, 100, 40,
                      powersgd);
    transport.p2pSend(CommPhase::InterStage, 1, 0, 1, 100, 100,
                      CompressorSpec{});
    std::vector<Tensor> tensors;
    std::vector<Tensor *> ptrs;
    for (int d = 0; d < 3; ++d)
        tensors.push_back(patternTensor({5}, d));
    for (auto &t : tensors)
        ptrs.push_back(&t);
    transport.allReduceTensors(CommPhase::EmbSync, ptrs,
                               ReduceOp::Sum);
}

/** The ledger of a transport that carried issueLedgerEvents(). */
void
expectLedgerOfIssuedEvents(const Transport &transport)
{
    const CommVolume is = transport.volume(CommPhase::InterStage);
    EXPECT_EQ(is.events, 2);
    EXPECT_EQ(is.compressedEvents, 1);
    EXPECT_EQ(is.exactBytes, 200);
    EXPECT_EQ(is.wireBytes, 140);
    const CommVolume emb = transport.volume(CommPhase::EmbSync);
    EXPECT_EQ(emb.events, 1);
    EXPECT_EQ(emb.compressedEvents, 0);
    EXPECT_EQ(emb.wireBytes, 20);
    EXPECT_EQ(transport.volume(CommPhase::DpReduce).events, 0);
    EXPECT_EQ(transport.volume(CommPhase::Other).events, 0);
}

TEST(Tracing, LedgerFoldsEveryEventPerPhase)
{
    // The ledger counts what passes through, per phase, and treats
    // exactly the events with a compressor kind as compressed; a
    // recording transport folds its ledger and its trace from the
    // same events, so the two agree phase by phase.
    Transport transport(true);
    issueLedgerEvents(transport);
    expectLedgerOfIssuedEvents(transport);
    EXPECT_EQ(transport.trace().size(), 3u);
    const CommPhase phases[] = {CommPhase::InterStage,
                                CommPhase::DpReduce,
                                CommPhase::EmbSync, CommPhase::Other};
    for (const CommPhase phase : phases)
        expectSameVolume(transport.volume(phase),
                         transport.trace().volume(phase),
                         commPhaseName(phase));

    // delta() is the per-window view the trainer's stats use.
    const CommVolume is = transport.volume(CommPhase::InterStage);
    const CommVolume window = is.delta(CommVolume{1, 1, 100, 40});
    EXPECT_EQ(window.events, 1);
    EXPECT_EQ(window.compressedEvents, 0);
    EXPECT_EQ(window.exactBytes, 100);
    EXPECT_EQ(window.wireBytes, 100);
}

TEST(Tracing, UnrecordedTransportFoldsLedgerOnly)
{
    // Without record the ledger is the same and the trace stays
    // empty.
    Transport transport;
    issueLedgerEvents(transport);
    expectLedgerOfIssuedEvents(transport);
    EXPECT_EQ(transport.trace().size(), 0u);
}

TEST(EmbSyncTrace, MatchesClosedFormsForD248)
{
    // Satellite gate: recorded on-wire traffic of both sync
    // variants lands exactly on the paper's closed forms (Eq 15
    // baseline, Eq 16 fused) for D in {2, 4, 8}.
    const int64_t rows = 24, cols = 16;
    const double table_bytes =
        static_cast<double>(4 * rows * cols);
    for (const int d_ways : {2, 4, 8}) {
        for (const bool fused : {false, true}) {
            std::vector<ParamPtr> first, last;
            for (int d = 0; d < d_ways; ++d) {
                auto f = std::make_shared<Param>(
                    "tok_first", Tensor({rows, cols}));
                auto l = std::make_shared<Param>(
                    "tok_last", Tensor({rows, cols}));
                f->grad = patternTensor({rows, cols}, d);
                l->grad = patternTensor({rows, cols}, d + 31);
                first.push_back(f);
                last.push_back(l);
            }
            Transport recorder(true);
            EmbeddingSynchronizer sync(fused, first, last,
                                       &recorder);
            const EmbSyncVolume volume = sync.synchronize();

            const double expect =
                fused ? embSyncTrafficFused(table_bytes, d_ways)
                      : embSyncTrafficBaseline(table_bytes, d_ways);
            const double traced =
                recorder.trace().trafficBytes(CommPhase::EmbSync);
            EXPECT_EQ(traced, expect)
                << "D=" << d_ways << " fused=" << fused;
            EXPECT_EQ(volume.trafficBytes, expect);
            EXPECT_EQ(volume.tableBytes, 4 * rows * cols);
            EXPECT_EQ(recorder.trace().size(), fused ? 1u : 2u);
        }
    }
}

TEST(Replay, SecondsMatchIndependentRecomputation)
{
    // Record a real compressed run and replay it; the replayed
    // seconds must equal an independent canonical-order walk
    // through the same alpha-beta functions (model identity), and
    // the per-category volumes must equal the trace's own sums.
    Trainer3d trainer(
        tracedConfig(true, true));
    LmDataset data = tinyData(tinyModel().seqLen);
    Rng rng(11);
    for (int it = 0; it < 3; ++it)
        trainer.trainIteration(data, rng);
    const CommTrace &trace = *trainer.trace();

    const LinkSpec p2p{25e9, 5e-6};
    const LinkSpec coll{12.5e9, 7e-6};
    const TraceReplayer replayer(p2p, coll);
    const ReplayResult result = replayer.replay(trace);

    double expect_seconds[4] = {0.0, 0.0, 0.0, 0.0};
    double expect_traffic[4] = {0.0, 0.0, 0.0, 0.0};
    int64_t expect_wire[4] = {0, 0, 0, 0};
    for (const CommEvent &ev : trace.sorted()) {
        const int c = static_cast<int>(ev.phase);
        double s = 0.0;
        if (ev.verb == CommVerb::P2pSend)
            s = p2pTime(static_cast<double>(ev.wireBytes), p2p);
        else
            s = ringAllReduceTime(
                static_cast<double>(ev.wireBytes), ev.ranks, coll);
        expect_seconds[c] += s;
        expect_traffic[c] += commEventTraffic(ev);
        expect_wire[c] += ev.wireBytes;
    }
    const CommPhase phases[] = {CommPhase::InterStage,
                                CommPhase::DpReduce,
                                CommPhase::EmbSync, CommPhase::Other};
    for (const CommPhase phase : phases) {
        const int c = static_cast<int>(phase);
        const ReplayCategory &cat = result.category(phase);
        EXPECT_EQ(cat.seconds, expect_seconds[c])
            << commPhaseName(phase);
        EXPECT_EQ(cat.trafficBytes, expect_traffic[c]);
        EXPECT_EQ(cat.wireBytes, expect_wire[c]);
        const CommVolume v = trace.volume(phase);
        EXPECT_EQ(cat.events, v.events);
        EXPECT_EQ(cat.exactBytes, v.exactBytes);
    }
    EXPECT_GT(result.interStage.events, 0);
    EXPECT_GT(result.dpReduce.events, 0);
    EXPECT_GT(result.embSync.events, 0);
    EXPECT_EQ(result.totalSeconds(),
              expect_seconds[0] + expect_seconds[1] +
                  expect_seconds[2] + expect_seconds[3]);
}

} // namespace
} // namespace optimus
