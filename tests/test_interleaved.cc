/**
 * @file
 * Tests for interleaved (multi-chunk) 1F1B and its timing
 * simulation: structure, dependency feasibility, Megatron's warm-up
 * depth, the bubble reduction that motivates interleaving, and the
 * hop cost that limits it.
 *
 * The oracle suite pins the one schedule builder and the one timing
 * loop bitwise to self-contained copies of the earlier separate
 * implementations (plain 1F1B/GPipe builders and simulator, and the
 * dedicated interleaved schedule and simulator), which are kept
 * here verbatim apart from their types.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "pipesim/pipe_model.hh"
#include "schedule/schedule.hh"

namespace optimus
{
namespace
{

// ---------------------------------------------------------------
// Oracle: the separate plain and interleaved implementations.
// ---------------------------------------------------------------
namespace oracle
{

/** One op on one rank: a chunk's forward/backward of a micro-batch. */
struct VOp
{
    PipeOpKind kind;
    int rank;
    int chunk;
    int microBatch;

    int virtualStage(int ranks) const { return chunk * ranks + rank; }
};

using PerRank = std::vector<std::vector<VOp>>;

PerRank
oneFOneB(int stages, int micro_batches)
{
    PerRank per_stage(stages);
    for (int s = 0; s < stages; ++s) {
        auto &ops = per_stage[s];
        const int warmup = std::min(stages - 1 - s, micro_batches);
        int next_fwd = 0;
        int next_bwd = 0;
        for (int i = 0; i < warmup; ++i)
            ops.push_back({PipeOpKind::Forward, s, 0, next_fwd++});
        while (next_fwd < micro_batches) {
            ops.push_back({PipeOpKind::Forward, s, 0, next_fwd++});
            ops.push_back({PipeOpKind::Backward, s, 0, next_bwd++});
        }
        while (next_bwd < micro_batches)
            ops.push_back({PipeOpKind::Backward, s, 0, next_bwd++});
    }
    return per_stage;
}

PerRank
gpipe(int stages, int micro_batches)
{
    PerRank per_stage(stages);
    for (int s = 0; s < stages; ++s) {
        auto &ops = per_stage[s];
        for (int m = 0; m < micro_batches; ++m)
            ops.push_back({PipeOpKind::Forward, s, 0, m});
        for (int m = 0; m < micro_batches; ++m)
            ops.push_back({PipeOpKind::Backward, s, 0, m});
    }
    return per_stage;
}

void
decodeVirtualId(int vid, int ranks, int chunks, bool forward,
                int &chunk, int &micro_batch)
{
    const int group = ranks * chunks;
    const int in_group = vid % group;
    chunk = in_group / ranks;
    if (!forward)
        chunk = chunks - 1 - chunk;
    micro_batch = ranks * (vid / group) + vid % ranks;
}

PerRank
interleaved(int ranks, int chunks, int micro_batches)
{
    PerRank per_rank(ranks);
    const int total = micro_batches * chunks;
    for (int r = 0; r < ranks; ++r) {
        auto &ops = per_rank[r];
        const int warmup = std::min(
            (ranks - r - 1) * 2 + (chunks - 1) * ranks, total);

        int chunk, mb;
        for (int vid = 0; vid < warmup; ++vid) {
            decodeVirtualId(vid, ranks, chunks, true, chunk, mb);
            ops.push_back({PipeOpKind::Forward, r, chunk, mb});
        }
        for (int i = 0; i + warmup < total; ++i) {
            decodeVirtualId(warmup + i, ranks, chunks, true, chunk,
                            mb);
            ops.push_back({PipeOpKind::Forward, r, chunk, mb});
            decodeVirtualId(i, ranks, chunks, false, chunk, mb);
            ops.push_back({PipeOpKind::Backward, r, chunk, mb});
        }
        for (int vid = std::max(0, total - warmup); vid < total;
             ++vid) {
            decodeVirtualId(vid, ranks, chunks, false, chunk, mb);
            ops.push_back({PipeOpKind::Backward, r, chunk, mb});
        }
    }
    return per_rank;
}

/** The plain schedule's greedy global order (stage-indexed). */
std::vector<VOp>
plainGlobalOrder(const PerRank &sched, int p, int m)
{
    const int64_t op_count = static_cast<int64_t>(2) * p * m;
    std::vector<size_t> cursor(p, 0);
    std::vector<std::vector<bool>> fwd_done(
        p, std::vector<bool>(m, false));
    std::vector<std::vector<bool>> bwd_done(
        p, std::vector<bool>(m, false));
    std::vector<VOp> order;
    bool progressed = true;
    while (progressed &&
           static_cast<int64_t>(order.size()) < op_count) {
        progressed = false;
        for (int s = 0; s < p; ++s) {
            const auto &ops = sched[s];
            if (cursor[s] >= ops.size())
                continue;
            const VOp &op = ops[cursor[s]];
            bool ready;
            if (op.kind == PipeOpKind::Forward) {
                ready = s == 0 || fwd_done[s - 1][op.microBatch];
            } else {
                ready = fwd_done[s][op.microBatch] &&
                        (s == p - 1 || bwd_done[s + 1][op.microBatch]);
            }
            if (!ready)
                continue;
            if (op.kind == PipeOpKind::Forward)
                fwd_done[s][op.microBatch] = true;
            else
                bwd_done[s][op.microBatch] = true;
            order.push_back(op);
            ++cursor[s];
            progressed = true;
        }
    }
    if (static_cast<int64_t>(order.size()) != op_count)
        return {};
    return order;
}

/** The interleaved schedule's greedy global order. */
std::vector<VOp>
interleavedGlobalOrder(const PerRank &sched, int p, int chunks, int m)
{
    const int k_total = p * chunks;
    const int64_t op_count = static_cast<int64_t>(2) * k_total * m;
    std::vector<size_t> cursor(p, 0);
    std::vector<std::vector<bool>> fwd_done(
        k_total, std::vector<bool>(m, false));
    std::vector<std::vector<bool>> bwd_done(
        k_total, std::vector<bool>(m, false));
    std::vector<VOp> order;
    bool progressed = true;
    while (progressed &&
           static_cast<int64_t>(order.size()) < op_count) {
        progressed = false;
        for (int r = 0; r < p; ++r) {
            const auto &ops = sched[r];
            if (cursor[r] >= ops.size())
                continue;
            const VOp &op = ops[cursor[r]];
            const int k = op.virtualStage(p);
            bool ready;
            if (op.kind == PipeOpKind::Forward) {
                ready = k == 0 || fwd_done[k - 1][op.microBatch];
            } else {
                ready = fwd_done[k][op.microBatch] &&
                        (k == k_total - 1 ||
                         bwd_done[k + 1][op.microBatch]);
            }
            if (!ready)
                continue;
            if (op.kind == PipeOpKind::Forward)
                fwd_done[k][op.microBatch] = true;
            else
                bwd_done[k][op.microBatch] = true;
            order.push_back(op);
            ++cursor[r];
            progressed = true;
        }
    }
    if (static_cast<int64_t>(order.size()) != op_count)
        return {};
    return order;
}

/** The plain simulator (one chunk; bwdMsgTime indexed [s-1][m]). */
PipeSimResult
simulatePipeline(const PipeCostSpec &spec)
{
    const int p = spec.stages;
    const int m_count = spec.microBatches;
    const auto order = plainGlobalOrder(
        spec.schedule == ScheduleKind::GPipe ? gpipe(p, m_count)
                                             : oneFOneB(p, m_count),
        p, m_count);

    std::vector<double> stage_free(p, 0.0);
    std::vector<std::vector<double>> fwd_done(
        p, std::vector<double>(m_count, 0.0));
    std::vector<std::vector<double>> bwd_done(
        p, std::vector<double>(m_count, 0.0));

    for (const VOp &op : order) {
        const int s = op.rank;
        const int mb = op.microBatch;
        if (op.kind == PipeOpKind::Forward) {
            const double arrival =
                s == 0 ? 0.0
                       : fwd_done[s - 1][mb] + spec.fwdMsgTime;
            const double start = std::max(stage_free[s], arrival);
            const double done = start + spec.fwdCompute;
            fwd_done[s][mb] = done;
            stage_free[s] = done;
        } else {
            double arrival;
            if (s == p - 1) {
                arrival = fwd_done[s][mb];
            } else {
                arrival = bwd_done[s + 1][mb] +
                          spec.bwdMsgTime[s][mb];
            }
            const double start = std::max(
                {stage_free[s], arrival, fwd_done[s][mb]});
            const double done = start + spec.bwdCompute;
            bwd_done[s][mb] = done;
            stage_free[s] = done;
        }
    }

    PipeSimResult result;
    result.computeEnd.resize(p);
    result.dpEnd.resize(p);
    for (int s = 0; s < p; ++s) {
        result.computeEnd[s] = bwd_done[s][m_count - 1];
        result.dpEnd[s] = result.computeEnd[s] + spec.dpTime[s];
    }
    result.embEnd =
        std::max(result.dpEnd[0], result.dpEnd[p - 1]) +
        spec.embSyncTime;
    const double ramp = spec.fwdCompute + spec.fwdMsgTime;
    double period = 0.0;
    for (int s = 0; s < p; ++s) {
        double ready = result.dpEnd[s];
        if (s == 0 || s == p - 1)
            ready = std::max(ready, result.embEnd);
        period = std::max(period, ready - s * ramp);
    }
    result.iterationTime = std::max(period, result.computeEnd[0]);
    return result;
}

/** Timing inputs of the dedicated interleaved simulator. */
struct InterleavedCostSpec
{
    int ranks = 4;
    int chunks = 2;
    int microBatches = 16;
    double fwdComputePerChunk = 0.0;
    double bwdComputePerChunk = 0.0;
    double fwdMsgTime = 0.0;
    double bwdMsgTime = 0.0;
    std::vector<double> dpTime;
    double embSyncTime = 0.0;
};

double
simulateInterleaved(const InterleavedCostSpec &spec)
{
    const int p = spec.ranks;
    const int v = spec.chunks;
    const int m_count = spec.microBatches;
    const auto order = interleavedGlobalOrder(
        interleaved(p, v, m_count), p, v, m_count);
    const int k_total = p * v;

    std::vector<double> rank_free(p, 0.0);
    std::vector<std::vector<double>> fwd_done(
        k_total, std::vector<double>(m_count, 0.0));
    std::vector<std::vector<double>> bwd_done(
        k_total, std::vector<double>(m_count, 0.0));

    for (const VOp &op : order) {
        const int r = op.rank;
        const int k = op.virtualStage(p);
        const int mb = op.microBatch;
        if (op.kind == PipeOpKind::Forward) {
            const double arrival =
                k == 0 ? 0.0
                       : fwd_done[k - 1][mb] + spec.fwdMsgTime;
            const double start = std::max(rank_free[r], arrival);
            const double done = start + spec.fwdComputePerChunk;
            fwd_done[k][mb] = done;
            rank_free[r] = done;
        } else {
            const double arrival =
                k == k_total - 1
                    ? fwd_done[k][mb]
                    : bwd_done[k + 1][mb] + spec.bwdMsgTime;
            const double start = std::max(
                {rank_free[r], arrival, fwd_done[k][mb]});
            const double done = start + spec.bwdComputePerChunk;
            bwd_done[k][mb] = done;
            rank_free[r] = done;
        }
    }

    std::vector<double> compute_end(p, 0.0);
    for (int r = 0; r < p; ++r)
        compute_end[r] = bwd_done[r][m_count - 1];
    const double ramp = spec.fwdComputePerChunk + spec.fwdMsgTime;
    double emb_end =
        std::max(compute_end[0] + spec.dpTime[0],
                 compute_end[p - 1] + spec.dpTime[p - 1]) +
        spec.embSyncTime;
    double period = 0.0;
    for (int r = 0; r < p; ++r) {
        double ready = compute_end[r] + spec.dpTime[r];
        if (r == 0 || r == p - 1)
            ready = std::max(ready, emb_end);
        period = std::max(period, ready - r * ramp);
    }
    return std::max(period, compute_end[0]);
}

/**
 * The knock-out breakdown over either simulator. @p fwd_total is
 * the per-stage forward compute of one iteration.
 */
template <typename Spec, typename Simulate, typename ZeroComm>
IterationBreakdown
breakdown(const Spec &spec, Simulate simulate, ZeroComm zero_comm,
          double fwd_total)
{
    IterationBreakdown result;
    const double t_full = simulate(spec);
    result.total = t_full;
    Spec no_emb = spec;
    no_emb.embSyncTime = 0.0;
    const double t_no_emb = simulate(no_emb);
    result.embComm = t_full - t_no_emb;
    Spec no_dp = no_emb;
    std::fill(no_dp.dpTime.begin(), no_dp.dpTime.end(), 0.0);
    const double t_no_dp = simulate(no_dp);
    result.dpComm = t_no_emb - t_no_dp;
    Spec no_comm = no_dp;
    zero_comm(no_comm);
    const double t_compute = simulate(no_comm);
    result.interStage = t_no_dp - t_compute;
    result.fwdCompute = fwd_total;
    result.bwdCompute = t_compute - result.fwdCompute;
    return result;
}

/** The interleaved cost builder's re-shaping of the 1-chunk spec. */
InterleavedCostSpec
fromPlainSpec(const PipeCostSpec &base, const OptimusCcPolicy &policy,
              int chunks)
{
    InterleavedCostSpec spec;
    spec.ranks = base.stages;
    spec.chunks = chunks;
    spec.microBatches = base.microBatches;
    spec.fwdComputePerChunk = base.fwdCompute / chunks;
    spec.bwdComputePerChunk = base.bwdCompute / chunks;
    spec.fwdMsgTime = base.fwdMsgTime;
    spec.bwdMsgTime =
        base.stages > 1
            ? (policy.cb ? base.bwdMsgTime[0].back()
                         : base.bwdMsgTime[0].front())
            : 0.0;
    spec.dpTime = base.dpTime;
    spec.embSyncTime = base.embSyncTime;
    return spec;
}

} // namespace oracle

void
expectSameOps(const PipelineSchedule &sched, const oracle::PerRank &ref)
{
    ASSERT_EQ(static_cast<int>(ref.size()), sched.stages());
    for (int s = 0; s < sched.stages(); ++s) {
        const auto &ops = sched.stageOps(s);
        ASSERT_EQ(ops.size(), ref[s].size()) << "stage " << s;
        for (size_t i = 0; i < ops.size(); ++i) {
            EXPECT_EQ(ops[i].kind, ref[s][i].kind) << s << ":" << i;
            EXPECT_EQ(ops[i].stage, ref[s][i].rank) << s << ":" << i;
            EXPECT_EQ(ops[i].chunk, ref[s][i].chunk) << s << ":" << i;
            EXPECT_EQ(ops[i].microBatch, ref[s][i].microBatch)
                << s << ":" << i;
        }
    }
}

void
expectSameOrder(const std::vector<PipeOp> &order,
                const std::vector<oracle::VOp> &ref)
{
    ASSERT_EQ(order.size(), ref.size());
    for (size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i].kind, ref[i].kind) << i;
        EXPECT_EQ(order[i].stage, ref[i].rank) << i;
        EXPECT_EQ(order[i].chunk, ref[i].chunk) << i;
        EXPECT_EQ(order[i].microBatch, ref[i].microBatch) << i;
    }
}

void
expectSameBreakdown(const IterationBreakdown &got,
                    const IterationBreakdown &want)
{
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.fwdCompute, want.fwdCompute);
    EXPECT_EQ(got.bwdCompute, want.bwdCompute);
    EXPECT_EQ(got.interStage, want.interStage);
    EXPECT_EQ(got.dpComm, want.dpComm);
    EXPECT_EQ(got.embComm, want.embComm);
}

TEST(InterleavedOracle, OpListsAndGlobalOrdersMatch)
{
    for (int p : {1, 2, 4, 8}) {
        for (int m : {1, 3, p, 2 * p, 16}) {
            SCOPED_TRACE(::testing::Message() << "P=" << p << " M=" << m);
            const auto plain = oracle::oneFOneB(p, m);
            for (const auto &sched :
                 {PipelineSchedule::oneFOneB(p, m),
                  PipelineSchedule::oneFOneB(p, m, 1),
                  PipelineSchedule::make(ScheduleKind::OneFOneB, p, m)}) {
                expectSameOps(sched, plain);
                expectSameOrder(sched.globalOrder(),
                                oracle::plainGlobalOrder(plain, p, m));
            }
            const auto gp = oracle::gpipe(p, m);
            const auto gsched =
                PipelineSchedule::make(ScheduleKind::GPipe, p, m);
            expectSameOps(gsched, gp);
            expectSameOrder(gsched.globalOrder(),
                            oracle::plainGlobalOrder(gp, p, m));

            if (m % p != 0)
                continue;
            for (int v : {2, 4}) {
                SCOPED_TRACE(::testing::Message() << "v=" << v);
                const auto ref = oracle::interleaved(p, v, m);
                const auto sched = PipelineSchedule::oneFOneB(p, m, v);
                expectSameOps(sched, ref);
                expectSameOrder(
                    sched.globalOrder(),
                    oracle::interleavedGlobalOrder(ref, p, v, m));
            }
        }
    }
}

TEST(InterleavedOracle, TimingAndBreakdownMatchBitwise)
{
    const double stage_fwd = 1.0;
    const double stage_bwd = 2.1;
    for (int p : {1, 2, 4, 8}) {
        for (int v : {1, 2, 4}) {
            for (int m : {p, 2 * p, 16}) {
                for (double msg : {0.0, 0.001, 0.3, 1.0}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "P=" << p << " v=" << v
                                 << " M=" << m << " msg=" << msg);
                    PipeCostSpec spec;
                    spec.stages = p;
                    spec.chunks = v;
                    spec.microBatches = m;
                    spec.fwdCompute = stage_fwd / v;
                    spec.bwdCompute = stage_bwd / v;
                    spec.fwdMsgTime = msg;
                    spec.dpTime.resize(p);
                    for (int s = 0; s < p; ++s)
                        spec.dpTime[s] = 0.5 + 0.25 * s;
                    spec.embSyncTime = 0.7;
                    // One chunk: per-micro-batch variation on every
                    // channel; more: the uniform hop time the
                    // interleaved simulator took.
                    spec.bwdMsgTime.assign(p * v - 1,
                                           std::vector<double>(m, msg));
                    if (v == 1) {
                        for (int k = 0; k < p - 1; ++k)
                            for (int mb = 0; mb < m; ++mb)
                                spec.bwdMsgTime[k][mb] =
                                    msg * (1.0 + 0.125 *
                                                     ((3 * k + 5 * mb) %
                                                      7));
                    }

                    if (v == 1) {
                        for (auto kind : {ScheduleKind::OneFOneB,
                                          ScheduleKind::GPipe}) {
                            spec.schedule = kind;
                            const auto got = simulatePipeline(spec);
                            const auto want =
                                oracle::simulatePipeline(spec);
                            EXPECT_EQ(got.iterationTime,
                                      want.iterationTime);
                            EXPECT_EQ(got.embEnd, want.embEnd);
                            EXPECT_EQ(got.dpEnd, want.dpEnd);
                            EXPECT_EQ(got.computeEnd, want.computeEnd);
                            expectSameBreakdown(
                                computeBreakdown(spec),
                                oracle::breakdown(
                                    spec,
                                    [](const PipeCostSpec &s) {
                                        return oracle::simulatePipeline(
                                                   s)
                                            .iterationTime;
                                    },
                                    [](PipeCostSpec &s) {
                                        s.fwdMsgTime = 0.0;
                                        for (auto &ch : s.bwdMsgTime)
                                            std::fill(ch.begin(),
                                                      ch.end(), 0.0);
                                    },
                                    spec.microBatches *
                                        spec.fwdCompute));
                        }
                        continue;
                    }

                    oracle::InterleavedCostSpec ref;
                    ref.ranks = p;
                    ref.chunks = v;
                    ref.microBatches = m;
                    ref.fwdComputePerChunk = spec.fwdCompute;
                    ref.bwdComputePerChunk = spec.bwdCompute;
                    ref.fwdMsgTime = msg;
                    ref.bwdMsgTime = msg;
                    ref.dpTime = spec.dpTime;
                    ref.embSyncTime = spec.embSyncTime;
                    EXPECT_EQ(simulatePipeline(spec).iterationTime,
                              oracle::simulateInterleaved(ref));
                    expectSameBreakdown(
                        computeBreakdown(spec),
                        oracle::breakdown(
                            ref, oracle::simulateInterleaved,
                            [](oracle::InterleavedCostSpec &s) {
                                s.fwdMsgTime = 0.0;
                                s.bwdMsgTime = 0.0;
                            },
                            v * m * ref.fwdComputePerChunk));
                }
            }
        }
    }
}

TEST(InterleavedOracle, CostBuilderMatchesInterleavedBuilder)
{
    for (int pipeline : {1, 4, 8}) {
        ParallelConfig parallel;
        parallel.pipeline = pipeline;
        MappedWorkload w(HardwareConfig::a100Cluster(),
                         GptModelSpec::gpt8_3b(), parallel,
                         TrainingPlan{});
        for (const auto &policy :
             {OptimusCcPolicy::baseline(), OptimusCcPolicy::cbOnly(),
              OptimusCcPolicy::cbFeSc()}) {
            const PipeCostSpec base = buildCostSpec(w, policy);
            for (int v : {2, 4}) {
                SCOPED_TRACE(::testing::Message()
                             << "P=" << pipeline << " v=" << v
                             << " cb=" << policy.cb);
                const auto ref = oracle::fromPlainSpec(base, policy, v);
                const PipeCostSpec spec =
                    buildCostSpec(w, policy, {}, v);
                EXPECT_EQ(spec.chunks, v);
                EXPECT_EQ(spec.fwdCompute, ref.fwdComputePerChunk);
                EXPECT_EQ(spec.bwdCompute, ref.bwdComputePerChunk);
                EXPECT_EQ(spec.fwdMsgTime, ref.fwdMsgTime);
                ASSERT_EQ(static_cast<int>(spec.bwdMsgTime.size()),
                          pipeline * v - 1);
                for (const auto &hop : spec.bwdMsgTime) {
                    ASSERT_EQ(static_cast<int>(hop.size()),
                              spec.microBatches);
                    for (double t : hop)
                        EXPECT_EQ(t, ref.bwdMsgTime);
                }
                EXPECT_EQ(spec.dpTime, ref.dpTime);
                EXPECT_EQ(spec.embSyncTime, ref.embSyncTime);
                EXPECT_EQ(simulatePipeline(spec).iterationTime,
                          oracle::simulateInterleaved(ref));
            }
        }
    }
}

// ---------------------------------------------------------------
// Structure and timing properties.
// ---------------------------------------------------------------

TEST(Interleaved, EveryChunkMicrobatchPairRunsOnce)
{
    const auto sched = PipelineSchedule::oneFOneB(4, 8, 2);
    EXPECT_EQ(sched.chunks(), 2);
    EXPECT_EQ(sched.virtualStages(), 8);
    EXPECT_EQ(sched.opCount(), 2 * 4 * 2 * 8);
    for (int r = 0; r < 4; ++r) {
        std::vector<std::vector<int>> fwd(2, std::vector<int>(8, 0));
        std::vector<std::vector<int>> bwd(2, std::vector<int>(8, 0));
        for (const auto &op : sched.stageOps(r)) {
            EXPECT_EQ(op.stage, r);
            if (op.kind == PipeOpKind::Forward)
                ++fwd[op.chunk][op.microBatch];
            else
                ++bwd[op.chunk][op.microBatch];
        }
        for (int c = 0; c < 2; ++c) {
            for (int m = 0; m < 8; ++m) {
                EXPECT_EQ(fwd[c][m], 1) << r << c << m;
                EXPECT_EQ(bwd[c][m], 1) << r << c << m;
            }
        }
    }
}

TEST(Interleaved, VirtualStagePlacement)
{
    // Virtual stage k = chunk * P + stage lives on stage k mod P.
    const PipeOp op{PipeOpKind::Forward, 2, 0, 1};
    EXPECT_EQ(op.virtualStage(4), 6);
}

TEST(Interleaved, MegatronWarmupDepth)
{
    // From two chunks up, stage r runs min(2(P-1-r) + (v-1)P, vM)
    // warm-up forwards, then strict F/B alternation, then the
    // cool-down backwards.
    for (int p : {1, 2, 4, 8}) {
        for (int v : {2, 3, 4}) {
            for (int m : {p, 2 * p, 16}) {
                if (m % p != 0)
                    continue;
                const auto sched = PipelineSchedule::oneFOneB(p, m, v);
                for (int r = 0; r < p; ++r) {
                    SCOPED_TRACE(::testing::Message()
                                 << "P=" << p << " v=" << v << " M="
                                 << m << " r=" << r);
                    const int want = std::min(
                        2 * (p - 1 - r) + (v - 1) * p, v * m);
                    EXPECT_EQ(warmupDepth(p, m, r, v), want);
                    const auto &ops = sched.stageOps(r);
                    const int total = v * m;
                    ASSERT_EQ(static_cast<int>(ops.size()), 2 * total);
                    for (int i = 0; i < want; ++i)
                        EXPECT_EQ(ops[i].kind, PipeOpKind::Forward);
                    for (int i = 0; i < total - want; ++i) {
                        EXPECT_EQ(ops[want + 2 * i].kind,
                                  PipeOpKind::Forward);
                        EXPECT_EQ(ops[want + 2 * i + 1].kind,
                                  PipeOpKind::Backward);
                    }
                    for (int i = 2 * total - want; i < 2 * total; ++i)
                        EXPECT_EQ(ops[i].kind, PipeOpKind::Backward);
                }
            }
        }
    }
}

class InterleavedValidity
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(InterleavedValidity, IsDeadlockFree)
{
    const auto [p, v, m] = GetParam();
    const auto sched = PipelineSchedule::oneFOneB(p, m, v);
    EXPECT_TRUE(sched.validate())
        << "P=" << p << " v=" << v << " M=" << m;
    EXPECT_EQ(static_cast<int64_t>(sched.globalOrder().size()),
              sched.opCount());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, InterleavedValidity,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(8, 16)));

/** Zero-DP spec: P = 4, M = 16, stage compute f = 1, b = 2. */
PipeCostSpec
chunkedSpec(int chunks, double msg)
{
    PipeCostSpec spec;
    spec.stages = 4;
    spec.chunks = chunks;
    spec.microBatches = 16;
    spec.fwdCompute = 1.0 / chunks;
    spec.bwdCompute = 2.0 / chunks;
    spec.fwdMsgTime = msg;
    spec.bwdMsgTime.assign(4 * chunks - 1,
                           std::vector<double>(16, msg));
    spec.dpTime.assign(4, 0.0);
    return spec;
}

TEST(Interleaved, SingleChunkIsPlain1F1B)
{
    // One chunk is 1F1B (Megatron interleaves only from two chunks
    // up), message costs included: 85 at a 1.0 message time, where
    // the doubled warm-up of the interleaved formula would read 63.
    for (int p : {1, 2, 4, 8}) {
        for (int m : {1, 3, 8, 16}) {
            const auto plain = PipelineSchedule::oneFOneB(p, m);
            const auto one = PipelineSchedule::oneFOneB(p, m, 1);
            for (int s = 0; s < p; ++s)
                EXPECT_EQ(one.stageOps(s), plain.stageOps(s));
        }
    }
    EXPECT_EQ(simulatePipeline(chunkedSpec(1, 1.0)).iterationTime,
              85.0);
}

TEST(Interleaved, MoreChunksShrinkTheBubble)
{
    // Same total compute per stage; zero comm: the warm-up bubble
    // is (P-1)(f+b)/v, so iteration time falls toward M(f+b) as the
    // chunk count grows.
    auto iter_time = [](int chunks) {
        return simulatePipeline(chunkedSpec(chunks, 0.0)).iterationTime;
    };
    const double ideal = 16 * 3.0; // compute only, no bubble
    const double v1 = iter_time(1);
    const double v2 = iter_time(2);
    const double v4 = iter_time(4);
    EXPECT_GT(v1, v2);
    EXPECT_GT(v2, v4);
    EXPECT_NEAR(v1 - ideal, 3 * 3.0, 1e-9);       // (P-1)(f+b)
    EXPECT_NEAR(v2 - ideal, 3 * 3.0 / 2, 1e-9);   // halved
    EXPECT_NEAR(v4 - ideal, 3 * 3.0 / 4, 1e-9);   // quartered
}

TEST(Interleaved, MoreChunksPayMoreCommunication)
{
    // Interleaving multiplies the number of hops; with non-zero
    // message cost there is a crossover where more chunks stop
    // helping -- the known interleaving trade-off.
    auto iter_time = [](int chunks, double msg) {
        return simulatePipeline(chunkedSpec(chunks, msg)).iterationTime;
    };
    // Cheap messages: interleaving wins.
    EXPECT_LT(iter_time(4, 0.001), iter_time(1, 0.001));
    // Expensive messages: interleaving loses.
    EXPECT_GT(iter_time(4, 1.0), iter_time(1, 1.0));
}

TEST(Interleaved, BuilderUsesCompressedHopWhenCbOn)
{
    MappedWorkload w(HardwareConfig::a100Cluster(),
                     GptModelSpec::gpt8_3b(), ParallelConfig{},
                     TrainingPlan{});
    const auto base_spec =
        buildCostSpec(w, OptimusCcPolicy::baseline(), {}, 2);
    const auto cb_spec =
        buildCostSpec(w, OptimusCcPolicy::cbOnly(), {}, 2);
    for (size_t k = 0; k < base_spec.bwdMsgTime.size(); ++k) {
        for (size_t mb = 0; mb < base_spec.bwdMsgTime[k].size(); ++mb)
            EXPECT_LT(cb_spec.bwdMsgTime[k][mb],
                      base_spec.bwdMsgTime[k][mb]);
    }
    EXPECT_EQ(base_spec.fwdCompute, w.stageForwardTime() / 2);
    // And CB still speeds up the interleaved pipeline end to end.
    EXPECT_LT(simulatePipeline(cb_spec).iterationTime,
              simulatePipeline(base_spec).iterationTime);
}

} // namespace
} // namespace optimus
