/**
 * @file
 * Tests for pipeline schedules: structure, dependency feasibility,
 * bubble analytics, and epilogue classification.
 */

#include <gtest/gtest.h>

#include "schedule/schedule.hh"

namespace optimus
{
namespace
{

TEST(Schedule, OneFOneBStructure)
{
    const auto sched = PipelineSchedule::oneFOneB(4, 8);
    EXPECT_EQ(sched.stages(), 4);
    EXPECT_EQ(sched.microBatches(), 8);
    EXPECT_EQ(sched.opCount(), 2 * 4 * 8);

    // Every stage runs each micro-batch's forward and backward once.
    for (int s = 0; s < 4; ++s) {
        const auto &ops = sched.stageOps(s);
        EXPECT_EQ(ops.size(), 16u);
        std::vector<int> fwd(8, 0), bwd(8, 0);
        for (const auto &op : ops) {
            if (op.kind == PipeOpKind::Forward)
                ++fwd[op.microBatch];
            else
                ++bwd[op.microBatch];
        }
        for (int m = 0; m < 8; ++m) {
            EXPECT_EQ(fwd[m], 1);
            EXPECT_EQ(bwd[m], 1);
        }
    }
}

TEST(Schedule, OneFOneBWarmupDepths)
{
    // P=4: warmups are 3,2,1,0.
    EXPECT_EQ(warmupDepth(4, 8, 0), 3);
    EXPECT_EQ(warmupDepth(4, 8, 1), 2);
    EXPECT_EQ(warmupDepth(4, 8, 2), 1);
    EXPECT_EQ(warmupDepth(4, 8, 3), 0);
    // Clamped by micro-batch count.
    EXPECT_EQ(warmupDepth(8, 2, 0), 2);
}

TEST(Schedule, LastStageAlternatesImmediately)
{
    const auto sched = PipelineSchedule::oneFOneB(4, 4);
    const auto &ops = sched.stageOps(3);
    // No warmup: F0 B0 F1 B1 ...
    EXPECT_EQ(ops[0], (PipeOp{PipeOpKind::Forward, 3, 0}));
    EXPECT_EQ(ops[1], (PipeOp{PipeOpKind::Backward, 3, 0}));
    EXPECT_EQ(ops[2], (PipeOp{PipeOpKind::Forward, 3, 1}));
    EXPECT_EQ(ops[3], (PipeOp{PipeOpKind::Backward, 3, 1}));
}

TEST(Schedule, BackwardsExecuteInMicroBatchOrder)
{
    // Required by lazy error propagation: per-channel message order
    // is micro-batch order, for both schedule families.
    for (auto kind : {ScheduleKind::OneFOneB, ScheduleKind::GPipe}) {
        const auto sched = PipelineSchedule::make(kind, 4, 6);
        for (int s = 0; s < 4; ++s) {
            int expected = 0;
            for (const auto &op : sched.stageOps(s)) {
                if (op.kind != PipeOpKind::Backward)
                    continue;
                EXPECT_EQ(op.microBatch, expected) << "stage " << s;
                ++expected;
            }
        }
    }
}

class ScheduleValidity
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ScheduleValidity, OneFOneBIsDeadlockFree)
{
    const auto [p, m] = GetParam();
    const auto sched = PipelineSchedule::oneFOneB(p, m);
    EXPECT_TRUE(sched.validate());
    const auto order = sched.globalOrder();
    EXPECT_EQ(static_cast<int64_t>(order.size()), sched.opCount());
}

TEST_P(ScheduleValidity, GPipeIsDeadlockFree)
{
    const auto [p, m] = GetParam();
    const auto sched = PipelineSchedule::gpipe(p, m);
    EXPECT_TRUE(sched.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ScheduleValidity,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 16),
                       ::testing::Values(1, 2, 4, 8, 32)));

TEST(Schedule, GlobalOrderRespectsDependencies)
{
    const auto sched = PipelineSchedule::oneFOneB(4, 8);
    const auto order = sched.globalOrder();

    auto position = [&order](PipeOpKind kind, int s, int m) {
        for (size_t i = 0; i < order.size(); ++i) {
            if (order[i].kind == kind && order[i].stage == s &&
                order[i].microBatch == m)
                return static_cast<int64_t>(i);
        }
        return static_cast<int64_t>(-1);
    };

    for (int m = 0; m < 8; ++m) {
        for (int s = 1; s < 4; ++s) {
            EXPECT_LT(position(PipeOpKind::Forward, s - 1, m),
                      position(PipeOpKind::Forward, s, m));
            EXPECT_LT(position(PipeOpKind::Backward, s, m),
                      position(PipeOpKind::Backward, s - 1, m));
        }
        EXPECT_LT(position(PipeOpKind::Forward, 3, m),
                  position(PipeOpKind::Backward, 3, m));
    }
}

TEST(Epilogue, CountsExcludeReceiverWarmup)
{
    // P=4, M=8: channel 1->0 compresses all but the receiver's 3
    // warm-up-overlapped messages; 2->1 all but 2; 3->2 all but 1.
    EXPECT_EQ(epilogueBackwardCount(4, 8, 1), 5);
    EXPECT_EQ(epilogueBackwardCount(4, 8, 2), 6);
    EXPECT_EQ(epilogueBackwardCount(4, 8, 3), 7);
}

TEST(Epilogue, EarlyMicroBatchesAreHidden)
{
    const int p = 4, m = 8;
    for (int s = 1; s < p; ++s) {
        const int hidden = m - epilogueBackwardCount(p, m, s);
        for (int mb = 0; mb < m; ++mb) {
            EXPECT_EQ(isEpilogueBackward(p, m, s, mb), mb >= hidden)
                << "stage " << s << " mb " << mb;
        }
    }
}

TEST(Epilogue, FewMicroBatchesLeavesNothingExposedToCompress)
{
    // M=1 with deep pipelines: the single message rides the ramp,
    // overlapped by the receiver's warm-up forward, on every
    // channel (every receiver has at least one warm-up forward).
    for (int s = 1; s < 8; ++s) {
        EXPECT_FALSE(isEpilogueBackward(8, 1, s, 0)) << s;
        EXPECT_EQ(epilogueBackwardCount(8, 1, s), 0) << s;
    }
}

TEST(Epilogue, FractionGrowsWithMoreMicroBatches)
{
    // The compressed fraction of channel 1->0 is (M - (P-1)) / M:
    // deeper steady states expose more backward messages.
    const int p = 4;
    double prev_fraction = 0.0;
    for (int m : {4, 8, 16, 64}) {
        const double fraction =
            static_cast<double>(epilogueBackwardCount(p, m, 1)) / m;
        EXPECT_GE(fraction, prev_fraction);
        prev_fraction = fraction;
    }
    EXPECT_NEAR(prev_fraction, 61.0 / 64.0, 1e-12);
}

TEST(Schedule, SingleStageDegeneratesToSequential)
{
    const auto sched = PipelineSchedule::oneFOneB(1, 4);
    const auto &ops = sched.stageOps(0);
    ASSERT_EQ(ops.size(), 8u);
    // F0 B0 F1 B1 ... with warmup 0.
    for (int m = 0; m < 4; ++m) {
        EXPECT_EQ(ops[2 * m].kind, PipeOpKind::Forward);
        EXPECT_EQ(ops[2 * m + 1].kind, PipeOpKind::Backward);
        EXPECT_EQ(ops[2 * m].microBatch, m);
    }
}

} // namespace
} // namespace optimus
