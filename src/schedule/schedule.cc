#include "schedule/schedule.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace optimus
{

namespace
{

/**
 * The @p vid-th forward (or backward) of @p stage in 1F1B order.
 * Virtual micro-batch ids run in rounds of P * chunks: each round
 * takes P micro-batches through every chunk in turn (forwards from
 * chunk 0 up, backwards from the last chunk down). With one chunk
 * the id is the micro-batch itself.
 */
PipeOp
virtualOp(PipeOpKind kind, int stage, int stages, int chunks, int vid)
{
    const int group = stages * chunks;
    int chunk = vid % group / stages;
    if (kind == PipeOpKind::Backward)
        chunk = chunks - 1 - chunk;
    return {kind, stage, stages * (vid / group) + vid % stages, chunk};
}

} // namespace

PipelineSchedule::PipelineSchedule(int stages, int micro_batches,
                                   int chunks)
    : stages_(stages), chunks_(chunks), microBatches_(micro_batches),
      perStage_(stages)
{
    OPTIMUS_ASSERT(stages >= 1);
    OPTIMUS_ASSERT(micro_batches >= 1);
    OPTIMUS_ASSERT(chunks >= 1);
}

PipelineSchedule
PipelineSchedule::oneFOneB(int stages, int micro_batches, int chunks)
{
    PipelineSchedule sched(stages, micro_batches, chunks);
    OPTIMUS_ASSERT(chunks == 1 || micro_batches % stages == 0);
    const int total = micro_batches * chunks;
    for (int s = 0; s < stages; ++s) {
        auto &ops = sched.perStage_[s];
        const int warmup =
            warmupDepth(stages, micro_batches, s, chunks);
        auto op = [&](PipeOpKind kind, int vid) {
            return virtualOp(kind, s, stages, chunks, vid);
        };
        for (int vid = 0; vid < warmup; ++vid)
            ops.push_back(op(PipeOpKind::Forward, vid));
        // Steady state: alternate F then B while forwards remain.
        for (int i = 0; warmup + i < total; ++i) {
            ops.push_back(op(PipeOpKind::Forward, warmup + i));
            ops.push_back(op(PipeOpKind::Backward, i));
        }
        // Cool-down: remaining backwards.
        for (int vid = total - warmup; vid < total; ++vid)
            ops.push_back(op(PipeOpKind::Backward, vid));
    }
    return sched;
}

PipelineSchedule
PipelineSchedule::gpipe(int stages, int micro_batches)
{
    PipelineSchedule sched(stages, micro_batches, 1);
    for (int s = 0; s < stages; ++s) {
        auto &ops = sched.perStage_[s];
        for (int m = 0; m < micro_batches; ++m)
            ops.push_back({PipeOpKind::Forward, s, m});
        for (int m = 0; m < micro_batches; ++m)
            ops.push_back({PipeOpKind::Backward, s, m});
    }
    return sched;
}

PipelineSchedule
PipelineSchedule::make(ScheduleKind kind, int stages, int micro_batches,
                       int chunks)
{
    switch (kind) {
      case ScheduleKind::OneFOneB:
        return oneFOneB(stages, micro_batches, chunks);
      case ScheduleKind::GPipe:
        OPTIMUS_ASSERT(chunks == 1);
        return gpipe(stages, micro_batches);
    }
    panic("unknown schedule kind %d", static_cast<int>(kind));
}

const std::vector<PipeOp> &
PipelineSchedule::stageOps(int stage) const
{
    OPTIMUS_ASSERT(stage >= 0 && stage < stages_);
    return perStage_[stage];
}

int64_t
PipelineSchedule::opCount() const
{
    return static_cast<int64_t>(2) * stages_ * chunks_ * microBatches_;
}

namespace
{

/**
 * Greedy list scheduling: repeatedly issue the next op of any stage
 * whose dependencies are satisfied. Returns empty on deadlock.
 */
std::vector<PipeOp>
tryGlobalOrder(const PipelineSchedule &sched)
{
    const int p = sched.stages();
    const int k_total = sched.virtualStages();
    const int m = sched.microBatches();
    std::vector<size_t> cursor(p, 0);
    // fwd_done[k][mb] / bwd_done[k][mb] over virtual stages k.
    std::vector<std::vector<bool>> fwd_done(
        k_total, std::vector<bool>(m, false));
    std::vector<std::vector<bool>> bwd_done(
        k_total, std::vector<bool>(m, false));

    std::vector<PipeOp> order;
    order.reserve(sched.opCount());
    bool progressed = true;
    while (progressed &&
           static_cast<int64_t>(order.size()) < sched.opCount()) {
        progressed = false;
        for (int s = 0; s < p; ++s) {
            const auto &ops = sched.stageOps(s);
            if (cursor[s] >= ops.size())
                continue;
            const PipeOp &op = ops[cursor[s]];
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
            ++cursor[s];
            progressed = true;
        }
    }
    if (static_cast<int64_t>(order.size()) != sched.opCount())
        return {};
    return order;
}

} // namespace

bool
PipelineSchedule::validate() const
{
    return !tryGlobalOrder(*this).empty();
}

std::vector<PipeOp>
PipelineSchedule::globalOrder() const
{
    auto order = tryGlobalOrder(*this);
    if (order.empty())
        panic("schedule deadlocks (stages=%d, chunks=%d, "
              "microBatches=%d)",
              stages_, chunks_, microBatches_);
    return order;
}

int
warmupDepth(int stages, int micro_batches, int stage, int chunks)
{
    OPTIMUS_ASSERT(stage >= 0 && stage < stages);
    OPTIMUS_ASSERT(chunks >= 1);
    // Megatron interleaves only from two chunks up; deeper for
    // earlier stages, plus a full round per extra chunk.
    if (chunks == 1)
        return std::min(stages - 1 - stage, micro_batches);
    return std::min(2 * (stages - 1 - stage) + (chunks - 1) * stages,
                    chunks * micro_batches);
}

bool
isEpilogueBackward(int stages, int micro_batches, int stage,
                   int micro_batch)
{
    OPTIMUS_ASSERT(stage >= 1 && stage < stages);
    OPTIMUS_ASSERT(micro_batch >= 0 && micro_batch < micro_batches);
    const int receiver_warmup =
        warmupDepth(stages, micro_batches, stage - 1);
    return micro_batch >= receiver_warmup;
}

int
epilogueBackwardCount(int stages, int micro_batches, int stage)
{
    OPTIMUS_ASSERT(stage >= 1 && stage < stages);
    return micro_batches -
           std::min(warmupDepth(stages, micro_batches, stage - 1),
                    micro_batches);
}

bool
isCompressedStage(double fraction, int stage, int stages)
{
    OPTIMUS_ASSERT(stage >= 0 && stage < stages);
    return stage < static_cast<int>(std::ceil(fraction * stages));
}

} // namespace optimus
