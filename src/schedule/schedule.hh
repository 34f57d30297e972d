/**
 * @file
 * Pipeline-parallel schedules as explicit per-stage operation
 * sequences. The discrete-event performance simulator (pipesim)
 * times them; the numerics engine (parallel::Trainer3d) takes only
 * the epilogue classification and the selective-stage rule below
 * from this module and runs all forwards and then all backwards per
 * replica, which gives the same math and the same per-channel
 * message order (micro-batch order) as any of these schedules.
 *
 * One 1F1B builder covers both plain and interleaved 1F1B
 * (Megatron-LM, Narayanan et al., SC'21; the paper's Section 8
 * setting): each of the P stages hosts `chunks` model chunks, and
 * virtual stage k = chunk * P + stage runs on stage k mod P. One
 * chunk is plain 1F1B.
 *
 * Epilogue classification (Section 5.2 of the paper): under 1F1B
 * the iteration has a forward-dominated warm-up ramp followed by a
 * backward-dominated body ("epilogue"). During the ramp, a
 * backward message from stage s overlaps the receiver's queued
 * warm-up forwards, so it is hidden; once the receiver has no
 * warm-up slack left, every backward message sits on the 1F1B
 * dependency cycle (stage s's backward -> message -> stage s-1's
 * backward -> ... -> stage s's next forward), i.e. on the critical
 * path. Stage s-1's warm-up depth is min(P - s, M), so all but the
 * *first* min(P - s, M) micro-batches of the channel are epilogue.
 * Epilogue-only compression compresses exactly those messages: the
 * ones whose latency is exposed. This matches Fig 10 of the paper,
 * where compressed backpropagation removes ~79% of the exposed
 * inter-stage time (everything except forward traffic), and Fig 5,
 * where lazy error propagation chains across consecutive
 * micro-batches.
 */

#ifndef OPTIMUS_SCHEDULE_SCHEDULE_HH
#define OPTIMUS_SCHEDULE_SCHEDULE_HH

#include <cstdint>
#include <vector>

namespace optimus
{

/** Kinds of per-stage pipeline operations. */
enum class PipeOpKind
{
    Forward,
    Backward,
};

/**
 * One forward or backward of one micro-batch on one stage, in one
 * of the stage's model chunks.
 */
struct PipeOp
{
    PipeOpKind kind;
    int stage;
    int microBatch;
    int chunk = 0;

    /** Virtual stage (chunk * P + stage) for @p stages stages P. */
    int virtualStage(int stages) const
    {
        return chunk * stages + stage;
    }

    bool operator==(const PipeOp &other) const = default;
};

/** Named pipeline schedule families. */
enum class ScheduleKind
{
    OneFOneB,
    GPipe,
};

/**
 * A complete schedule: for each stage, the exact order in which it
 * executes its forward and backward passes.
 */
class PipelineSchedule
{
  public:
    /**
     * Megatron/PipeDream-style 1F1B over @p chunks model chunks per
     * stage: stage s runs warmupDepth(P, M, s, chunks) warm-up
     * forwards, then alternating 1F1B steady state, then cool-down
     * backwards. With two or more chunks the forwards run chunk by
     * chunk in rounds of P micro-batches (Megatron's interleaved
     * order), which needs M % P == 0.
     */
    static PipelineSchedule oneFOneB(int stages, int micro_batches,
                                     int chunks = 1);

    /** GPipe: all forwards, then all backwards. */
    static PipelineSchedule gpipe(int stages, int micro_batches);

    /** Build by kind (GPipe takes one chunk only). */
    static PipelineSchedule make(ScheduleKind kind, int stages,
                                 int micro_batches, int chunks = 1);

    int stages() const { return stages_; }
    int chunks() const { return chunks_; }
    int microBatches() const { return microBatches_; }

    /** Total virtual stages P * chunks. */
    int virtualStages() const { return stages_ * chunks_; }

    /** Execution order for one stage. */
    const std::vector<PipeOp> &stageOps(int stage) const;

    /**
     * Check dependency feasibility: there exists a global order
     * consistent with every per-stage order in which, over virtual
     * stages k, each Forward(k, m) follows Forward(k-1, m) and each
     * Backward(k, m) follows Backward(k+1, m) and Forward(k, m).
     *
     * @return true when the schedule is deadlock-free.
     */
    bool validate() const;

    /**
     * A valid global execution order (greedy list scheduling over
     * the per-stage sequences). panics if validate() fails.
     */
    std::vector<PipeOp> globalOrder() const;

    /** Total op count (2 * stages * chunks * microBatches). */
    int64_t opCount() const;

  private:
    PipelineSchedule(int stages, int micro_batches, int chunks);

    int stages_;
    int chunks_;
    int microBatches_;
    std::vector<std::vector<PipeOp>> perStage_;
};

/**
 * Warm-up depth of @p stage under 1F1B with @p chunks chunks: the
 * number of forwards it runs before its first backward,
 * min(P - 1 - stage, M) for one chunk and, as in Megatron,
 * min(2(P - 1 - stage) + (chunks - 1)P, chunks * M) for more.
 */
int warmupDepth(int stages, int micro_batches, int stage,
                int chunks = 1);

/**
 * True when the backward message of @p micro_batch on the channel
 * stage -> stage-1 is part of the epilogue (the backward-dominated
 * body after the receiver's warm-up slack is spent) under 1F1B.
 * @pre 1 <= stage < stages
 */
bool isEpilogueBackward(int stages, int micro_batches, int stage,
                        int micro_batch);

/** Number of epilogue backward messages on channel stage->stage-1. */
int epilogueBackwardCount(int stages, int micro_batches, int stage);

/**
 * Selective stage compression (Section 7): whether @p stage is among
 * the earliest ceil(fraction * P) stages, whose data-parallel
 * traffic is compressed. They finish backward last, so their
 * reduction sits on the critical path.
 */
bool isCompressedStage(double fraction, int stage, int stages);

} // namespace optimus

#endif // OPTIMUS_SCHEDULE_SCHEDULE_HH
