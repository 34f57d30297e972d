/**
 * @file
 * The full Optimus-CC training loop over a simulated (D data-
 * parallel) x (P pipeline) grid of stage replicas. Tensor
 * parallelism is intra-node and mathematically exact, so the
 * quality engine runs with T = 1; only the performance pillar
 * (cluster / pipesim) models T.
 *
 * Every communication the paper talks about is an explicit data
 * movement here:
 *   - inter-stage backward sends go through BackwardChannel
 *     (compressed backpropagation, lazy error propagation,
 *     epilogue-only policy);
 *   - DP gradient all-reduce goes through one ReduceEngine per
 *     stage (bucketed, overlapped with backward; selective stage
 *     compression, distributed PowerSGD, error feedback);
 *   - the tied embedding tables go through EmbeddingSynchronizer
 *     (baseline two-all-reduce or fused single all-reduce).
 */

#ifndef OPTIMUS_PARALLEL_TRAINER3D_HH
#define OPTIMUS_PARALLEL_TRAINER3D_HH

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "data/zeroshot.hh"
#include "nn/loss.hh"
#include "obs/probes.hh"
#include "nn/optimizer.hh"
#include "parallel/channels.hh"
#include "parallel/data_parallel.hh"
#include "parallel/reduce_engine.hh"
#include "parallel/stage_module.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"

namespace optimus
{

/** Complete configuration for one training run. */
struct Trainer3dConfig
{
    GptConfig model;
    int dataParallel = 2;
    int pipelineStages = 2;
    /** Micro-batches per replica per iteration (M). */
    int microBatches = 4;
    /** Sequences per micro-batch. */
    int microBatchSize = 2;
    /** Adam learning rate (Adam is the paper's optimizer). */
    float learningRate = 1e-3f;
    CbConfig cb;
    DpCompressionConfig dp;
    /** Fused embedding synchronization (Section 6). */
    bool fusedEmbeddingSync = false;
    /** Collect Fig 11 channel statistics. */
    bool instrumentChannels = false;
    /**
     * When false, trainIteration() accumulates and reduces
     * gradients but skips the optimizer step and the gradient
     * zeroing -- used to inspect the reduced gradients directly
     * (gradient-approximation experiments and tests).
     */
    bool applyUpdates = true;
    uint64_t seed = 123;
    /** Bucket capacity of the DP gradient reduction. */
    int64_t bucketBytes = 256 * 1024;
    /**
     * Record every communication operation into a CommTrace (see
     * trace()). Recording is pure observation: a traced run is
     * bitwise identical to an untraced one.
     */
    bool traceCommunication = false;
    /**
     * When non-empty, record an obs:: span trace of the run and
     * write it as Chrome trace-event JSON to this path when the
     * trainer is destroyed (load it in Perfetto, or summarize with
     * tools/tracesum). Empty falls back to the OPTIMUS_TRACE env
     * var. Like traceCommunication, pure observation: a traced run
     * is bitwise identical to an untraced one. One span trace can
     * be active per process; if another trainer (or the caller) is
     * already tracing, this config is ignored.
     */
    std::string tracePath;

    /** Sequences per iteration across all replicas. */
    int64_t globalBatch() const
    {
        return static_cast<int64_t>(dataParallel) * microBatches *
               microBatchSize;
    }
};

/**
 * Wall-time breakdown of one iteration (seconds, steady clock).
 * `forwardBackward` is the replica-loop wall time; it already
 * contains any bucket reduction that ran during backward (on a
 * serial pool, all of it: the last replica's signal runs a stage's
 * buckets inline). `dpReduce` is the *exposed* reduce time (the
 * wait on the bucket tasks after the replica loop), `dpReduceBusy`
 * the summed time spent inside bucket tasks wherever they ran.
 */
struct StepPhaseTimes
{
    double forwardBackward = 0.0;
    double dpReduce = 0.0;
    double dpReduceBusy = 0.0;
    double embSync = 0.0;
    double optimizer = 0.0;
    double total = 0.0;
};

/** Per-iteration metrics. */
struct IterationStats
{
    /** Mean micro-batch NLL across the global mini-batch. */
    double loss = 0.0;
    /** DP gradient traffic this iteration (comm ledger delta). */
    ReduceVolume dpVolume;
    /** Embedding synchronization traffic this iteration. */
    EmbSyncVolume embVolume;
    /** Inter-stage backward payload bytes actually sent (comm
     *  ledger delta, like interStageBytesExact). */
    int64_t interStageBytes = 0;
    /** Inter-stage backward bytes without compression. */
    int64_t interStageBytesExact = 0;
    /** Per-phase wall-time breakdown. */
    StepPhaseTimes phases;
};

/** The simulated distributed training run. */
class Trainer3d
{
  public:
    explicit Trainer3d(const Trainer3dConfig &config);

    /** Out-of-line: ReplicaScorer is incomplete in this header. */
    ~Trainer3d();

    /** One full training iteration over a sampled mini-batch. */
    IterationStats trainIteration(const LmDataset &data, Rng &rng);

    /**
     * Validation perplexity over the dataset's deterministic eval
     * batches, computed on replica 0's stages.
     */
    double validatePerplexity(const LmDataset &val);

    /** LmScorer view of replica 0 (zero-shot evaluation). */
    LmScorer &scorer();

    /** Stage module of replica @p d, stage @p p. */
    StageModule &stage(int d, int p);
    const StageModule &stage(int d, int p) const;

    /** Backward channel into stage-1 of replica d, sender stage s. */
    BackwardChannel &channel(int d, int s);

    /** Bucketed reduce engine of stage @p p (layout inspection). */
    const ReduceEngine &reduceEngine(int p) const;

    const Trainer3dConfig &config() const { return config_; }

    /**
     * Largest parameter divergence across data-parallel replicas
     * (max abs difference); identically-updating replicas stay 0.
     */
    float replicaDivergence() const;

    /** Lazy-error buffers' total bytes (Fig 12 LEP overhead). */
    int64_t lepBufferBytes() const;

    /** Compressor warm-state bytes (Fig 12 compression overhead). */
    int64_t compressorStateBytes() const;

    /** Total parameter bytes of one replica (all stages). */
    int64_t parameterBytes() const;

    /** Iterations executed so far. */
    int64_t iterations() const { return iterations_; }

    /**
     * Cumulative compression health of the PP backward channels.
     * Norm fields merge the channels' probes over replicas and
     * boundaries in fixed order and are populated only while
     * obs::probesEnabled(); the send and byte fields are the
     * InterStage entry of the comm ledger.
     */
    obs::CompressionHealth ppHealth() const;

    /** Cumulative compression health of the DP reduction: norm
     *  fields merged over the per-stage engines in stage order,
     *  send and byte fields from the DpReduce ledger entry. */
    obs::CompressionHealth dpHealth() const;

    /**
     * Comm ledger entry of @p phase: every event and byte the
     * trainer's transport carried since construction.
     */
    CommVolume commVolume(CommPhase phase) const
    {
        return transport_.volume(phase);
    }

    /**
     * The recorded communication trace, or nullptr unless
     * Trainer3dConfig::traceCommunication is on.
     */
    const CommTrace *trace() const
    {
        return config_.traceCommunication ? &transport_.trace()
                                          : nullptr;
    }

  private:
    class ReplicaScorer;

    Trainer3dConfig config_;
    /**
     * Workspace arenas: one per data-parallel replica (the replica
     * loop installs replica d's scope, so activations, gradients and
     * channel buffers recycle without cross-replica contention) plus
     * one for the serial portions of the step (sampling, embedding
     * sync). Declared before every tensor-holding member so arenas
     * are destroyed last.
     */
    std::vector<std::unique_ptr<Workspace>> replicaArenas_;
    std::unique_ptr<Workspace> stepArena_;
    /** The comm ledger, span observation and (when
     *  traceCommunication) the recording; declared before every
     *  component using it. */
    Transport transport_;
    /** Resolved span-trace output path ("" = tracing not requested). */
    std::string tracePath_;
    /** True when this trainer started the process-wide span trace
     *  (and so stops + writes it in the destructor). */
    bool ownsTrace_ = false;
    /** stages_[d][p]. */
    std::vector<std::vector<std::unique_ptr<StageModule>>> stages_;
    /** channels_[d][s-1] is the channel s -> s-1, s in [1, P). */
    std::vector<std::vector<std::unique_ptr<BackwardChannel>>>
        channels_;
    /** losses_[d]: last-stage loss module per replica. */
    std::vector<SoftmaxCrossEntropy> losses_;
    /** optimizers_[d][p]. */
    std::vector<std::vector<std::unique_ptr<AdamOptimizer>>>
        optimizers_;
    /** engines_[p]: bucketed reduce engine, one per stage. */
    std::vector<std::unique_ptr<ReduceEngine>> engines_;
    /** Completion handle for in-flight bucket reductions. */
    TaskGroup reduceGroup_;
    std::unique_ptr<EmbeddingSynchronizer> embSync_;
    std::unique_ptr<ReplicaScorer> scorer_;
    int64_t iterations_ = 0;

    /** One ring-sample + health-probe + monitor pass at the end of
     *  a step (@p grad_norm < 0 means "not sampled";
     *  @p emb_wire_bytes is the step's EmbSync ledger delta). */
    void sampleTelemetry(const IterationStats &stats,
                         double grad_norm, int64_t emb_wire_bytes);

    /** Previous-step cumulative health (per-step ring deltas). */
    obs::CompressionHealth ppHealthPrev_;
    obs::CompressionHealth dpHealthPrev_;
    /** Best (lowest) loss seen — the loss-drift baseline. */
    double bestLoss_ = 0.0;
    bool haveBestLoss_ = false;

    /**
     * Persistent per-step scratch: the sampled micro-batches (sized
     * at construction, refilled in place) and per-replica losses.
     * Both reuse their capacity, so the steady-state step allocates
     * nothing here.
     */
    std::vector<LmBatch> microBatches_;
    std::vector<double> replicaLoss_;
    /** workerParams_[p][d]: stage p's parameter list of replica d. */
    std::vector<std::vector<std::vector<ParamPtr>>> workerParams_;
};

} // namespace optimus

#endif // OPTIMUS_PARALLEL_TRAINER3D_HH
