/**
 * @file
 * Bucketed, backward-overlapped data-parallel gradient reduction —
 * the trainer's one DP all-reduce path, structured the way
 * DDP/Megatron do it:
 *
 *  - **Bucketing.** Each stage's (non-excluded) parameters are
 *    flattened, in parameter order, into fixed-capacity buckets of
 *    `bucketBytes` (a parameter larger than a bucket gets a bucket
 *    of its own; parameters never split across buckets, so every
 *    bucket is a contiguous extent of the stage's flat gradient
 *    space). Compressible parameters of a compression-selected
 *    stage are carved into dedicated single-parameter buckets that
 *    own a `DistributedPowerSgd` instance and one `ErrorFeedback`
 *    residual per worker.
 *
 *  - **Overlap.** Buckets are independent tasks on the runtime
 *    thread pool's task queue (`TaskGroup`). One rule at every D:
 *    the D-th replica to finish backward for the stage enqueues the
 *    stage's buckets, so late-stage reduction runs on idle pool
 *    workers while earlier stages are still in backward (on a
 *    serial pool the enqueue runs them inline, inside backward).
 *
 *  - **Determinism.** A bucket reduce is bitwise identical no
 *    matter which thread runs it or when: the exact path is the
 *    transport's mean combine over the bucket's flat extent (fixed
 *    grain chunks, double accumulation in replica order), which per
 *    element equals a per-parameter mean all-reduce, and the
 *    compressed path is the per-parameter distributed-PowerSGD
 *    protocol with per-parameter seeds `seed + 0x1000 * (j + 1)`.
 *    Buckets write disjoint state, and busy times and probes are
 *    summed in bucket-index order. tests/test_reduce_engine.cc
 *    pins the engine bitwise to a per-parameter oracle at any
 *    OPTIMUS_THREADS.
 *
 *  - **Wired once.** The engine is built with its per-worker
 *    parameter lists and the excluded tables. The layout, each
 *    exact bucket's collective group, the residuals and the mean
 *    reconstruction are fixed at construction (the tensors in the
 *    engine's own arena), so a step only arms and signals. Each
 *    residual doubles as its worker's error-fed input (the fold is
 *    in place); the exact combine needs no scratch at all.
 */

#ifndef OPTIMUS_PARALLEL_REDUCE_ENGINE_HH
#define OPTIMUS_PARALLEL_REDUCE_ENGINE_HH

#include <atomic>
#include <memory>
#include <vector>

#include "obs/probes.hh"
#include "parallel/data_parallel.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"

namespace optimus
{

/** Static configuration of one stage's reduce engine. */
struct ReduceEngineConfig
{
    /** Whether this stage's DP traffic is compressed
     *  (stageSelectedForCompression). */
    bool compressStage = false;
    /** PowerSGD rank of the compressed buckets. */
    int rank = 8;
    /** Per-worker error feedback on the compressed buckets. */
    bool errorFeedback = true;
    /** Engine-local seed (per-parameter compressor seeds derive). */
    uint64_t seed = 0;
    /** Bucket capacity in bytes of flattened fp32 gradient. */
    int64_t bucketBytes = 256 * 1024;
    /**
     * Transport the bucket collectives go through
     * (defaultTransport() when null).
     */
    Transport *transport = nullptr;
};

/** One bucket of the flattened stage gradient (layout metadata). */
struct BucketSpec
{
    /** Parameter indices packed into this bucket, in order. */
    std::vector<size_t> params;
    /** Flat offset of each parameter inside the bucket. */
    std::vector<int64_t> offsets;
    /** Total elements in the bucket. */
    int64_t elems = 0;
    /** True for a dedicated compressed (PowerSGD) bucket. */
    bool compressed = false;
};

/**
 * Gradient reduction engine for one pipeline stage across D
 * data-parallel workers, wired once at construction.
 */
class ReduceEngine
{
  public:
    /**
     * Build the bucket layout over aligned per-worker parameter
     * lists (D = worker_params.size(); the lists must stay alive and
     * their gradient storage stable, which stage modules guarantee).
     * @p excluded parameters (the tied embedding tables, owned by
     * the embedding synchronizer) get no bucket.
     */
    ReduceEngine(const ReduceEngineConfig &config,
                 const std::vector<std::vector<ParamPtr>> &worker_params,
                 const std::vector<const Param *> &excluded = {});
    ~ReduceEngine();

    /**
     * Arm the engine for one iteration: @p group receives the bucket
     * tasks, @p iteration stamps this iteration's trace spans.
     */
    void beginIteration(TaskGroup &group, int64_t iteration = 0);

    /**
     * Replica-done signal, called from inside the replica loop
     * (thread-safe) once this stage's backward — and micro-batch
     * gradient scaling — finished on one replica. The D-th arrival
     * enqueues every bucket, D = 1 included.
     */
    void notifyReplicaDone();

    /**
     * Summed wall time this iteration spent inside this stage's
     * bucket tasks (bucket order). Call after the TaskGroup drained.
     */
    double busySeconds() const;

    /**
     * True when a parameter qualifies for low-rank compression (a
     * real matrix: rank 2 with at least 2 rows and 2 columns).
     */
    static bool compressible(const Param &param);

    /** Bucket layout (tests, diagnostics). */
    const std::vector<BucketSpec> &buckets() const;

    /** Per-worker residual error norms (diagnostics / tests). */
    std::vector<double> residualNorms() const;

    /**
     * Cumulative compression health of this stage's DP reduction,
     * norm fields only (the trainer fills the send and byte fields
     * from its comm ledger). Norm and cosine fields cover the
     * compressed buckets on sampled steps, accumulated per bucket
     * in worker order and folded in bucket-index order, so the
     * result is identical at any OPTIMUS_THREADS.
     */
    obs::CompressionHealth health() const;

    /** Persistent compressor + residual bytes (memory accounting). */
    int64_t stateBytes() const;

    /** Drop warm compressor state and residuals. */
    void reset();

  private:
    struct Bucket;

    void enqueueAll();
    void reduceBucket(Bucket &bucket);
    void reduceExact(Bucket &bucket);
    void reduceCompressed(Bucket &bucket);
    /** Per-worker residuals of a compressed bucket back to zero. */
    void resetFeedback(Bucket &bucket) const;

    ReduceEngineConfig config_;
    /** Data-parallel width D. */
    int workers_ = 1;
    Transport *transport_ = nullptr;
    /**
     * The engine's workspace: bucket tasks run under its scope, so
     * compressed-reduce temporaries (PowerSGD P/Q products) recycle
     * here no matter which pool worker picks the task up; the
     * buckets' persistent tensors are built in it too. Declared
     * before the buckets so their persistent tensors die first.
     */
    Workspace arena_{"reduce"};
    std::vector<std::unique_ptr<Bucket>> buckets_;
    /** Cached layout view (mirrors buckets_[i]->spec). */
    std::vector<BucketSpec> specs_;

    /** Per-iteration state. */
    TaskGroup *group_ = nullptr;
    int64_t iteration_ = 0;
    std::atomic<int> arrivals_{0};
};

} // namespace optimus

#endif // OPTIMUS_PARALLEL_REDUCE_ENGINE_HH
