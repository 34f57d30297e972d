/**
 * @file
 * Shared threaded execution runtime: a fixed-size thread pool with a
 * deterministic `parallelFor` primitive used by the GEMM kernels, the
 * element-wise NN layers, the compression kernels, and the replica
 * loop in Trainer3d.
 *
 * Determinism contract
 * --------------------
 * `parallelFor(begin, end, grain, fn)` decomposes [begin, end) into
 * chunks of exactly `grain` iterations (last chunk may be short).
 * Chunk boundaries depend ONLY on (begin, end, grain) — never on the
 * thread count — and chunks are assigned to workers statically
 * (round-robin by chunk index). Because every chunk performs the same
 * floating-point operations in the same order no matter which worker
 * runs it, any kernel whose chunks write disjoint outputs produces
 * bitwise-identical results for OPTIMUS_THREADS=1 and
 * OPTIMUS_THREADS=N. Reductions use `parallelReduceSum`, which sums
 * one partial per caller-named grain in partial order — again
 * thread-count-invariant.
 *
 * Dispatch rule: call sites do not pick grains. Each states its work
 * per index in approximate multiply-adds (the time of one inline
 * GEMM multiply-add, ~0.02 ns on a 4-vCPU AVX-512 VM; a scalar exp
 * counts ~256) and passes `grainForWork(work)`, the fewest indices
 * whose work reaches kMinChunkWork. A range that cannot fill two
 * chunks is one chunk and runs inline. On that VM an empty pooled
 * region costs 7-20 us (bench_gemm `dispatch_us`), 0.35-1M
 * multiply-adds of inline GEMM time. At 4 threads perfbench `serve`
 * ran 9% faster with 2^20 than with 2^19, and `train_dense` lost a
 * quarter of its tokens/s with 2^22, whose chunks are too coarse to
 * spread its layers over the pool.
 *
 * Nested parallelism: a `parallelFor` issued from inside a pool
 * worker (e.g. a GEMM called from a replica task) runs inline on the
 * calling worker. This keeps the pool deadlock-free and preserves the
 * chunk decomposition (and therefore the numerics) exactly.
 *
 * Pool size: `OPTIMUS_THREADS` if set (clamped to [1, 256]), else
 * `std::thread::hardware_concurrency()`. Read once at first use.
 */

#ifndef OPTIMUS_RUNTIME_RUNTIME_HH
#define OPTIMUS_RUNTIME_RUNTIME_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace optimus
{

/**
 * Non-owning reference to a chunk body fn(lo, hi) over [lo, hi).
 * Every parallel region blocks its caller until the last chunk
 * completed, so referencing the caller's lambda is safe — and,
 * unlike std::function, building one never heap-allocates no matter
 * how much the body captures, which is what keeps parallelFor off
 * the step path's allocation budget.
 */
class RangeFn
{
  public:
    template <typename F,
              typename = typename std::enable_if<!std::is_same<
                  typename std::decay<F>::type, RangeFn>::value>::type>
    RangeFn(const F &f)
        : obj_(&f), call_([](const void *o, int64_t lo, int64_t hi) {
              (*static_cast<const F *>(o))(lo, hi);
          })
    {}

    void operator()(int64_t lo, int64_t hi) const
    {
        call_(obj_, lo, hi);
    }

  private:
    const void *obj_;
    void (*call_)(const void *, int64_t, int64_t);
};

/** Non-owning reduction body: returns the partial over [lo, hi). */
class RangeSumFn
{
  public:
    template <typename F,
              typename = typename std::enable_if<!std::is_same<
                  typename std::decay<F>::type,
                  RangeSumFn>::value>::type>
    RangeSumFn(const F &f)
        : obj_(&f), call_([](const void *o, int64_t lo, int64_t hi) {
              return (*static_cast<const F *>(o))(lo, hi);
          })
    {}

    double operator()(int64_t lo, int64_t hi) const
    {
        return call_(obj_, lo, hi);
    }

  private:
    const void *obj_;
    double (*call_)(const void *, int64_t, int64_t);
};

class TaskGroup;
class Workspace;

/**
 * Fixed-size worker pool (singleton). Construction spawns
 * `threads() - 1` workers; the caller of a parallel region always
 * participates as worker 0, so `OPTIMUS_THREADS=1` spawns nothing
 * and every parallel region degenerates to a plain serial loop.
 */
class ThreadPool
{
  public:
    /** Process-wide pool, created on first use. */
    static ThreadPool &instance();

    /** Worker count (including the calling thread). */
    int threads() const { return threads_; }

    /**
     * Run fn over [begin, end) in chunks of `grain`, blocking until
     * every chunk completed. See the file comment for the
     * determinism contract. @pre grain >= 1
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const RangeFn &fn);

    /**
     * Deterministic reduction: one partial per `grain` indices (the
     * caller-named grid that fixes the combine order), summed in
     * order; the dispatch rule groups partials onto chunks.
     */
    double parallelReduceSum(int64_t begin, int64_t end, int64_t grain,
                             int64_t work_per_index,
                             const RangeSumFn &fn);

    /** True when called from inside a pool worker task. */
    static bool inParallelRegion();

    /**
     * Enqueue one independent task belonging to @p group. Tasks are
     * popped FIFO by pool workers that are not currently executing
     * parallelFor chunks — including while a parallelFor job is in
     * flight, which is what lets bucketed gradient reduction overlap
     * the backward replica loop. On a serial pool (threads() == 1)
     * the task runs inline immediately. Task bodies execute with
     * inParallelRegion() true, so nested parallel regions run inline
     * and the determinism contract is preserved regardless of which
     * thread picks a task up.
     */
    void submit(TaskGroup &group, std::function<void()> fn);

    /**
     * Pop and execute one queued task on the calling thread.
     * @return false when the queue was empty.
     */
    bool runOneTask();

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

  private:
    ThreadPool();

    void workerLoop(int worker_id);
    void runChunks(int worker_id, int64_t num_chunks);
    static void finishTask(TaskGroup &group);

    /**
     * One queued task, the group awaiting its completion, and the
     * submitter's workspace scope (re-installed on whichever thread
     * runs the task, so tensors it builds land in the right arena).
     */
    struct PendingTask
    {
        std::function<void()> fn;
        TaskGroup *group = nullptr;
        Workspace *ws = nullptr;
    };

    /** Queue ops (mutex_ must be held). */
    void pushTask(PendingTask &&task);
    PendingTask popTask();

    int threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    /** Incremented per job; workers run the job whose id they see. */
    uint64_t jobEpoch_ = 0;
    int workersBusy_ = 0;
    /** Workers past their start-up registration (see the ctor). */
    int workersStarted_ = 0;
    bool shutdown_ = false;
    /**
     * FIFO task queue: a ring over a vector (head/count), so the
     * steady-state submit/pop cycle reuses slots instead of churning
     * deque nodes. Guarded by mutex_. Pre-sized at construction
     * (queue depth is schedule-dependent, so growth cannot be
     * trusted to happen during warmup); the pushTask ratchet is a
     * backstop.
     */
    std::vector<PendingTask> tasks_;
    size_t taskHead_ = 0;
    size_t taskCount_ = 0;

    /** Active job (valid while workersBusy_ > 0). */
    const RangeFn *jobFn_ = nullptr;
    int64_t jobBegin_ = 0;
    int64_t jobGrain_ = 1;
    int64_t jobEnd_ = 0;
    int64_t jobChunks_ = 0;
    /** Caller's workspace scope, mirrored onto workers per job. */
    Workspace *jobWs_ = nullptr;

    /** Serializes external callers (one parallel region at a time). */
    std::mutex runMutex_;
};

/**
 * Completion handle over a set of independent tasks submitted to the
 * pool's task queue. The producer/consumer order is deterministic
 * where it matters: tasks are popped FIFO, every task's *result* must
 * be independent of when and where it runs (the submitting code owns
 * that property — bucket reductions write disjoint state and fix
 * their chunk grids), and wait() drains the queue on the caller
 * before blocking, so a serial pool and a saturated pool both make
 * progress. A group is reusable: wait() leaves it empty and ready
 * for the next round of run() calls. Not reentrant — run()/wait()
 * are for code outside pool tasks (wait() from inside a task would
 * deadlock a single-worker pool).
 */
class TaskGroup
{
  public:
    TaskGroup() = default;

    /** @pre all submitted tasks completed (call wait() first). */
    ~TaskGroup() = default;

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit one task (inline on a serial pool). */
    void run(std::function<void()> fn);

    /**
     * Execute queued tasks on the calling thread until the queue is
     * empty, then block until every task of this group finished.
     */
    void wait();

    /** Tasks submitted over this group's lifetime (diagnostics). */
    int64_t submitted() const;

  private:
    friend class ThreadPool;

    mutable std::mutex mutex_;
    std::condition_variable done_;
    /** Tasks submitted but not yet completed (guarded by mutex_). */
    int64_t pending_ = 0;
    int64_t submitted_ = 0;
};

/**
 * RAII guard forcing every parallel region issued from the current
 * thread to run inline (single-threaded) while alive. The chunk
 * decomposition is unchanged, so results are bitwise identical to
 * pooled execution — this exists for single-thread baseline
 * measurements (bench_gemm) and tests.
 */
class SerialRegion
{
  public:
    SerialRegion();
    ~SerialRegion();

    SerialRegion(const SerialRegion &) = delete;
    SerialRegion &operator=(const SerialRegion &) = delete;

  private:
    bool saved_;
};

/** Minimum work per pool chunk (see the file comment). */
constexpr int64_t kMinChunkWork = int64_t{1} << 20;

/** max(1, ceil(kMinChunkWork / work)); work below 1 counts as 1. */
constexpr int64_t
grainForWork(int64_t work)
{
    return work < 1 ? kMinChunkWork
                    : kMinChunkWork / work + (kMinChunkWork % work != 0);
}

/** Convenience wrapper over ThreadPool::instance().parallelFor. */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const RangeFn &fn);

/** Convenience wrapper over ThreadPool::instance().parallelReduceSum. */
double parallelReduceSum(int64_t begin, int64_t end, int64_t grain,
                         int64_t work_per_index, const RangeSumFn &fn);

/** Pool width (1 means fully serial execution). */
int runtimeThreads();

/**
 * Thread-local workspace slot. The arena layer (tensor/arena.hh)
 * scopes tensor storage through this slot and the pool mirrors it
 * onto workers for the duration of a job or task — the slot lives
 * here, below the tensor library, so the pool can propagate it
 * without depending on the arena types. Returns the previous value.
 */
Workspace *exchangeCurrentWorkspaceSlot(Workspace *ws);

/** Current value of the thread-local workspace slot (may be null). */
Workspace *currentWorkspaceSlot();

} // namespace optimus

#endif // OPTIMUS_RUNTIME_RUNTIME_HH
