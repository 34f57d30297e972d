#include "runtime/runtime.hh"

#include <cstdlib>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/** Marks threads that are currently executing a pool task. */
thread_local bool t_inWorker = false;

/** The thread's workspace scope (see exchangeCurrentWorkspaceSlot). */
thread_local Workspace *t_workspace = nullptr;

int
configuredThreads()
{
    if (const char *env = std::getenv("OPTIMUS_THREADS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed >= 1)
            return static_cast<int>(parsed > 256 ? 256 : parsed);
        warn("ignoring invalid OPTIMUS_THREADS='%s'", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

int64_t
chunkCount(int64_t begin, int64_t end, int64_t grain)
{
    const int64_t range = end - begin;
    return range / grain + (range % grain != 0 ? 1 : 0);
}

} // namespace

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool() : threads_(configuredThreads())
{
    // Pre-size the task ring: how deep the queue gets is a race
    // between submitters and draining workers, so ring growth is
    // NOT warmup-reproducible — a loaded machine can pile tasks
    // deeper in a steady-state step than any warmup step saw. 256
    // slots (~16 KiB) covers every workload in the tree; the
    // pushTask ratchet stays as a backstop for pathological depth.
    tasks_.resize(256);
    workers_.reserve(threads_ - 1);
    for (int w = 1; w < threads_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
    // Wait until every worker has registered its trace track. The
    // first registration constructs the tracer's function-local
    // state; finishing it before this pool's constructor returns
    // makes static destruction join the workers before it destroys
    // that state. Otherwise a worker still starting up when a short
    // process exits could register into a destroyed buffer list.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return workersStarted_ == threads_ - 1; });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

bool
ThreadPool::inParallelRegion()
{
    return t_inWorker;
}

Workspace *
exchangeCurrentWorkspaceSlot(Workspace *ws)
{
    Workspace *prev = t_workspace;
    t_workspace = ws;
    return prev;
}

Workspace *
currentWorkspaceSlot()
{
    return t_workspace;
}

void
ThreadPool::pushTask(PendingTask &&task)
{
    if (taskCount_ == tasks_.size()) {
        // Warmup growth: unwrap the ring into a larger vector.
        // optlint:coldalloc — capacity ratchets, steady state reuses
        // the slots in place.
        std::vector<PendingTask> grown;
        grown.resize(tasks_.empty() ? 16 : tasks_.size() * 2);
        for (size_t i = 0; i < taskCount_; ++i)
            grown[i] =
                std::move(tasks_[(taskHead_ + i) % tasks_.size()]);
        tasks_ = std::move(grown);
        taskHead_ = 0;
    }
    tasks_[(taskHead_ + taskCount_) % tasks_.size()] =
        std::move(task);
    ++taskCount_;
}

ThreadPool::PendingTask
ThreadPool::popTask()
{
    PendingTask task = std::move(tasks_[taskHead_]);
    taskHead_ = (taskHead_ + 1) % tasks_.size();
    --taskCount_;
    return task;
}

void
ThreadPool::runChunks(int worker_id, int64_t num_chunks)
{
    // Static round-robin assignment: worker w owns chunks
    // w, w + T, w + 2T, ... Chunk boundaries are a pure function of
    // (begin, end, grain), so results never depend on T.
    for (int64_t c = worker_id; c < num_chunks; c += threads_) {
        const int64_t lo = jobBegin_ + c * jobGrain_;
        int64_t hi = lo + jobGrain_;
        if (hi > jobEnd_)
            hi = jobEnd_;
        (*jobFn_)(lo, hi);
    }
}

void
ThreadPool::workerLoop(int worker_id)
{
    t_inWorker = true;
    obs::setThreadTrack(worker_id, "pool worker");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++workersStarted_;
    }
    done_.notify_all();
    uint64_t seen_epoch = 0;
    while (true) {
        int64_t num_chunks = 0;
        bool have_job = false;
        Workspace *job_ws = nullptr;
        PendingTask task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return shutdown_ || jobEpoch_ != seen_epoch ||
                       taskCount_ > 0;
            });
            if (shutdown_)
                return;
            if (jobEpoch_ != seen_epoch) {
                // A parallelFor job outranks queued tasks: its
                // caller blocks until every worker checked in.
                seen_epoch = jobEpoch_;
                num_chunks = jobChunks_;
                job_ws = jobWs_;
                have_job = true;
            } else {
                task = popTask();
            }
        }
        if (have_job) {
            // Mirror the job caller's workspace scope so tensors
            // built inside chunk bodies land in the caller's arena.
            Workspace *saved = exchangeCurrentWorkspaceSlot(job_ws);
            {
                obs::ScopedSpan span("runtime", "chunks");
                runChunks(worker_id, num_chunks);
            }
            exchangeCurrentWorkspaceSlot(saved);
            std::lock_guard<std::mutex> lock(mutex_);
            if (--workersBusy_ == 0)
                done_.notify_one();
        } else {
            Workspace *saved = exchangeCurrentWorkspaceSlot(task.ws);
            {
                obs::ScopedSpan span("runtime", "task");
                task.fn();
            }
            exchangeCurrentWorkspaceSlot(saved);
            finishTask(*task.group);
        }
    }
}

void
ThreadPool::finishTask(TaskGroup &group)
{
    std::lock_guard<std::mutex> lock(group.mutex_);
    if (--group.pending_ == 0)
        group.done_.notify_all();
}

void
ThreadPool::submit(TaskGroup &group, std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> glock(group.mutex_);
        ++group.submitted_;
    }
    if (obs::metricsEnabled()) {
        static obs::Counter &submits =
            obs::MetricsRegistry::instance().counter(
                "runtime.tasks.submitted");
        submits.add(1);
    }
    if (threads_ == 1) {
        // Serial pool: no workers exist, run inline right here. The
        // task body still sees inParallelRegion() so its nested
        // parallel regions decompose identically to pooled runs.
        const bool saved = t_inWorker;
        t_inWorker = true;
        {
            obs::ScopedSpan span("runtime", "task");
            fn();
        }
        t_inWorker = saved;
        return;
    }
    {
        std::lock_guard<std::mutex> glock(group.mutex_);
        ++group.pending_;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pushTask(PendingTask{std::move(fn), &group, t_workspace});
    }
    wake_.notify_one();
}

bool
ThreadPool::runOneTask()
{
    PendingTask task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (taskCount_ == 0)
            return false;
        task = popTask();
    }
    const bool saved = t_inWorker;
    t_inWorker = true;
    Workspace *saved_ws = exchangeCurrentWorkspaceSlot(task.ws);
    {
        obs::ScopedSpan span("runtime", "task");
        task.fn();
    }
    exchangeCurrentWorkspaceSlot(saved_ws);
    t_inWorker = saved;
    finishTask(*task.group);
    return true;
}

void
TaskGroup::run(std::function<void()> fn)
{
    ThreadPool::instance().submit(*this, std::move(fn));
}

void
TaskGroup::wait()
{
    ThreadPool &pool = ThreadPool::instance();
    while (pool.runOneTask()) {
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
}

int64_t
TaskGroup::submitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return submitted_;
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const RangeFn &fn)
{
    OPTIMUS_ASSERT(grain >= 1);
    if (end <= begin)
        return;

    if (obs::metricsEnabled()) {
        static obs::Counter &calls =
            obs::MetricsRegistry::instance().counter(
                "runtime.parallelFor.calls");
        calls.add(1);
    }

    // Serial pool, a nested call from a worker, or a range that
    // cannot fill more than one chunk: run inline. The chunk
    // decomposition is irrelevant to plain loops (only reductions
    // observe it, and parallelReduceSum chunks explicitly).
    const int64_t num_chunks = chunkCount(begin, end, grain);
    if (threads_ == 1 || t_inWorker || num_chunks == 1) {
        fn(begin, end);
        return;
    }

    // Only top-level pooled jobs get a span: nested and serial
    // calls take the inline path above, so traces stay readable.
    obs::ScopedSpan span("runtime", "parallelFor");

    std::lock_guard<std::mutex> run_lock(runMutex_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobFn_ = &fn;
        jobWs_ = t_workspace;
        jobBegin_ = begin;
        jobEnd_ = end;
        jobGrain_ = grain;
        jobChunks_ = num_chunks;
        workersBusy_ = threads_ - 1;
        ++jobEpoch_;
    }
    wake_.notify_all();

    // The caller participates as worker 0.
    t_inWorker = true;
    runChunks(0, num_chunks);
    t_inWorker = false;

    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return workersBusy_ == 0; });
}

double
ThreadPool::parallelReduceSum(int64_t begin, int64_t end, int64_t grain,
                              int64_t work_per_index,
                              const RangeSumFn &fn)
{
    OPTIMUS_ASSERT(grain >= 1);
    if (end <= begin)
        return 0.0;

    const int64_t num_chunks = chunkCount(begin, end, grain);
    // Partials live on the stack for every realistic chunk count; a
    // huge reduction falls back to a thread-local buffer whose
    // capacity ratchets during warmup. Either way the steady-state
    // step makes no heap call here.
    constexpr int64_t kStackPartials = 512;
    double stack_partial[kStackPartials];
    thread_local std::vector<double> t_partials;
    thread_local bool t_partialsBusy = false;
    double *partial = stack_partial;
    std::vector<double> nested_partial;
    bool own_tls = false;
    if (num_chunks > kStackPartials) {
        if (!t_partialsBusy) {
            // optlint:coldalloc — warmup capacity ratchet.
            if (static_cast<int64_t>(t_partials.size()) < num_chunks)
                t_partials.resize(num_chunks);
            partial = t_partials.data();
            t_partialsBusy = true;
            own_tls = true;
        } else {
            // A nested huge reduction on the same thread must not
            // resize the buffer the outer one is using.
            nested_partial.resize(num_chunks);
            partial = nested_partial.data();
        }
    }
    // Same partials whether this runs inline or on the pool, so the
    // final left-to-right combine is thread-count-invariant. A chunk
    // takes ceil(grainForWork(w) / grain) partials, which is
    // ceil(kMinChunkWork / (w * grain)) without forming the product.
    parallelFor(0, num_chunks,
                chunkCount(0, grainForWork(work_per_index), grain),
                [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
            const int64_t lo = begin + c * grain;
            const int64_t hi = lo + grain < end ? lo + grain : end;
            partial[c] = fn(lo, hi);
        }
    });
    double total = 0.0;
    for (int64_t c = 0; c < num_chunks; ++c)
        total += partial[c];
    if (own_tls)
        t_partialsBusy = false;
    return total;
}

SerialRegion::SerialRegion() : saved_(t_inWorker)
{
    t_inWorker = true;
}

SerialRegion::~SerialRegion()
{
    t_inWorker = saved_;
}

void
parallelFor(int64_t begin, int64_t end, int64_t grain,
            const RangeFn &fn)
{
    ThreadPool::instance().parallelFor(begin, end, grain, fn);
}

double
parallelReduceSum(int64_t begin, int64_t end, int64_t grain,
                  int64_t work_per_index, const RangeSumFn &fn)
{
    return ThreadPool::instance().parallelReduceSum(
        begin, end, grain, work_per_index, fn);
}

int
runtimeThreads()
{
    return ThreadPool::instance().threads();
}

} // namespace optimus
