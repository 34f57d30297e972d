/**
 * @file
 * The execution runtime: full coverage of parallelFor / reduce
 * semantics, chunk-boundary determinism, nested inlining, and the
 * serial-region guard.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/runtime.hh"

using namespace optimus;

namespace
{

const bool kForceThreads = [] {
    ::setenv("OPTIMUS_THREADS", "4", 0);
    return true;
}();

} // namespace

TEST(Runtime, PoolRespectsEnvironment)
{
    ASSERT_TRUE(kForceThreads);
    EXPECT_GE(runtimeThreads(), 1);
    EXPECT_LE(runtimeThreads(), 256);
}

TEST(Runtime, ParallelForCoversRangeExactlyOnce)
{
    const int64_t n = 10007; // prime: every grain leaves a ragged tail
    for (int64_t grain : {1, 7, 64, 4096, 20000}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        parallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                hits[i].fetch_add(1);
        });
        for (int64_t i = 0; i < n; ++i)
            ASSERT_EQ(1, hits[i].load()) << "grain " << grain;
    }
}

TEST(Runtime, ParallelForEmptyAndReversedRanges)
{
    bool ran = false;
    parallelFor(5, 5, 1, [&](int64_t, int64_t) { ran = true; });
    parallelFor(9, 3, 1, [&](int64_t, int64_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(Runtime, ReduceChunkBoundariesDependOnlyOnGrain)
{
    // parallelFor may coalesce chunks when it runs inline (plain
    // loops cannot observe the decomposition), but reductions see
    // exactly ceil(range/grain) chunks at grain-aligned boundaries
    // in every execution mode — that is the determinism contract.
    auto boundaries = [](bool serial) {
        std::vector<std::pair<int64_t, int64_t>> out;
        std::mutex m;
        auto body = [&](int64_t lo, int64_t hi) {
            std::lock_guard<std::mutex> lock(m);
            out.emplace_back(lo, hi);
            return 0.0;
        };
        if (serial) {
            SerialRegion guard;
            parallelReduceSum(0, 1000, 17, kMinChunkWork, body);
        } else {
            parallelReduceSum(0, 1000, 17, kMinChunkWork, body);
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    const auto pooled = boundaries(false);
    ASSERT_EQ(59u, pooled.size()); // ceil(1000 / 17)
    EXPECT_EQ(pooled, boundaries(true));
    for (size_t c = 0; c < pooled.size(); ++c) {
        EXPECT_EQ(static_cast<int64_t>(c) * 17, pooled[c].first);
        EXPECT_EQ(std::min<int64_t>(1000, (c + 1) * 17),
                  pooled[c].second);
    }
}

TEST(Runtime, GrainForWorkDegenerateInput)
{
    // The rule is a pure function, and no region below reaches the
    // pool: each runs as one inline call on the caller.
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    static_assert(grainForWork(1) == kMinChunkWork);
    EXPECT_EQ(grainForWork(0), kMinChunkWork);
    EXPECT_EQ(grainForWork(-7), kMinChunkWork);
    EXPECT_EQ(grainForWork(std::numeric_limits<int64_t>::min()),
              kMinChunkWork);
    EXPECT_EQ(grainForWork(kMinChunkWork - 1), 2);
    EXPECT_EQ(grainForWork(kMinChunkWork), 1);
    EXPECT_EQ(grainForWork(kMinChunkWork + 1), 1);
    EXPECT_EQ(grainForWork(kMax - 1), 1);
    EXPECT_EQ(grainForWork(kMax), 1);
    EXPECT_EQ(grainForWork(kMinChunkWork / 3), 4); // ceil, not floor

    // A range the rule makes one chunk runs inline on the caller,
    // and a grain near INT64_MAX must not overflow the chunk count.
    const auto calls = [](int64_t end, int64_t grain) {
        std::vector<std::pair<int64_t, int64_t>> seen;
        const std::thread::id caller = std::this_thread::get_id();
        bool on_caller = true;
        parallelFor(0, end, grain, [&](int64_t lo, int64_t hi) {
            on_caller = on_caller && std::this_thread::get_id() == caller;
            seen.emplace_back(lo, hi);
        });
        EXPECT_TRUE(on_caller);
        return seen;
    };
    using Calls = std::vector<std::pair<int64_t, int64_t>>;
    EXPECT_EQ(calls(1000, grainForWork(0)), (Calls{{0, 1000}}));
    EXPECT_EQ(calls(1000, grainForWork(kMinChunkWork / 1000)),
              (Calls{{0, 1000}}));
    EXPECT_EQ(calls(10, kMax), (Calls{{0, 10}}));
    EXPECT_EQ(parallelReduceSum(0, 10, kMax, kMax,
                                [](int64_t lo, int64_t hi) {
                                    return static_cast<double>(hi - lo);
                                }),
              10.0);
}

TEST(Runtime, ReduceGroupsPartialsByWork)
{
    // The partial grid is the caller's grain whatever the work; the
    // work only decides how many partials share a chunk. Cheap
    // partials all run inline on the caller; partials that each
    // fill a chunk spread over the workers.
    const auto run = [](int64_t work) {
        std::vector<std::pair<int64_t, int64_t>> bounds;
        std::set<std::thread::id> threads;
        std::mutex m;
        const double total = parallelReduceSum(
            0, 1000, 17, work, [&](int64_t lo, int64_t hi) {
                std::lock_guard<std::mutex> lock(m);
                bounds.emplace_back(lo, hi);
                threads.insert(std::this_thread::get_id());
                return static_cast<double>(hi - lo);
            });
        EXPECT_EQ(total, 1000.0);
        std::sort(bounds.begin(), bounds.end());
        return std::make_pair(bounds, threads.size());
    };
    const auto cheap = run(1);
    const auto heavy = run(kMinChunkWork);
    EXPECT_EQ(cheap.first.size(), 59u); // ceil(1000 / 17)
    EXPECT_EQ(cheap.first, heavy.first);
    EXPECT_EQ(cheap.second, 1u);
    if (runtimeThreads() > 1) {
        EXPECT_GT(heavy.second, 1u);
    }
}

TEST(Runtime, ReduceSumMatchesSerialAndIsDeterministic)
{
    const int64_t n = 5000;
    std::vector<double> values(n);
    for (int64_t i = 0; i < n; ++i)
        values[i] = 1.0 / (1.0 + i);

    auto body = [&](int64_t lo, int64_t hi) {
        double s = 0.0;
        for (int64_t i = lo; i < hi; ++i)
            s += values[i];
        return s;
    };
    const double pooled = parallelReduceSum(0, n, 64, kMinChunkWork, body);
    const double again = parallelReduceSum(0, n, 64, kMinChunkWork, body);
    EXPECT_EQ(pooled, again);

    SerialRegion guard;
    const double serial = parallelReduceSum(0, n, 64, kMinChunkWork, body);
    EXPECT_EQ(pooled, serial);
}

TEST(Runtime, NestedParallelForRunsInline)
{
    // A nested region must execute on the worker that issued it
    // (no deadlock, no cross-worker interleaving).
    std::atomic<int> outer_chunks{0};
    std::atomic<int> inner_total{0};
    parallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            outer_chunks.fetch_add(1);
            EXPECT_TRUE(ThreadPool::inParallelRegion() ||
                        runtimeThreads() == 1);
            parallelFor(0, 100, 10, [&](int64_t l2, int64_t h2) {
                inner_total.fetch_add(
                    static_cast<int>(h2 - l2));
            });
        }
    });
    EXPECT_EQ(8, outer_chunks.load());
    EXPECT_EQ(800, inner_total.load());
}

TEST(Runtime, SerialRegionRestoresState)
{
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    {
        SerialRegion guard;
        EXPECT_TRUE(ThreadPool::inParallelRegion());
    }
    EXPECT_FALSE(ThreadPool::inParallelRegion());
}

TEST(Runtime, BackToBackRegionsReuseWorkers)
{
    // Hammer the pool with many small jobs to shake out epoch /
    // wakeup races.
    std::vector<int64_t> sums(64);
    for (int iter = 0; iter < 200; ++iter) {
        parallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                sums[i] += i;
        });
    }
    for (int64_t i = 0; i < 64; ++i)
        EXPECT_EQ(200 * i, sums[i]);
}

TEST(TaskGroup, RunsAllTasksAndCounts)
{
    TaskGroup group;
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i)
        group.run([&done] { done.fetch_add(1); });
    group.wait();
    EXPECT_EQ(64, done.load());
    EXPECT_EQ(64, group.submitted());
}

TEST(TaskGroup, IsReusableAcrossRounds)
{
    TaskGroup group;
    std::atomic<int> done{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 8; ++i)
            group.run([&done] { done.fetch_add(1); });
        group.wait();
        EXPECT_EQ(8 * (round + 1), done.load());
    }
    EXPECT_EQ(40, group.submitted());
}

TEST(TaskGroup, TasksSeeParallelRegionAndNestInline)
{
    // A task body must run with inParallelRegion() set so nested
    // parallel regions decompose inline, keeping the determinism
    // contract independent of which thread picks the task up.
    TaskGroup group;
    std::atomic<int> in_region{0};
    std::atomic<int64_t> nested_sum{0};
    group.run([&] {
        if (ThreadPool::inParallelRegion())
            in_region.fetch_add(1);
        parallelFor(0, 100, 7, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                nested_sum.fetch_add(i);
        });
    });
    group.wait();
    EXPECT_EQ(1, in_region.load());
    EXPECT_EQ(4950, nested_sum.load());
}

TEST(TaskGroup, TasksRunConcurrentlyWithParallelFor)
{
    // Submit tasks, then immediately run a parallelFor job: workers
    // must both finish the job (it outranks tasks) and drain the
    // queue without deadlock.
    TaskGroup group;
    std::atomic<int> task_done{0};
    std::vector<int64_t> touched(256, 0);
    for (int i = 0; i < 16; ++i)
        group.run([&task_done] { task_done.fetch_add(1); });
    parallelFor(0, 256, 16, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            touched[i] = i;
    });
    group.wait();
    EXPECT_EQ(16, task_done.load());
    for (int64_t i = 0; i < 256; ++i)
        EXPECT_EQ(i, touched[i]);
}
