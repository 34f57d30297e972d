/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the result
 * record every workload fills, and the timing/statistics helpers.
 *
 * Every layer is measured from outside: the workloads call the
 * public entry points of src/ modules and time those calls, and the
 * traced runs read the obs span trace the library already writes.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Minimum measured wall time; fixed-count work always runs
     *  to completion even when it takes longer. */
    double seconds = 10.0;
    /** false: end-to-end metrics; true: per-layer metrics. */
    bool trace = false;
    /** Tiny model and work, for the self-test. */
    bool smoke = false;
    /** Directory (inside the checkout) for trace files. */
    std::string outDir = ".";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports; main() prints it. */
struct Report
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Checks outside the per-operation count (oracle, trace). */
    std::vector<std::string> checkFailures;
    std::vector<Metric> metrics;
    /** Run description: pool size, counts, seeds (key, value). */
    std::vector<std::pair<std::string, std::string>> info;
    /** Human-readable lines (sample counts, supported tails). */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void check(bool ok, const std::string &what)
    {
        if (!ok)
            checkFailures.push_back(what);
    }
    bool correct() const
    {
        return failed == 0 && checkFailures.empty();
    }
};

/** Monotonic seconds (obs::nowNs, the repo's one clock source). */
double now();

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p p of raw samples, lowered to the highest
 * percentile the sample supports (the largest with at least ten
 * samples beyond it, but not below the median). Adds a note with the
 * percentile used and the sample count.
 */
double percentileNoted(Report &report, const std::string &label,
                       const std::vector<double> &samples, double p);

/**
 * Median wall seconds of one call of @p fn: one timed warm-up call
 * sizes the repetition so each of the @p reps timed repetitions
 * lasts about a millisecond.
 */
double medianCallSeconds(const std::function<void()> &fn, int reps = 15);

/** A JSON array of numbers (for info values). */
std::string jsonList(const std::vector<double> &values);

/** Peak resident set size of this process in MB (getrusage). */
double peakRssMb();

/** Seed of the benchmark's fixed synthetic corpus. */
constexpr uint64_t kCorpusSeed = 5;

/** Set-up repetitions per run; the median is reported. */
constexpr int kSetups = 9;

Report runTrainCc(const Options &options);
Report runTrainDense(const Options &options);
Report runServe(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
