/**
 * @file
 * Entry point of the end-to-end benchmark binary.
 *
 * Usage: perfbench --workload train_cc|train_dense|serve --seed N
 *                  --seconds S --trace 0|1 [--smoke] [--out DIR]
 *
 * Prints a run-description line ("info {...}"), notes, a metric
 * table, and as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
 * the end-to-end metrics of an untraced run; --trace 1 reports the
 * per-layer metrics of a traced run. Exit status is 0 whenever a
 * result was printed (correct or not) and 2 on a usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"
#include "obs/clock.hh"
#include "runtime/runtime.hh"
#include "tensor/simd.hh"
#include "util/stats.hh"

namespace perfbench
{

namespace
{

/**
 * Pool size of a run. End-to-end runs use one thread: at 2 threads on
 * a shared 4-vCPU host, train_cc's median step time moved by 10%
 * between processes and its p95 by 2x; at 1 thread by 1% and 9%
 * (NOTES.md). The traced train_cc run, whose per-layer metrics carry
 * no bound, uses two so the runtime layer measures a real pool.
 */
int
poolThreads(const Options &options)
{
    return options.trace && options.workload == "train_cc" ? 2 : 1;
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr && *value != '\0' ? value : fallback;
}

/** JSON string escaping for the few free-form info values. */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "train_cc|train_dense|serve --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--out DIR]\n",
                 why);
    return 2;
}

} // namespace

double
now()
{
    return static_cast<double>(optimus::obs::nowNs()) * 1e-9;
}

double
median(std::vector<double> values)
{
    return optimus::percentile(std::move(values), 50.0);
}

double
percentileNoted(Report &report, const std::string &label,
                const std::vector<double> &samples, double p)
{
    const double n = static_cast<double>(samples.size());
    // Largest percentile with at least ten samples above it; never
    // below the median.
    const double supported =
        n > 10.0 ? std::floor(1000.0 * (n - 10.0) / n) / 10.0 : 0.0;
    const double used = std::min(p, std::max(50.0, supported));
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "%s p%g: p%g of %zu samples (highest supported p%g)",
                  label.c_str(), p, used, samples.size(), supported);
    report.notes.push_back(buffer);
    return optimus::percentile(samples, used);
}

double
medianCallSeconds(const std::function<void()> &fn, int reps)
{
    const double t_warm = now();
    fn();
    const double warm = now() - t_warm;
    const int inner =
        warm >= 1e-3 ? 1
                     : static_cast<int>(std::min(1000.0, 1e-3 / warm)) + 1;
    std::vector<double> times;
    times.reserve(reps);
    for (int r = 0; r < reps; ++r) {
        const double t0 = now();
        for (int i = 0; i < inner; ++i)
            fn();
        times.push_back((now() - t0) / inner);
    }
    return median(std::move(times));
}

std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + number(values[i]);
    return out + "]";
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
            have_workload = true;
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            options.trace = std::strtol(argv[++i], nullptr, 10) != 0;
        } else if (arg == "--out" && has_value) {
            options.outDir = argv[++i];
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");

    Report (*run)(const Options &) = nullptr;
    if (options.workload == "train_cc")
        run = runTrainCc;
    else if (options.workload == "train_dense")
        run = runTrainDense;
    else if (options.workload == "serve")
        run = runServe;
    else
        return usage(("unknown workload " + options.workload).c_str());

    // The library reads its knobs from the environment once, at
    // first use. Pin the pool size before the pool exists, and
    // clear every other knob so each run measures the defaults.
    for (const char *knob :
         {"OPTIMUS_TRACE", "OPTIMUS_TELEMETRY", "OPTIMUS_PROBES",
          "OPTIMUS_METRICS_PORT", "OPTIMUS_METRICS_DUMP",
          "OPTIMUS_ARENA", "OPTIMUS_SIMD"})
        unsetenv(knob);
    const int threads = poolThreads(options);
    setenv("OPTIMUS_THREADS", std::to_string(threads).c_str(), 1);
    if (optimus::runtimeThreads() != threads) {
        std::fprintf(stderr, "perfbench: pool has %d threads, want %d\n",
                     optimus::runtimeThreads(), threads);
        return 1;
    }

    Report report = run(options);
    for (const Metric &m : report.metrics)
        report.check(std::isfinite(m.value), m.name + " is not finite");

    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
    std::string info = "{\"workload\":" + quoted(options.workload);
    info += ",\"trace\":" + std::to_string(options.trace ? 1 : 0);
    info += ",\"smoke\":" + std::string(options.smoke ? "true" : "false");
    info += ",\"seed\":" + std::to_string(options.seed);
    info += ",\"seconds\":" + number(options.seconds);
    info += ",\"host\":" + quoted(host);
    info += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    info += ",\"simd_tier\":" +
            quoted(optimus::simd::tierName(optimus::simd::tier()));
    info += ",\"pool_threads\":" +
            std::to_string(optimus::runtimeThreads());
    info += ",\"git_sha\":" + quoted(envOr("PERFBENCH_GIT_SHA", "unknown"));
    info += ",\"src_sha256\":" +
            quoted(envOr("PERFBENCH_SRC_SHA256", "unknown"));
    for (const auto &[key, value] : report.info)
        info += ",\"" + key + "\":" + value;
    info += "}";
    std::printf("info %s\n", info.c_str());

    for (const std::string &note : report.notes)
        std::printf("note %s\n", note.c_str());
    for (const std::string &failure : report.checkFailures)
        std::printf("FAILED %s\n", failure.c_str());
    const double fail_pct =
        report.attempted > 0
            ? 100.0 * static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted)
            : 0.0;
    std::printf("%-36s %18s  %s\n", "metric", "value", "unit");
    for (const Metric &m : report.metrics)
        std::printf("%-36s %18.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%-36s %18.6f  %s  (%lld of %lld failed)\n", "fail_pct",
                fail_pct, "%", static_cast<long long>(report.failed),
                static_cast<long long>(report.attempted));

    std::string json = "{\"correct\": ";
    json += report.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        json += (i ? ", " : "") + quoted(m.name) +
                ": {\"value\": " + number(m.value) +
                ", \"unit\": " + quoted(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
