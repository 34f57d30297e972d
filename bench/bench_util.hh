/**
 * @file
 * Shared configuration for the per-table / per-figure benchmark
 * harnesses, so every bench reports numbers from the same standard
 * miniature-scale quality setup and the same paper-scale simulated
 * cluster. Every harness prints the paper's value next to the
 * measured one; EXPERIMENTS.md records both.
 */

#ifndef OPTIMUS_BENCH_BENCH_UTIL_HH
#define OPTIMUS_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/optimus.hh"
#include "tensor/simd.hh"
#include "util/cli.hh"
#include "util/table_printer.hh"

namespace optimus::bench
{

/**
 * The standard miniature quality run used by all quality benches:
 * D=2 x P=2 (3D grid with T=1; tensor parallelism is exact and
 * quality-neutral), 300 iterations, corpus with a known entropy
 * floor. `--iters N` rescales for quick smoke runs.
 */
inline QualityRunConfig
standardQualityConfig(const CliArgs &args)
{
    QualityRunConfig config;
    config.iterations = static_cast<int>(args.getInt("iters", 300));
    return config;
}

/** Deeper-pipeline variant for epilogue-sensitive experiments. */
inline QualityRunConfig
deepPipelineQualityConfig(const CliArgs &args)
{
    QualityRunConfig config = standardQualityConfig(args);
    config.pipelineStages = 4;
    config.microBatches = 8;
    config.dataParallel = 1;
    return config;
}

/** Print a standard experiment banner. */
inline void
banner(const char *experiment, const char *paper_ref)
{
    std::printf("=== %s ===\n", experiment);
    std::printf("reproduces: %s\n\n", paper_ref);
}

/** "x.xx (paper: y.yy)" cell helper. */
inline std::string
withPaper(double measured, const char *paper_value, int precision = 2)
{
    char buf[80];
    std::snprintf(buf, sizeof(buf), "%.*f (paper %s)", precision,
                  measured, paper_value);
    return buf;
}

/** Monotonic wall-clock seconds (for best-of-reps timing). */
inline double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Best-of-@p reps wall seconds for one call of @p fn, after one
 * unmeasured warm-up call (arena sizing, scratch ratchets, warm
 * compressor state). Best-of, not mean: the shared box's scheduling
 * noise is strictly additive.
 */
inline double
bestSeconds(int reps, const std::function<void()> &fn)
{
    fn();
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const double t0 = wallSeconds();
        fn();
        const double dt = wallSeconds() - t0;
        if (dt < best)
            best = dt;
    }
    return best;
}

/**
 * Dispatch tiers this host supports, scalar first — the per-tier
 * sweep order every BENCH_*.json uses (forced via simd::setTier,
 * exactly like OPTIMUS_SIMD would resolve them).
 */
inline std::vector<simd::Tier>
supportedTiers()
{
    std::vector<simd::Tier> tiers;
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                         simd::Tier::Avx512})
        if (simd::supported(t))
            tiers.push_back(t);
    return tiers;
}

/** This machine's host name, or "unknown". */
inline std::string
hostName()
{
    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
    host[sizeof(host) - 1] = '\0';
    return host;
}

/**
 * `git describe` of the working tree, or "unknown" outside git. Take
 * it before truncating a tracked output file, or a clean tree reads
 * as "-dirty".
 */
inline std::string
gitRevision()
{
    std::string rev = "unknown";
    FILE *p = popen("git describe --always --dirty --abbrev=12 "
                    "2>/dev/null",
                    "r");
    if (p == nullptr)
        return rev;
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
        rev = buf;
        while (!rev.empty() && (rev.back() == '\n' || rev.back() == ' '))
            rev.pop_back();
        if (rev.empty())
            rev = "unknown";
    }
    pclose(p);
    return rev;
}

} // namespace optimus::bench

#endif // OPTIMUS_BENCH_BENCH_UTIL_HH
