/**
 * @file
 * Compression-kernel microbenchmark: throughput of the hot paths
 * the SIMD dispatch layer vectorizes — PowerSGD Gram-Schmidt
 * (orthonormalizeRows on an [8 x n] factor), full PowerSGD compress,
 * top-k selection, ternary and one-bit quantization — at every
 * supported dispatch tier, forced via simd::setTier exactly like
 * OPTIMUS_SIMD would. Writes BENCH_compress.json (Melem/s, best of
 * --reps) so the per-tier speedups are diffable across PRs; the file
 * records the host, pool threads, dispatch tier and git revision it
 * was measured at.
 *
 * Usage: bench_compress [--elems 1048576] [--reps 15]
 * Thread count comes from OPTIMUS_THREADS (default: hardware).
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "compress/powersgd.hh"
#include "compress/quantize.hh"
#include "compress/topk.hh"
#include "runtime/runtime.hh"
#include "tensor/simd.hh"
#include "tensor/tensor.hh"
#include "util/cli.hh"
#include "util/random.hh"

using namespace optimus;

namespace
{

/** Best-of-reps Melem/s for one kernel over n elements. */
double
measure(int64_t n, int reps, const std::function<void()> &fn)
{
    return static_cast<double>(n) / bench::bestSeconds(reps, fn) * 1e-6;
}

struct KernelRow
{
    std::string kernel;
    int64_t n;
    std::vector<std::pair<simd::Tier, double>> rates;
};

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const int64_t n = args.getInt("elems", 1 << 20);
    const int reps = static_cast<int>(args.getInt("reps", 15));

    const simd::Tier auto_tier = simd::tier();
    const std::vector<simd::Tier> tiers = bench::supportedTiers();

    std::printf("=== compression kernel microbenchmark ===\n");
    std::printf("pool threads: %d, dispatch tier: %s, n: %lld\n\n",
                runtimeThreads(), simd::tierName(auto_tier),
                static_cast<long long>(n));

    Rng rng(11);
    Tensor flat = Tensor::randn({n}, rng);
    // Square-ish matrix for the PowerSGD paths.
    const int64_t side = 1024;
    Tensor mat = Tensor::randn({side, side}, rng);
    // Eight vectors of n / 8 floats, one per row: the layout of a
    // rank-8 PowerSGD factor.
    Tensor wide = Tensor::randn({8, n / 8}, rng);

    std::vector<KernelRow> rows;
    auto addRow = [&](const char *kernel, int64_t elems,
                      const std::function<void()> &fn) {
        KernelRow row;
        row.kernel = kernel;
        row.n = elems;
        std::printf("%-22s", kernel);
        for (simd::Tier t : tiers) {
            simd::setTier(t);
            const double rate = measure(elems, reps, fn);
            row.rates.emplace_back(t, rate);
            std::printf("  %s %9.1f", simd::tierName(t), rate);
        }
        simd::setTier(auto_tier);
        std::printf("  Melem/s\n");
        rows.push_back(row);
    };

    Tensor out;
    TopKCompressor topk(0.01);
    addRow("topk(0.01)", n, [&] { topk.compress(flat, out); });

    TernaryCompressor ternary(123);
    addRow("ternary", n, [&] {
        ternary.reset();
        ternary.compress(flat, out);
    });

    OneBitCompressor onebit;
    addRow("onebit", n, [&] { onebit.compress(flat, out); });

    addRow("orthonormalize[8]", wide.size(), [&] {
        Tensor work = wide;
        orthonormalizeRows(work);
    });

    PowerSgdCompressor powersgd(4, 99);
    addRow("powersgd(r=4)", mat.size(), [&] {
        powersgd.reset();
        powersgd.compress(mat, out);
    });

    const std::string rev = bench::gitRevision();
    FILE *f = std::fopen("BENCH_compress.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_compress.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"compress\",\n");
    std::fprintf(f, "  \"host\": \"%s\",\n", bench::hostName().c_str());
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", rev.c_str());
    std::fprintf(f, "  \"threads\": %d,\n", runtimeThreads());
    std::fprintf(f, "  \"tier\": \"%s\",\n",
                 simd::tierName(auto_tier));
    std::fprintf(f, "  \"unit\": \"Melem/s\",\n  \"kernels\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const KernelRow &r = rows[i];
        std::fprintf(f, "    {\"kernel\": \"%s\", \"n\": %lld, ",
                     r.kernel.c_str(),
                     static_cast<long long>(r.n));
        std::fprintf(f, "\"tiers\": {");
        for (size_t j = 0; j < r.rates.size(); ++j)
            std::fprintf(f, "\"%s\": %.1f%s",
                         simd::tierName(r.rates[j].first),
                         r.rates[j].second,
                         j + 1 < r.rates.size() ? ", " : "");
        std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nresults written to BENCH_compress.json\n");
    return 0;
}
