/**
 * @file
 * GEMM kernel microbenchmark tracking the perf trajectory of the
 * execution runtime. Measures GFLOP/s of the naive reference kernel
 * and of the blocked kernel at every supported SIMD dispatch tier
 * (scalar / avx2 / avx512 — forced via simd::setTier, the same
 * switch OPTIMUS_SIMD drives), single-threaded and on the full
 * pool, at square sizes 64..1024. Writes BENCH_gemm.json so the
 * numbers are diffable across PRs; the top-level fields keep their
 * historical meaning (the auto-dispatched kernel) and a per-tier
 * breakdown rides alongside. The file records the host, pool
 * threads, dispatch tier and git revision it was measured at.
 *
 * A second table times the NN, NT and TN forms at the perfbench
 * training workloads' MLP shapes, per tier. A Linear layer's forward
 * is NN, its dX = dY * W^T is NT and its dW = X^T * dY is TN; only
 * the packing differs between them, so at one shape the three
 * should cost about the same.
 *
 * Usage: bench_gemm [--max-size 1024] [--reps 3]
 * Thread count comes from OPTIMUS_THREADS (default: hardware).
 */

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "runtime/runtime.hh"
#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "tensor/tensor.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table_printer.hh"

using namespace optimus;

namespace
{

using Kernel = void (*)(float *, const float *, const float *,
                        int64_t, int64_t, int64_t, bool);

double
seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-reps GFLOP/s for one kernel at size n. */
double
measure(Kernel kernel, const Tensor &a, const Tensor &b, Tensor &c,
        int reps)
{
    const int64_t n = a.rows();
    const double flops = 2.0 * n * n * n;
    // Warm-up run primes caches and the thread pool.
    kernel(c.data(), a.data(), b.data(), n, n, n, false);
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double t0 = seconds();
        kernel(c.data(), a.data(), b.data(), n, n, n, false);
        const double dt = seconds() - t0;
        const double gflops = flops / dt * 1e-9;
        if (gflops > best)
            best = gflops;
    }
    return best;
}

void
blockedSerial(float *c, const float *a, const float *b, int64_t m,
              int64_t k, int64_t n, bool accumulate)
{
    SerialRegion serial;
    gemm(c, a, b, m, k, n, accumulate);
}

struct TierNumbers
{
    simd::Tier tier;
    double serial = 0.0, threaded = 0.0;
};

struct Row
{
    int64_t size;
    double naive;
    std::vector<TierNumbers> tiers;

    const TierNumbers &
    forTier(simd::Tier t) const
    {
        for (const TierNumbers &tn : tiers)
            if (tn.tier == t)
                return tn;
        return tiers.front();
    }
};

/** One training-layer GEMM shape: C[m x n] = op(A) * op(B), depth k. */
struct LayerShape
{
    const char *layer;
    int64_t m, k, n;
};

/**
 * tokens x hidden x 4*hidden of perfbench's train_cc (16 tokens per
 * micro-batch, hidden 64) and train_dense (256 tokens, hidden 128):
 * the shape of fc1's forward (NN) and of fc2's dX = dY * W^T (NT).
 */
const LayerShape kLayerShapes[] = {
    {"train_cc mlp", 16, 64, 256},
    {"train_dense mlp", 256, 128, 512},
};

enum class Form { NN, NT, TN };

const char *
formName(Form f)
{
    return f == Form::NN ? "NN" : f == Form::NT ? "NT" : "TN";
}

/**
 * Best-of-@p reps microseconds per call of one matmulAcc form. Each
 * rep times a batch of calls long enough (about 2 ms) that the clock
 * resolution does not matter at the small shapes.
 */
double
measureLayer(Form form, const LayerShape &s, bool serial, int reps,
             Rng &rng)
{
    const Tensor a = form == Form::TN ? Tensor::randn({s.k, s.m}, rng)
                                      : Tensor::randn({s.m, s.k}, rng);
    const Tensor b = form == Form::NT ? Tensor::randn({s.n, s.k}, rng)
                                      : Tensor::randn({s.k, s.n}, rng);
    Tensor c({s.m, s.n});
    auto call = [&] {
        if (form == Form::NN)
            matmulAcc(c, a, b);
        else if (form == Form::NT)
            matmulAccNT(c, a, b);
        else
            matmulAccTN(c, a, b);
    };
    auto timeBatch = [&](int64_t calls) {
        const double t0 = seconds();
        for (int64_t i = 0; i < calls; ++i)
            call();
        return seconds() - t0;
    };
    std::optional<SerialRegion> region;
    if (serial)
        region.emplace();
    call();
    int64_t calls = 1;
    while (timeBatch(calls) < 2e-3)
        calls *= 2;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const double dt = timeBatch(calls) / calls;
        if (dt < best)
            best = dt;
    }
    return best * 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const int64_t max_size = args.getInt("max-size", 1024);
    const int reps = static_cast<int>(args.getInt("reps", 3));

    const simd::Tier auto_tier = simd::tier();
    std::vector<simd::Tier> tiers;
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                         simd::Tier::Avx512})
        if (simd::supported(t))
            tiers.push_back(t);

    std::printf("=== GEMM kernel microbenchmark ===\n");
    std::printf("pool threads: %d, dispatch tier: %s\n\n",
                runtimeThreads(), simd::tierName(auto_tier));

    std::vector<Row> rows;
    Rng rng(7);
    for (int64_t n = 64; n <= max_size; n *= 2) {
        Tensor a = Tensor::randn({n, n}, rng);
        Tensor b = Tensor::randn({n, n}, rng);
        Tensor c({n, n});
        Row row;
        row.size = n;
        row.naive = measure(gemmReference, a, b, c, reps);
        std::printf("%5lld: naive %7.2f\n",
                    static_cast<long long>(n), row.naive);
        for (simd::Tier t : tiers) {
            simd::setTier(t);
            TierNumbers tn;
            tn.tier = t;
            tn.serial = measure(blockedSerial, a, b, c, reps);
            tn.threaded = measure(gemm, a, b, c, reps);
            row.tiers.push_back(tn);
            std::printf("       %-6s 1t %7.2f (%.2fx)  %dt %7.2f "
                        "(%.2fx)\n",
                        simd::tierName(t), tn.serial,
                        tn.serial / row.naive, runtimeThreads(),
                        tn.threaded, tn.threaded / row.naive);
        }
        simd::setTier(auto_tier);
        rows.push_back(row);
    }

    // Layer shapes: microseconds per call, 1 thread and pool.
    struct LayerRow
    {
        const LayerShape *shape;
        Form form;
        std::vector<TierNumbers> tiers;
    };
    std::vector<LayerRow> layer_rows;
    std::printf("\nlayer shapes (us per call, m x k x n):\n");
    for (const LayerShape &s : kLayerShapes) {
        for (Form form : {Form::NN, Form::NT, Form::TN}) {
            LayerRow lr{&s, form, {}};
            for (simd::Tier t : tiers) {
                simd::setTier(t);
                TierNumbers tn;
                tn.tier = t;
                tn.serial = measureLayer(form, s, true, reps, rng);
                tn.threaded = measureLayer(form, s, false, reps, rng);
                lr.tiers.push_back(tn);
                std::printf("  %-16s %lldx%lldx%lld %s %-6s 1t %8.2f  "
                            "%dt %8.2f\n",
                            s.layer, static_cast<long long>(s.m),
                            static_cast<long long>(s.k),
                            static_cast<long long>(s.n), formName(form),
                            simd::tierName(t), tn.serial,
                            runtimeThreads(), tn.threaded);
            }
            simd::setTier(auto_tier);
            layer_rows.push_back(lr);
        }
    }

    FILE *f = std::fopen("BENCH_gemm.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_gemm.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"gemm\",\n");
    std::fprintf(f, "  \"host\": \"%s\",\n", bench::hostName().c_str());
    std::fprintf(f, "  \"git_sha\": \"%s\",\n",
                 bench::gitRevision().c_str());
    std::fprintf(f, "  \"threads\": %d,\n", runtimeThreads());
    std::fprintf(f, "  \"tier\": \"%s\",\n",
                 simd::tierName(auto_tier));
    std::fprintf(f, "  \"unit\": \"GFLOP/s\",\n  \"sizes\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const TierNumbers &active = r.forTier(auto_tier);
        std::fprintf(f,
                     "    {\"n\": %lld, \"naive\": %.3f, "
                     "\"blocked_1thread\": %.3f, "
                     "\"blocked_pool\": %.3f, "
                     "\"speedup_1thread\": %.3f, "
                     "\"speedup_pool\": %.3f,\n     \"tiers\": {",
                     static_cast<long long>(r.size), r.naive,
                     active.serial, active.threaded,
                     active.serial / r.naive,
                     active.threaded / r.naive);
        for (size_t j = 0; j < r.tiers.size(); ++j) {
            const TierNumbers &tn = r.tiers[j];
            std::fprintf(f,
                         "\"%s\": {\"blocked_1thread\": %.3f, "
                         "\"blocked_pool\": %.3f}%s",
                         simd::tierName(tn.tier), tn.serial,
                         tn.threaded,
                         j + 1 < r.tiers.size() ? ", " : "");
        }
        std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"layer_unit\": \"us per call\",\n"
                    "  \"layer_shapes\": [\n");
    for (size_t i = 0; i < layer_rows.size(); ++i) {
        const LayerRow &lr = layer_rows[i];
        std::fprintf(f,
                     "    {\"layer\": \"%s\", \"m\": %lld, "
                     "\"k\": %lld, \"n\": %lld, \"form\": \"%s\",\n"
                     "     \"tiers\": {",
                     lr.shape->layer, static_cast<long long>(lr.shape->m),
                     static_cast<long long>(lr.shape->k),
                     static_cast<long long>(lr.shape->n),
                     formName(lr.form));
        for (size_t j = 0; j < lr.tiers.size(); ++j) {
            const TierNumbers &tn = lr.tiers[j];
            std::fprintf(f,
                         "\"%s\": {\"us_1thread\": %.2f, "
                         "\"us_pool\": %.2f}%s",
                         simd::tierName(tn.tier), tn.serial,
                         tn.threaded,
                         j + 1 < lr.tiers.size() ? ", " : "");
        }
        std::fprintf(f, "}}%s\n",
                     i + 1 < layer_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nresults written to BENCH_gemm.json\n");
    return 0;
}
