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
 * A second table times the NN, NT and TN forms at layer shapes on
 * both sides of the runtime's kMinChunkWork, per tier: below it the
 * dispatch rule runs the GEMM inline, so "pool" should equal
 * "1thread"; above it the GEMM is split over the pool, which should
 * be no slower than inline. A Linear layer's forward is NN, its
 * dX = dY * W^T is NT and its dW = X^T * dY is TN; only the packing
 * differs between them, so at one shape the three should cost about
 * the same. The host's spare cores come and go, so the two legs
 * alternate rep by rep and each reports its median and range. The
 * `dispatch_us` field is the median round trip of an empty pooled
 * region, the cost a chunk of kMinChunkWork has to repay.
 *
 * A third table times serve's decode attention rows per tier: one
 * query of head width 16 against 8, 32 and 64 cached keys of a
 * 64-wide cache (4 heads), as nanoseconds per key for the score
 * kernel (simd::dotRowsScaled), the context kernel
 * (simd::weightedRowSum), and both through the per-key loop they
 * replaced (one dotDouble call per key, a context sum in memory).
 *
 * A fourth table times the element-wise layer kernels per tier at
 * perfbench's activation shapes (train_cc 16 x 64, serve decode
 * 8 x 64, train_dense 256 x 128): LayerNorm forward (Train, with its
 * stash) and backward (dx plus dgamma/dbeta), Linear's bias add and
 * bias column sums, and the residual add, each as nanoseconds per
 * call next to a copy of the loop it replaced, alternating rep by
 * rep.
 *
 * Usage: bench_gemm [--max-size 1024] [--reps 3]
 * Thread count comes from OPTIMUS_THREADS (default: hardware).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
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

/** One layer GEMM shape: C[m x n] = op(A) * op(B), depth k. */
struct LayerShape
{
    const char *layer;
    int64_t m, k, n;
};

/**
 * Shapes on both sides of kMinChunkWork (2^20 multiply-adds). The
 * workload rows are tokens x hidden x 4*hidden, the shape of fc1's
 * forward (NN) and of fc2's dX = dY * W^T (NT): perfbench's serve
 * decode (~8 rows, hidden 64), train_cc (16 tokens per micro-batch,
 * hidden 64) and train_dense (256 tokens, hidden 128). Serve decode
 * also runs fc2's forward (8 x 4*hidden x hidden) and, with one live
 * slot, single-row GEMMs. NN reads its whole-panel B in place while
 * NT packs it, so at these weight-sized B panels the NN row sits
 * below the NT one. With the AVX-512 row tile of 56 rows,
 * 112x128x128 is two tiles of 0.9M multiply-adds (one chunk,
 * inline) and 112x128x512 two tiles of 3.7M (two chunks, pooled).
 */
const LayerShape kLayerShapes[] = {
    {"64^3", 64, 64, 64},
    {"serve decode mlp", 8, 64, 256},
    {"serve decode fc2", 8, 256, 64},
    {"decode 1 row", 1, 64, 256},
    {"train_cc mlp", 16, 64, 256},
    {"two tiles 0.9M", 112, 128, 128},
    {"two tiles 3.7M", 112, 128, 512},
    {"train_dense mlp", 256, 128, 512},
};

/**
 * Alternating reps per layer-shape leg: enough for a median that a
 * host with a shifting number of spare cores does not swing.
 */
constexpr int kLayerReps = 11;

/** Median and range of a set of timings, microseconds. */
struct Spread
{
    double median = 0.0, lo = 0.0, hi = 0.0;
};

Spread
spreadOf(std::vector<double> us)
{
    std::sort(us.begin(), us.end());
    return {us[us.size() / 2], us.front(), us.back()};
}

/** Median microseconds of one empty region over the whole pool. */
double
dispatchMicros()
{
    const int64_t chunks = runtimeThreads();
    const auto empty = [](int64_t, int64_t) {};
    std::vector<double> us;
    for (int rep = 0; rep < 11; ++rep) {
        const double t0 = seconds();
        for (int i = 0; i < 1000; ++i)
            parallelFor(0, chunks, 1, empty);
        us.push_back((seconds() - t0) * 1e3);
    }
    return spreadOf(us).median;
}

enum class Form { NN, NT, TN };

const char *
formName(Form f)
{
    return f == Form::NN ? "NN" : f == Form::NT ? "NT" : "TN";
}

/**
 * Microseconds per call of one matmulAcc form, inline and on the
 * pool, alternating the two legs rep by rep. Each rep times a batch
 * of calls long enough (about 2 ms) that the clock resolution does
 * not matter at the small shapes.
 */
std::pair<Spread, Spread>
measureLayer(Form form, const LayerShape &s, int reps, Rng &rng)
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
    call();
    int64_t calls = 1;
    while (timeBatch(calls) < 2e-3)
        calls *= 2;
    std::vector<double> inline_us, pool_us;
    for (int r = 0; r < reps; ++r) {
        {
            SerialRegion serial;
            inline_us.push_back(timeBatch(calls) / calls * 1e6);
        }
        pool_us.push_back(timeBatch(calls) / calls * 1e6);
    }
    return {spreadOf(inline_us), spreadOf(pool_us)};
}

/** Serve's decode attention: head width and cache row width. */
constexpr int64_t kAttnHeadDim = 16;
constexpr int64_t kAttnLd = 64;
const int64_t kAttnContexts[] = {8, 32, 64};

/** Median ns per key of the decode attention kernels at one tier. */
struct AttnTimes
{
    double scores = 0.0, context = 0.0, per_key = 0.0;
};

/** Keeps the per-key loop's results observable. */
volatile float g_attn_sink = 0.0f;

/**
 * The decode attention row as it ran before the row kernels: one
 * dotDouble call per key, then the context summed in @p out.
 */
void
perKeyAttention(simd::Tier t, float *s, float *out, const float *q,
                const float *keys, const float *values, int64_t count)
{
    for (int64_t j = 0; j < count; ++j)
        s[j] = static_cast<float>(simd::dotDouble(
                   t, q, keys + j * kAttnLd, kAttnHeadDim)) *
               0.25f;
    for (int64_t c = 0; c < kAttnHeadDim; ++c)
        out[c] = 0.0f;
    for (int64_t j = 0; j < count; ++j) {
        const float pj = s[j];
        const float *vrow = values + j * kAttnLd;
        for (int64_t c = 0; c < kAttnHeadDim; ++c)
            out[c] += pj * vrow[c];
    }
}

AttnTimes
measureAttention(simd::Tier t, int64_t count, Rng &rng)
{
    const Tensor keys = Tensor::randn({count, kAttnLd}, rng);
    const Tensor values = Tensor::randn({count, kAttnLd}, rng);
    const Tensor q = Tensor::randn({kAttnHeadDim}, rng);
    Tensor w = Tensor::randn({count}, rng);
    std::vector<float> s(static_cast<size_t>(count));
    float out[kAttnHeadDim];
    const auto scores = [&] {
        simd::dotRowsScaled(t, s.data(), q.data(), keys.data(), kAttnLd,
                            count, kAttnHeadDim, 0.25f);
    };
    const auto context = [&] {
        simd::weightedRowSum(t, out, w.data(), values.data(), kAttnLd,
                             count, kAttnHeadDim);
    };
    const auto per_key = [&] {
        perKeyAttention(t, s.data(), out, q.data(), keys.data(),
                        values.data(), count);
    };
    int64_t calls = 1;
    auto nsPerKey = [&](auto &&call) {
        const double t0 = seconds();
        for (int64_t i = 0; i < calls; ++i)
            call();
        return (seconds() - t0) / calls / count * 1e9;
    };
    // Batches of about 2 ms of the per-key loop; the three kernels
    // alternate rep by rep, so a shift in the host's speed moves
    // all three medians alike.
    while (nsPerKey(per_key) * calls * count < 2e6)
        calls *= 2;
    std::vector<double> ns[3];
    for (int r = 0; r < kLayerReps; ++r) {
        ns[0].push_back(nsPerKey(scores));
        ns[1].push_back(nsPerKey(context));
        ns[2].push_back(nsPerKey(per_key));
    }
    g_attn_sink = g_attn_sink + out[0] + s[0];
    AttnTimes times;
    times.scores = spreadOf(ns[0]).median;
    times.context = spreadOf(ns[1]).median;
    times.per_key = spreadOf(ns[2]).median;
    return times;
}

/** One activation shape of the layer kernels: rows x width. */
struct KernelShape
{
    const char *name;
    int64_t rows, n;
};

const KernelShape kKernelShapes[] = {
    {"train_cc", 16, 64},
    {"serve decode", 8, 64},
    {"train_dense", 256, 128},
};

enum class LayerOp
{
    LayerNormFwd,
    LayerNormBwd,
    BiasAdd,
    BiasColSum,
    ResidualAdd,
};

const LayerOp kLayerOps[] = {LayerOp::LayerNormFwd, LayerOp::LayerNormBwd,
                             LayerOp::BiasAdd, LayerOp::BiasColSum,
                             LayerOp::ResidualAdd};

const char *
layerOpName(LayerOp op)
{
    switch (op) {
      case LayerOp::LayerNormFwd:
        return "layernorm_fwd";
      case LayerOp::LayerNormBwd:
        return "layernorm_bwd";
      case LayerOp::BiasAdd:
        return "bias_add";
      case LayerOp::BiasColSum:
        return "bias_col_sum";
      case LayerOp::ResidualAdd:
        return "residual_add";
    }
    return "?";
}

/**
 * LayerNorm::forward's loop before the simd kernels (Train: writes
 * x_hat and the inverse std devs).
 */
void
oldLayerNormForward(float *y, float *nd, float *inv_std, const float *x,
                    const float *g, const float *b, int64_t rows,
                    int64_t f)
{
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = x + i * f;
        double sum = 0.0;
        for (int64_t j = 0; j < f; ++j)
            sum += row[j];
        const float mu = static_cast<float>(sum / f);
        double var = 0.0;
        for (int64_t j = 0; j < f; ++j) {
            const float d = row[j] - mu;
            var += static_cast<double>(d) * d;
        }
        const float inv = 1.0f / std::sqrt(static_cast<float>(var / f) + 1e-5f);
        inv_std[i] = inv;
        for (int64_t j = 0; j < f; ++j) {
            const float xn = (row[j] - mu) * inv;
            nd[i * f + j] = xn;
            y[i * f + j] = g[j] * xn + b[j];
        }
    }
}

/** LayerNorm::backward's loops before the simd kernels. */
void
oldLayerNormBackward(float *dx, float *dg, float *db, const float *dy,
                     const float *nd, const float *inv_std,
                     const float *g, int64_t rows, int64_t f)
{
    for (int64_t i = 0; i < rows; ++i) {
        const float *dyr = dy + i * f;
        const float *nr = nd + i * f;
        double sum_dxhat = 0.0;
        double sum_dxhat_xhat = 0.0;
        for (int64_t j = 0; j < f; ++j) {
            const float dxhat = dyr[j] * g[j];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += static_cast<double>(dxhat) * nr[j];
        }
        const float md = static_cast<float>(sum_dxhat / f);
        const float mdx = static_cast<float>(sum_dxhat_xhat / f);
        for (int64_t j = 0; j < f; ++j) {
            const float dxhat = dyr[j] * g[j];
            dx[i * f + j] = inv_std[i] * (dxhat - md - nr[j] * mdx);
        }
    }
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < f; ++j) {
            dg[j] += dy[i * f + j] * nd[i * f + j];
            db[j] += dy[i * f + j];
        }
}

/** Median ns per call of one layer kernel and of its old loop. */
struct KernelTimes
{
    double kernel = 0.0, old_loop = 0.0;
};

/** Keeps the timed outputs observable. */
volatile float g_kernel_sink = 0.0f;

KernelTimes
measureLayerKernel(simd::Tier t, LayerOp op, const KernelShape &s,
                   Rng &rng)
{
    const int64_t rows = s.rows;
    const int64_t n = s.n;
    const Tensor x = Tensor::randn({rows, n}, rng);
    const Tensor dy = Tensor::randn({rows, n}, rng);
    const Tensor g = Tensor::randn({n}, rng, 1.0f, 0.1f);
    const Tensor b = Tensor::randn({n}, rng);
    Tensor y({rows, n});
    Tensor nd = Tensor::randn({rows, n}, rng);
    Tensor acc({n});
    Tensor acc2({n});
    std::vector<float> inv_std(static_cast<size_t>(rows), 1.0f);
    const auto kernel = [&] {
        switch (op) {
          case LayerOp::LayerNormFwd:
            simd::layerNormForward(t, y.data(), nd.data(), inv_std.data(),
                                   x.data(), g.data(), b.data(), n, rows, n,
                                   1e-5f);
            break;
          case LayerOp::LayerNormBwd:
            simd::layerNormBackward(t, y.data(), dy.data(), nd.data(),
                                    inv_std.data(), g.data(), n, rows, n);
            simd::layerNormParamGrads(t, acc.data(), acc2.data(), dy.data(),
                                      nd.data(), n, rows, n);
            break;
          case LayerOp::BiasAdd:
            simd::addRowBias(t, y.data(), b.data(), n, rows, n);
            break;
          case LayerOp::BiasColSum:
            simd::addColSums(t, acc.data(), dy.data(), n, rows, n);
            break;
          case LayerOp::ResidualAdd:
            simd::addVals(t, y.data(), y.data(), x.data(), rows * n);
            break;
        }
    };
    const auto old_loop = [&] {
        float *yd = y.data();
        float *ad = acc.data();
        const float *dyd = dy.data();
        const float *bd = b.data();
        const float *xd = x.data();
        switch (op) {
          case LayerOp::LayerNormFwd:
            oldLayerNormForward(yd, nd.data(), inv_std.data(), xd, g.data(),
                                bd, rows, n);
            break;
          case LayerOp::LayerNormBwd:
            oldLayerNormBackward(yd, ad, acc2.data(), dyd, nd.data(),
                                 inv_std.data(), g.data(), rows, n);
            break;
          case LayerOp::BiasAdd:
            for (int64_t i = 0; i < rows; ++i)
                for (int64_t j = 0; j < n; ++j)
                    yd[i * n + j] += bd[j];
            break;
          case LayerOp::BiasColSum:
            for (int64_t i = 0; i < rows; ++i)
                for (int64_t j = 0; j < n; ++j)
                    ad[j] += dyd[i * n + j];
            break;
          case LayerOp::ResidualAdd:
            for (int64_t i = 0; i < rows * n; ++i)
                yd[i] += xd[i];
            break;
        }
    };
    int64_t calls = 1;
    auto nsPerCall = [&](auto &&call) {
        const double t0 = seconds();
        for (int64_t i = 0; i < calls; ++i)
            call();
        return (seconds() - t0) / calls * 1e9;
    };
    // Batches of about 2 ms of the old loop; the kernel and the loop
    // alternate rep by rep, so a shift in the host's speed moves
    // both medians alike.
    while (nsPerCall(old_loop) * calls < 2e6)
        calls *= 2;
    std::vector<double> ns[2];
    for (int r = 0; r < kLayerReps; ++r) {
        ns[0].push_back(nsPerCall(kernel));
        ns[1].push_back(nsPerCall(old_loop));
    }
    g_kernel_sink = g_kernel_sink + y[0] + acc[0] + acc2[0];
    return {spreadOf(ns[0]).median, spreadOf(ns[1]).median};
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

    const double dispatch_us = dispatchMicros();
    std::printf("\nempty pooled region: %.2f us\n", dispatch_us);

    // Layer shapes: microseconds per call, 1 thread and pool.
    struct LayerTier
    {
        simd::Tier tier;
        Spread serial, pool;
    };
    struct LayerRow
    {
        const LayerShape *shape;
        Form form;
        std::vector<LayerTier> tiers;
    };
    std::vector<LayerRow> layer_rows;
    std::printf("\nlayer shapes (median us per call [range], "
                "m x k x n):\n");
    for (const LayerShape &s : kLayerShapes) {
        for (Form form : {Form::NN, Form::NT, Form::TN}) {
            LayerRow lr{&s, form, {}};
            for (simd::Tier t : tiers) {
                simd::setTier(t);
                const auto [serial, pool] =
                    measureLayer(form, s, kLayerReps, rng);
                lr.tiers.push_back({t, serial, pool});
                std::printf("  %-16s %lldx%lldx%lld %s %-6s "
                            "1t %8.2f [%.2f, %.2f]  "
                            "%dt %8.2f [%.2f, %.2f]\n",
                            s.layer, static_cast<long long>(s.m),
                            static_cast<long long>(s.k),
                            static_cast<long long>(s.n), formName(form),
                            simd::tierName(t), serial.median, serial.lo,
                            serial.hi, runtimeThreads(), pool.median,
                            pool.lo, pool.hi);
            }
            simd::setTier(auto_tier);
            layer_rows.push_back(lr);
        }
    }

    struct AttnRow
    {
        int64_t context;
        std::vector<std::pair<simd::Tier, AttnTimes>> tiers;
    };
    std::vector<AttnRow> attn_rows;
    std::printf("\ndecode attention, head width %lld (median ns per "
                "key: scores, context, per-key loop):\n",
                static_cast<long long>(kAttnHeadDim));
    for (int64_t count : kAttnContexts) {
        AttnRow ar{count, {}};
        for (simd::Tier t : tiers) {
            const AttnTimes at = measureAttention(t, count, rng);
            ar.tiers.push_back({t, at});
            std::printf("  context %3lld %-6s scores %6.2f  context "
                        "%6.2f  per-key loop %6.2f\n",
                        static_cast<long long>(count), simd::tierName(t),
                        at.scores, at.context, at.per_key);
        }
        attn_rows.push_back(ar);
    }

    struct KernelRow
    {
        const KernelShape *shape;
        LayerOp op;
        std::vector<std::pair<simd::Tier, KernelTimes>> tiers;
    };
    std::vector<KernelRow> kernel_rows;
    std::printf("\nlayer kernels (median ns per call, 1 thread: "
                "kernel, old loop):\n");
    for (const KernelShape &ks : kKernelShapes) {
        for (LayerOp op : kLayerOps) {
            KernelRow kr{&ks, op, {}};
            for (simd::Tier t : tiers) {
                const KernelTimes kt = measureLayerKernel(t, op, ks, rng);
                kr.tiers.push_back({t, kt});
                std::printf("  %-12s %3lldx%-3lld %-13s %-6s kernel %9.1f"
                            "  old loop %9.1f\n",
                            ks.name, static_cast<long long>(ks.rows),
                            static_cast<long long>(ks.n), layerOpName(op),
                            simd::tierName(t), kt.kernel, kt.old_loop);
            }
            kernel_rows.push_back(kr);
        }
    }

    const std::string rev = bench::gitRevision();
    FILE *f = std::fopen("BENCH_gemm.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_gemm.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"gemm\",\n");
    std::fprintf(f, "  \"host\": \"%s\",\n", bench::hostName().c_str());
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", rev.c_str());
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
    std::fprintf(f, "  ],\n  \"min_chunk_work\": %lld,\n",
                 static_cast<long long>(kMinChunkWork));
    std::fprintf(f, "  \"dispatch_us\": %.2f,\n", dispatch_us);
    std::fprintf(f, "  \"layer_reps\": %d,\n", kLayerReps);
    std::fprintf(f, "  \"layer_unit\": \"median us per call, "
                    "[min, max] over the reps\",\n"
                    "  \"layer_shapes\": [\n");
    for (size_t i = 0; i < layer_rows.size(); ++i) {
        const LayerRow &lr = layer_rows[i];
        std::fprintf(f,
                     "    {\"layer\": \"%s\", \"m\": %lld, "
                     "\"k\": %lld, \"n\": %lld, \"work\": %lld, "
                     "\"form\": \"%s\",\n     \"tiers\": {",
                     lr.shape->layer, static_cast<long long>(lr.shape->m),
                     static_cast<long long>(lr.shape->k),
                     static_cast<long long>(lr.shape->n),
                     static_cast<long long>(lr.shape->m * lr.shape->k *
                                            lr.shape->n),
                     formName(lr.form));
        for (size_t j = 0; j < lr.tiers.size(); ++j) {
            const LayerTier &lt = lr.tiers[j];
            std::fprintf(f,
                         "\"%s\": {\"us_1thread\": %.2f, "
                         "\"us_1thread_range\": [%.2f, %.2f], "
                         "\"us_pool\": %.2f, "
                         "\"us_pool_range\": [%.2f, %.2f]}%s",
                         simd::tierName(lt.tier), lt.serial.median,
                         lt.serial.lo, lt.serial.hi, lt.pool.median,
                         lt.pool.lo, lt.pool.hi,
                         j + 1 < lr.tiers.size() ? ", " : "");
        }
        std::fprintf(f, "}}%s\n",
                     i + 1 < layer_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"decode_attention_unit\": \"median ns "
                    "per key, 1 thread\",\n"
                    "  \"decode_attention\": [\n");
    for (size_t i = 0; i < attn_rows.size(); ++i) {
        const AttnRow &ar = attn_rows[i];
        std::fprintf(f,
                     "    {\"context\": %lld, \"head_dim\": %lld, "
                     "\"ld\": %lld,\n     \"tiers\": {",
                     static_cast<long long>(ar.context),
                     static_cast<long long>(kAttnHeadDim),
                     static_cast<long long>(kAttnLd));
        for (size_t j = 0; j < ar.tiers.size(); ++j) {
            const AttnTimes &at = ar.tiers[j].second;
            std::fprintf(f,
                         "\"%s\": {\"scores_ns_per_key\": %.2f, "
                         "\"context_ns_per_key\": %.2f, "
                         "\"per_key_loop_ns_per_key\": %.2f}%s",
                         simd::tierName(ar.tiers[j].first), at.scores,
                         at.context, at.per_key,
                         j + 1 < ar.tiers.size() ? ", " : "");
        }
        std::fprintf(f, "}}%s\n", i + 1 < attn_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"layer_kernels_unit\": \"median ns per "
                    "call, 1 thread\",\n"
                    "  \"layer_kernels\": [\n");
    for (size_t i = 0; i < kernel_rows.size(); ++i) {
        const KernelRow &kr = kernel_rows[i];
        std::fprintf(f,
                     "    {\"shape\": \"%s\", \"rows\": %lld, "
                     "\"n\": %lld, \"op\": \"%s\",\n     \"tiers\": {",
                     kr.shape->name, static_cast<long long>(kr.shape->rows),
                     static_cast<long long>(kr.shape->n),
                     layerOpName(kr.op));
        for (size_t j = 0; j < kr.tiers.size(); ++j) {
            const KernelTimes &kt = kr.tiers[j].second;
            std::fprintf(f,
                         "\"%s\": {\"kernel_ns\": %.1f, "
                         "\"old_loop_ns\": %.1f}%s",
                         simd::tierName(kr.tiers[j].first), kt.kernel,
                         kt.old_loop, j + 1 < kr.tiers.size() ? ", " : "");
        }
        std::fprintf(f, "}}%s\n", i + 1 < kernel_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nresults written to BENCH_gemm.json\n");
    return 0;
}
