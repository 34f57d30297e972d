/**
 * @file
 * Shared helpers for the test suite: finite-difference gradient
 * checking against the hand-written backward passes, the list of
 * SIMD tiers the per-tier tests iterate, and a count of the pooled
 * parallel regions a piece of code issues.
 */

#ifndef OPTIMUS_TESTS_TEST_UTIL_HH
#define OPTIMUS_TESTS_TEST_UTIL_HH

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "nn/layer.hh"
#include "obs/trace.hh"
#include "tensor/simd.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace optimus::test
{

/** True when @p x and @p y have one shape and hold the same bytes. */
inline bool
sameBits(const Tensor &x, const Tensor &y)
{
    return x.shape() == y.shape() &&
           (x.size() == 0 ||
            std::memcmp(x.data(), y.data(),
                        sizeof(float) * x.size()) == 0);
}

/** Every SIMD tier this CPU runs, narrowest first. */
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

/**
 * Run @p fn with span tracing on and count the `runtime/parallelFor`
 * spans it emitted: one per top-level region the pool ran, none for
 * a region that ran inline. Lets a pooled-vs-serial bitwise test
 * assert that its pooled leg really reached the pool. Clears the
 * trace before and after.
 */
inline int
pooledRegions(const std::function<void()> &fn)
{
    obs::stopTracing();
    obs::clearTrace();
    obs::startTracing();
    fn();
    obs::stopTracing();
    int regions = 0;
    for (const obs::TraceEvent &e : obs::traceEvents())
        if (e.phase == 'X' && std::strcmp(e.category, "runtime") == 0 &&
            std::strcmp(e.name, "parallelFor") == 0)
            ++regions;
    obs::clearTrace();
    return regions;
}

/**
 * Check d(sum(w .* layer(x)))/dx via central differences on a
 * sample of input coordinates.
 *
 * @return largest relative error over the sampled coordinates.
 */
inline double
inputGradError(Layer &layer, Tensor x, const Tensor &w, Rng &rng,
               int samples = 24, float eps = 1e-2f)
{
    layer.clearStash();
    Tensor y = layer.forward(x);
    Tensor dx = layer.backward(w);

    double worst = 0.0;
    for (int s = 0; s < samples; ++s) {
        const auto i =
            static_cast<int64_t>(rng.uniformInt(x.size()));
        const float saved = x[i];

        x[i] = saved + eps;
        layer.clearStash();
        Tensor yp = layer.forward(x);
        x[i] = saved - eps;
        layer.clearStash();
        Tensor ym = layer.forward(x);
        x[i] = saved;

        double fp = 0.0, fm = 0.0;
        for (int64_t j = 0; j < yp.size(); ++j) {
            fp += static_cast<double>(w[j]) * yp[j];
            fm += static_cast<double>(w[j]) * ym[j];
        }
        const double numeric = (fp - fm) / (2.0 * eps);
        const double analytic = dx[i];
        // Coordinates whose true gradient is (near-)zero produce
        // pure fp32 noise in the numeric estimate; skip them.
        if (std::fabs(numeric) < 1e-3 && std::fabs(analytic) < 1e-3)
            continue;
        const double denom =
            std::max({std::fabs(numeric), std::fabs(analytic), 1e-4});
        const double rel = std::fabs(numeric - analytic) / denom;
        if (rel > worst)
            worst = rel;
    }
    layer.clearStash();
    return worst;
}

/**
 * Check d(sum(w .* layer(x)))/dparam via central differences on a
 * sample of coordinates of every parameter.
 */
inline double
paramGradError(Layer &layer, const Tensor &x, const Tensor &w,
               Rng &rng, int samples_per_param = 12,
               float eps = 1e-2f)
{
    layer.clearStash();
    for (const auto &p : layer.params())
        p->zeroGrad();
    Tensor y = layer.forward(x);
    layer.backward(w);

    double worst = 0.0;
    for (const auto &p : dedupParams(layer.params())) {
        for (int s = 0; s < samples_per_param; ++s) {
            const auto i =
                static_cast<int64_t>(rng.uniformInt(p->size()));
            const float saved = p->value[i];

            p->value[i] = saved + eps;
            layer.clearStash();
            Tensor yp = layer.forward(x);
            p->value[i] = saved - eps;
            layer.clearStash();
            Tensor ym = layer.forward(x);
            p->value[i] = saved;

            double fp = 0.0, fm = 0.0;
            for (int64_t j = 0; j < yp.size(); ++j) {
                fp += static_cast<double>(w[j]) * yp[j];
                fm += static_cast<double>(w[j]) * ym[j];
            }
            const double numeric = (fp - fm) / (2.0 * eps);
            const double analytic = p->grad[i];
            if (std::fabs(numeric) < 1e-3 &&
                std::fabs(analytic) < 1e-3) {
                continue;
            }
            const double denom = std::max(
                {std::fabs(numeric), std::fabs(analytic), 1e-4});
            const double rel =
                std::fabs(numeric - analytic) / denom;
            if (rel > worst)
                worst = rel;
        }
    }
    layer.clearStash();
    return worst;
}

} // namespace optimus::test

#endif // OPTIMUS_TESTS_TEST_UTIL_HH
