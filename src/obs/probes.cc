#include "obs/probes.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/metrics.hh"
#include "util/stats.hh"

namespace optimus
{
namespace obs
{

std::atomic<bool> g_probesEnabled{false};
std::atomic<bool> g_probeActive{false};

namespace
{

/** Sampling stride for the expensive norm passes; armed per step
 *  by probeStepBegin(). Written from cold paths only. */
std::atomic<int> g_probeInterval{16};

} // namespace

void
enableProbes(bool on)
{
    g_probesEnabled.store(on, std::memory_order_relaxed);
    if (!on)
        g_probeActive.store(false, std::memory_order_relaxed);
}

int
probeInterval()
{
    return g_probeInterval.load(std::memory_order_relaxed);
}

void
setProbeInterval(int steps)
{
    g_probeInterval.store(steps < 1 ? 1 : steps,
                          std::memory_order_relaxed);
}

void
probeStepBegin(int64_t step)
{
    const int64_t stride = probeInterval();
    g_probeActive.store(probesEnabled() && step % stride == 0,
                        std::memory_order_relaxed);
}

namespace
{

double
envDouble(const char *name, double fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    return end == value ? fallback : parsed;
}

} // namespace

ProbeThresholds &
probeThresholds()
{
    static ProbeThresholds thresholds;
    return thresholds;
}

// optlint:coldfn — once-per-process env resolution.
void
initTelemetryFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *telemetry = std::getenv("OPTIMUS_TELEMETRY");
        if (telemetry && telemetry[0] == '1') {
            enableMetrics(true);
            enableProbes(true);
        }
        const char *probes = std::getenv("OPTIMUS_PROBES");
        if (probes && probes[0] == '1')
            enableProbes(true);
        ProbeThresholds &t = probeThresholds();
        t.relErrMax =
            envDouble("OPTIMUS_PROBE_RELERR_MAX", t.relErrMax);
        t.gradNormMax =
            envDouble("OPTIMUS_PROBE_GRADNORM_MAX", t.gradNormMax);
        t.lossFactor =
            envDouble("OPTIMUS_PROBE_LOSS_FACTOR", t.lossFactor);
        t.alertIntervalSteps = static_cast<int64_t>(envDouble(
            "OPTIMUS_ALERT_INTERVAL",
            static_cast<double>(t.alertIntervalSteps)));
        setProbeInterval(static_cast<int>(
            envDouble("OPTIMUS_PROBE_INTERVAL",
                      static_cast<double>(probeInterval()))));
        // First-touch the alert sink and its counter here, while
        // allocation is still legal (cold path); the raise() path
        // then resolves the registered slot with a map find.
        AlertLog::instance();
        MetricsRegistry::instance().counter("obs.alerts");
    });
}

// optlint:hot — probe accumulation on the step path.
double
l2NormSq(const float *a, size_t n)
{
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += static_cast<double>(a[i]) * static_cast<double>(a[i]);
    return sum;
}

// optlint:hot — probe accumulation on the step path.
double
l2DiffNormSq(const float *a, const float *b, size_t n)
{
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d =
            static_cast<double>(a[i]) - static_cast<double>(b[i]);
        sum += d * d;
    }
    return sum;
}

// optlint:hot — probe accumulation on the step path.
void
CompressionHealth::observe(const float *input, const float *recon,
                           size_t n)
{
    if (!probeActive())
        return;
    this->inputNormSq += l2NormSq(input, n);
    this->errNormSq += l2DiffNormSq(input, recon, n);
    this->cosineSum += cosineSimilarity(input, recon, n);
    this->cosineCount += 1;
}

// The explicit this-> marks these folds as per-object member
// writes: merge() runs on caller-owned snapshots, never on state
// shared across parallel bodies.
void
CompressionHealth::merge(const CompressionHealth &other)
{
    this->inputNormSq += other.inputNormSq;
    this->errNormSq += other.errNormSq;
    this->residualNormSq += other.residualNormSq;
    this->cosineSum += other.cosineSum;
    this->cosineCount += other.cosineCount;
}

CompressionHealth
CompressionHealth::delta(const CompressionHealth &prev) const
{
    CompressionHealth d;
    d.sends = sends - prev.sends;
    d.compressedSends = compressedSends - prev.compressedSends;
    d.exactBytes = exactBytes - prev.exactBytes;
    d.wireBytes = wireBytes - prev.wireBytes;
    d.inputNormSq = inputNormSq - prev.inputNormSq;
    d.errNormSq = errNormSq - prev.errNormSq;
    d.residualNormSq = residualNormSq;
    d.cosineSum = cosineSum - prev.cosineSum;
    d.cosineCount = cosineCount - prev.cosineCount;
    return d;
}

double
CompressionHealth::wireRatio() const
{
    if (exactBytes <= 0)
        return 1.0;
    return static_cast<double>(wireBytes) /
           static_cast<double>(exactBytes);
}

double
CompressionHealth::relError() const
{
    if (inputNormSq <= 0.0)
        return 0.0;
    return std::sqrt(errNormSq / inputNormSq);
}

double
CompressionHealth::residualNorm() const
{
    return std::sqrt(residualNormSq);
}

double
CompressionHealth::meanCosine() const
{
    if (cosineCount <= 0)
        return 1.0;
    return cosineSum / static_cast<double>(cosineCount);
}

const char *
alertKindName(AlertKind kind)
{
    switch (kind) {
      case AlertKind::RelError:
        return "relError";
      case AlertKind::GradNorm:
        return "gradNorm";
      case AlertKind::LossDrift:
        return "lossDrift";
    }
    return "?";
}

AlertLog::AlertLog() = default;

AlertLog &
AlertLog::instance()
{
    static AlertLog log;
    return log;
}

// optlint:hot — threshold crossings fire on the step path; the
// ring and limiter are preallocated, so raising never allocates.
bool
AlertLog::raise(const char *channel, AlertKind kind, int64_t step,
                double value, double threshold)
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Rate limit per (channel, kind): linear scan of a fixed table
    // (at most a handful of live keys; once per step, not per
    // element). A full table degrades to unlimited raising rather
    // than dropping alerts.
    LimitSlot *slot = nullptr;
    for (auto &candidate : limiter_) {
        if (!candidate.used) {
            if (!slot)
                slot = &candidate;
            continue;
        }
        if (candidate.kind == kind &&
            std::strncmp(candidate.channel, channel,
                         sizeof(candidate.channel)) == 0) {
            slot = &candidate;
            break;
        }
    }
    const int64_t interval = probeThresholds().alertIntervalSteps;
    if (slot && slot->used &&
        step - slot->lastStep < interval)
        return false;
    if (slot) {
        std::strncpy(slot->channel, channel,
                     sizeof(slot->channel) - 1);
        slot->channel[sizeof(slot->channel) - 1] = '\0';
        slot->kind = kind;
        slot->lastStep = step;
        slot->used = true;
    }

    Alert &alert = ring_[static_cast<size_t>(raised_ % kCapacity)];
    alert.step = step;
    alert.kind = kind;
    alert.value = value;
    alert.threshold = threshold;
    std::strncpy(alert.channel, channel, sizeof(alert.channel) - 1);
    alert.channel[sizeof(alert.channel) - 1] = '\0';
    ++raised_;

    if (metricsEnabled()) {
        static Counter &alerts =
            MetricsRegistry::instance().counter("obs.alerts");
        alerts.add(1);
    }
    return true;
}

// optlint:hot — once per monitored signal per sampled step.
bool
monitorThreshold(const char *channel, AlertKind kind, int64_t step,
                 double value, double threshold)
{
    // A non-finite value fails every ordered comparison, so it is
    // tested explicitly: NaN and Inf must alert, not slip through.
    if (threshold <= 0.0 ||
        (std::isfinite(value) && !(value > threshold)))
        return false;
    if (!AlertLog::instance().raise(channel, kind, step, value,
                                    threshold))
        return false;
    std::fprintf(stderr,
                 "optimus: alert step=%lld channel=%s kind=%s "
                 "value=%.6g threshold=%.6g\n",
                 static_cast<long long>(step), channel,
                 alertKindName(kind), value, threshold);
    return true;
}

int64_t
AlertLog::raisedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return raised_;
}

std::vector<Alert>
AlertLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t retained = raised_ < kCapacity ? raised_
                                                 : kCapacity;
    std::vector<Alert> out;
    out.reserve(static_cast<size_t>(retained));
    for (int64_t i = 0; i < retained; ++i)
        out.push_back(ring_[static_cast<size_t>(
            (raised_ - retained + i) % kCapacity)]);
    return out;
}

void
AlertLog::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    raised_ = 0;
    for (auto &slot : limiter_)
        slot.used = false;
}

} // namespace obs
} // namespace optimus
