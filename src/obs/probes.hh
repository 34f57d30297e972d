/**
 * @file
 * Compression-health probes and threshold alerts.
 *
 * Every lossy channel in the stack — PP backward channels, DP
 * PowerSGD buckets, the (exact) embedding sync, and the serving
 * boundary — can accumulate a CompressionHealth record while
 * probesEnabled() is on: wire-vs-exact ratio, relative
 * reconstruction error ‖g−ĝ‖/‖g‖, error-feedback residual norm,
 * and sampled compressed-vs-exact cosine similarity. Each component
 * keeps only the norm fields (one CompressionHealth probe, fed by
 * observe()); the byte and send fields are filled from the comm
 * ledger of the owner's Transport, so they reconcile with a
 * CommTrace of the same run exactly (integers, not estimates).
 *
 * Determinism contract: probes are bitwise-neutral observation.
 * They read tensors the channel already produced (fed inputs,
 * reconstructions, residuals), accumulate in double in a fixed
 * per-channel order, and never write back into the computation —
 * a probed run is bitwise identical to an unprobed run at every
 * OPTIMUS_THREADS / OPTIMUS_SIMD.
 *
 * Overhead contract: the norm passes cost extra sweeps over
 * gradient-sized data, so they run on a sampled cadence — every
 * OPTIMUS_PROBE_INTERVAL-th step (default 16, 1 = every step) via
 * probeActive(). Byte and send totals come from the comm ledger,
 * which counts every event on every step.
 *
 * Alerts: threshold crossings (relative error, gradient norm, loss
 * drift), checked by monitorThreshold(), raise rate-limited
 * obs::Alert records into a fixed-capacity AlertLog and bump the
 * obs.alerts counter. Raising allocates nothing, so the alert path
 * is legal inside the alloc_gate window.
 */

#ifndef OPTIMUS_OBS_PROBES_HH
#define OPTIMUS_OBS_PROBES_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace optimus
{
namespace obs
{

extern std::atomic<bool> g_probesEnabled;
extern std::atomic<bool> g_probeActive;

/** True while health probing is on (relaxed; hot-path gate). */
inline bool
probesEnabled()
{
    return g_probesEnabled.load(std::memory_order_relaxed);
}

/** Turn health probing on or off. */
void enableProbes(bool on);

/**
 * True when probes are on AND the current step is a sampled one —
 * the gate the expensive norm passes (‖g‖², ‖g−ĝ‖², cosine) of
 * CompressionHealth::observe() check.
 */
inline bool
probeActive()
{
    return g_probeActive.load(std::memory_order_relaxed);
}

/** Steps between two sampled steps (OPTIMUS_PROBE_INTERVAL,
 *  default 16; 1 probes every step). */
int probeInterval();

/** Override the sampling interval (tests, tools). Clamped to ≥1. */
void setProbeInterval(int steps);

/**
 * Arm or disarm probeActive() for the step that is about to run:
 * called once per training-step / serve-iteration boundary with the
 * step counter; the step is sampled when step % probeInterval()
 * == 0. Keeping the norm passes on a sampled cadence bounds the
 * telemetry overhead regardless of model size.
 */
void probeStepBegin(int64_t step);

/**
 * Resolve the telemetry env knobs once per process:
 * OPTIMUS_TELEMETRY=1 enables metrics + probes together,
 * OPTIMUS_PROBES=1 enables probes alone, and the threshold knobs
 * (see ProbeThresholds) override the defaults. Idempotent; called
 * from the trainer and serve-engine constructors.
 */
void initTelemetryFromEnv();

/** Σ a[i]² in double, fixed order. */
double l2NormSq(const float *a, size_t n);

/** Σ (a[i] − b[i])² in double, fixed order. */
double l2DiffNormSq(const float *a, const float *b, size_t n);

/**
 * Accumulated health of one compression channel. The send and byte
 * fields are ledger-owned: only Transport::health() sets
 * them, from the comm ledger (exact == what an uncompressed channel
 * would send), so a component's probe leaves them 0. Norm fields
 * accumulate squared L2 norms so merging channels composes
 * correctly.
 */
struct CompressionHealth
{
    /** Transport sends observed (compressed or not). */
    int64_t sends = 0;
    /** Sends whose compressor kind is not None. */
    int64_t compressedSends = 0;
    int64_t exactBytes = 0;
    int64_t wireBytes = 0;
    /** Σ ‖g‖² over compressed sends (error-fed input). */
    double inputNormSq = 0.0;
    /** Σ ‖g − ĝ‖² over compressed sends. */
    double errNormSq = 0.0;
    /** Current error-feedback residual ‖e‖² (last observation). */
    double residualNormSq = 0.0;
    /** Σ cos(g, ĝ) over sampled compressed sends. */
    double cosineSum = 0.0;
    int64_t cosineCount = 0;

    /**
     * Fold one compressed send's input @p input and reconstruction
     * @p recon (@p n floats each) into the norm fields — only on a
     * sampled step (probeActive()). Read-only, double accumulation
     * in call order, so values are thread-count independent.
     */
    void observe(const float *input, const float *recon, size_t n);

    /** Fold @p other's norm fields. The ledger-owned send and byte
     *  fields are left alone: merge probes, then set them once. */
    void merge(const CompressionHealth &other);

    /**
     * Per-window view: this (cumulative) health minus @p prev for
     * the accumulated fields, the ledger-owned ones included (both
     * are health() views). residualNormSq is state, not an
     * accumulation, so the current value carries over unchanged.
     */
    CompressionHealth delta(const CompressionHealth &prev) const;

    /** wire/exact byte ratio; 1 when the channel moved nothing. */
    double wireRatio() const;
    /** sqrt(errNormSq / inputNormSq); 0 when nothing compressed. */
    double relError() const;
    double residualNorm() const;
    /** Mean sampled cosine; 1 when nothing was sampled. */
    double meanCosine() const;
};

/** Alert taxonomy (see DESIGN.md §11). */
enum class AlertKind
{
    /** Channel relative reconstruction error above threshold. */
    RelError,
    /** Global gradient norm above threshold. */
    GradNorm,
    /** Loss rose above lossFactor × best-so-far. */
    LossDrift,
};

/** Stable display name of @p kind. */
const char *alertKindName(AlertKind kind);

/** One raised alert. The channel name is copied into a fixed
 *  buffer so raising never allocates. */
struct Alert
{
    int64_t step = 0;
    AlertKind kind = AlertKind::RelError;
    double value = 0.0;
    double threshold = 0.0;
    char channel[24] = {0};
};

/**
 * Probe thresholds, resolved from the environment once by
 * initTelemetryFromEnv() (tests may overwrite fields directly).
 * A threshold of 0 disables its monitor.
 */
struct ProbeThresholds
{
    /** OPTIMUS_PROBE_RELERR_MAX (default 0.95). */
    double relErrMax = 0.95;
    /** OPTIMUS_PROBE_GRADNORM_MAX (default 0 = off). */
    double gradNormMax = 0.0;
    /** OPTIMUS_PROBE_LOSS_FACTOR (default 0 = off): alert when
     *  loss exceeds factor × the best loss seen so far. */
    double lossFactor = 0.0;
    /** OPTIMUS_ALERT_INTERVAL (default 10): minimum steps between
     *  two alerts of the same (channel, kind). */
    int64_t alertIntervalSteps = 10;
};

/** The process-wide thresholds (mutable for tests). */
ProbeThresholds &probeThresholds();

/**
 * The one threshold monitor: raise a rate-limited alert for
 * @p channel / @p kind at @p step when @p value exceeds
 * @p threshold, or is NaN or infinite, and echo it to stderr (the
 * sanctioned step-summary line). A threshold <= 0 disables the
 * monitor. @return true when an alert was recorded.
 */
bool monitorThreshold(const char *channel, AlertKind kind,
                      int64_t step, double value, double threshold);

/**
 * Fixed-capacity alert sink. raise() is allocation-free: the ring
 * and the rate-limit table are preallocated, and channel names are
 * copied into fixed buffers.
 */
class AlertLog
{
  public:
    /** Retained alerts (older ones are evicted). */
    static constexpr int64_t kCapacity = 64;
    /** Distinct (channel, kind) rate-limit slots. */
    static constexpr size_t kLimitSlots = 64;

    static AlertLog &instance();

    /**
     * Record an alert unless one for the same (channel, kind) was
     * raised within alertIntervalSteps. @return true when the
     * alert was recorded (rate-limited calls return false).
     */
    bool raise(const char *channel, AlertKind kind, int64_t step,
               double value, double threshold);

    /** Alerts recorded over the log's lifetime. */
    int64_t raisedTotal() const;

    /** Retained alerts, oldest first. */
    std::vector<Alert> snapshot() const;

    /** Drop alerts and rate-limit state. */
    void reset();

  private:
    AlertLog();

    struct LimitSlot
    {
        char channel[24] = {0};
        AlertKind kind = AlertKind::RelError;
        int64_t lastStep = 0;
        bool used = false;
    };

    mutable std::mutex mutex_;
    std::array<Alert, kCapacity> ring_;
    int64_t raised_ = 0;
    std::array<LimitSlot, kLimitSlots> limiter_;
};

} // namespace obs
} // namespace optimus

#endif // OPTIMUS_OBS_PROBES_HH
