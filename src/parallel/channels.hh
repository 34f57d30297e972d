/**
 * @file
 * Inter-stage backward communication channel implementing compressed
 * backpropagation (Section 5): low-rank compression of activation
 * gradients with lazy error propagation (5.1) and epilogue-only
 * compression (5.2), plus the instrumentation needed to reproduce
 * Fig 11 (error / activation-difference independence).
 */

#ifndef OPTIMUS_PARALLEL_CHANNELS_HH
#define OPTIMUS_PARALLEL_CHANNELS_HH

#include <memory>
#include <vector>

#include "comm/transport.hh"
#include "compress/compressor.hh"
#include "compress/error_feedback.hh"
#include "obs/probes.hh"
#include "schedule/schedule.hh"

namespace optimus
{

/** Compressed-backpropagation configuration. */
struct CbConfig
{
    /** Compress inter-stage backward traffic at all. */
    bool enabled = false;
    /** Lazy error propagation across micro-batches (Section 5.1). */
    bool lazyErrorPropagation = true;
    /** Compress only epilogue messages (Section 5.2). */
    bool epilogueOnly = true;
    /**
     * Compression algorithm. The paper uses PowerSGD rank 16 on
     * Megatron-scale [8192 x 3072] boundary messages; the default
     * here is rank 4 because the miniature model's boundary
     * messages are tiny (hidden ~16-32 columns), and rank 4 keeps
     * PowerSGD in the same regime as the paper's rank 16 at scale —
     * capturing most of the gradient energy per message while still
     * cutting the payload several-fold (rank 16 would be clamped to
     * min(rows, cols) and compress almost nothing). The perf-side
     * presets use the paper's rank 16 (see core/presets.hh).
     */
    CompressorSpec spec{CompressorKind::PowerSgd, 4, 0.01, 1};
};

/** Per-send record for Fig 11-style analysis. */
struct ChannelSendStats
{
    int microBatch = 0;
    bool compressed = false;
    /** Mean of the compression error elements. */
    double errorMean = 0.0;
    /** Mean of (Y^(m) - Y^(m+1)) elements at this boundary. */
    double activationDiffMean = 0.0;
    /** cos(error, activation difference). */
    double cosine = 0.0;
};

/**
 * The backward channel from @p stage to @p stage-1 of one
 * data-parallel replica. Holds the channel-local compressor state
 * (warm-started PowerSGD Q and the lazily propagated error vector).
 */
class BackwardChannel
{
  public:
    /**
     * @param config Compression policy.
     * @param stages Pipeline depth P.
     * @param stage Sending stage s (receiver is s-1); s >= 1.
     * @param seed Channel-local compressor seed.
     * @param transport Transport the channel's sends go through
     *        (defaultTransport() when null).
     * @param replica Data-parallel replica tag for trace events.
     */
    BackwardChannel(const CbConfig &config, int stages, int stage,
                    uint64_t seed, Transport *transport = nullptr,
                    int replica = 0);

    /**
     * Transmit the activation gradient of @p micro_batch (out of
     * @p micro_batches). Applies the epilogue-only policy, lazy
     * error propagation, and compression; returns what the receiver
     * reconstructs.
     */
    Tensor send(const Tensor &grad, int micro_batch, int micro_batches);

    /**
     * Record the *forward* activation crossing this boundary for
     * micro-batch @p micro_batch (used for Fig 11 activation
     * differences). Only retained when instrumentation is enabled.
     */
    void observeForward(const Tensor &activation, int micro_batch);

    /** Enable per-send statistics collection. */
    void enableInstrumentation(bool on) { instrument_ = on; }

    /** Collected per-send statistics (instrumentation only). */
    const std::vector<ChannelSendStats> &sendStats() const
    {
        return stats_;
    }

    /**
     * Accumulated compression health (norm fields only; the trainer
     * fills the send and byte fields from its comm ledger): norms
     * accumulate over compressed sends on sampled steps, and the
     * residual norm reflects the current stored error. Purely
     * observational — never read back into the computation.
     */
    obs::CompressionHealth health() const;

    /** Stored lazy-propagation error (for tests / memory model). */
    const Tensor &storedError() const { return lep_.residual(); }

    /** Bytes of the stored lazy-propagation error buffer. */
    int64_t errorBufferBytes() const
    {
        return static_cast<int64_t>(sizeof(float)) *
               lep_.residual().size();
    }

    /** Bytes of persistent compressor state (warm-start Q). */
    int64_t compressorStateBytes() const
    {
        return compressor_->stateBytes();
    }

    /** Reset the probe, stats, stored error, and compressor state. */
    void reset();

    int stage() const { return stage_; }

  private:
    CbConfig config_;
    int stages_;
    int stage_;
    Transport *transport_;
    int replica_;
    /** The channel's seeded spec, reported in compressed events. */
    CompressorSpec seededSpec_;
    std::unique_ptr<Compressor> compressor_;
    /** Lazily propagated error (stays empty with LEP off). */
    ErrorFeedback lep_;
    bool instrument_ = false;
    std::vector<ChannelSendStats> stats_;
    Tensor prevForward_;
    Tensor forwardDiff_;
    bool haveForwardDiff_ = false;
    /** Norm probe over compressed sends (see health()). */
    obs::CompressionHealth probe_;
};

} // namespace optimus

#endif // OPTIMUS_PARALLEL_CHANNELS_HH
