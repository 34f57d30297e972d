#include "parallel/channels.hh"

#include "util/logging.hh"
#include "util/stats.hh"

namespace optimus
{

BackwardChannel::BackwardChannel(const CbConfig &config, int stages,
                                 int stage, uint64_t seed,
                                 Transport *transport, int replica)
    : config_(config), stages_(stages), stage_(stage),
      transport_(transport ? transport : &defaultTransport()),
      replica_(replica)
{
    OPTIMUS_ASSERT(stage >= 1 && stage < stages);
    seededSpec_ = config.spec;
    seededSpec_.seed = seed;
    compressor_ = makeCompressor(seededSpec_);
}

void
BackwardChannel::observeForward(const Tensor &activation,
                                int micro_batch)
{
    if (!instrument_)
        return;
    if (micro_batch > 0 && prevForward_.size() == activation.size()) {
        forwardDiff_ = prevForward_;
        forwardDiff_.sub(activation);
        haveForwardDiff_ = true;
    } else {
        haveForwardDiff_ = false;
    }
    prevForward_ = activation;
}

// optlint:hot — steady-state step path (zero-allocation contract).
Tensor
BackwardChannel::send(const Tensor &grad, int micro_batch,
                      int micro_batches)
{
    const int64_t exact_bytes =
        static_cast<int64_t>(sizeof(float)) * grad.size();

    if (!config_.enabled) {
        transport_->p2pSend(CommPhase::InterStage, stage_, stage_ - 1,
                            replica_, exact_bytes, exact_bytes,
                            CompressorSpec{});
        return grad;
    }

    const bool compress_this =
        !config_.epilogueOnly ||
        isEpilogueBackward(stages_, micro_batches, stage_,
                           micro_batch);

    // Fold the lazily propagated error into this message, in the
    // residual's storage; with LEP off nothing is carried and the
    // gradient itself is the message.
    const bool lep = config_.lazyErrorPropagation;
    const Tensor &fed = lep ? lep_.fold(grad) : grad;

    Tensor delivered;
    if (compress_this) {
        const int64_t wire_bytes =
            compressor_->compress(fed, delivered);
        transport_->p2pSend(CommPhase::InterStage, stage_, stage_ - 1,
                            replica_, exact_bytes, wire_bytes,
                            seededSpec_);
        probe_.observe(fed.data(), delivered.data(),
                       static_cast<size_t>(fed.size()));
        if (lep)
            lep_.update(delivered);
    } else {
        // Uncompressed message: delivered exactly; any folded-in
        // error is thereby resolved losslessly. clear() keeps the
        // residual's storage for the next fold.
        transport_->p2pSend(CommPhase::InterStage, stage_, stage_ - 1,
                            replica_, exact_bytes, exact_bytes,
                            CompressorSpec{});
        delivered = fed;
        lep_.clear();
    }

    if (instrument_ && compress_this) {
        ChannelSendStats rec;
        rec.microBatch = micro_batch;
        rec.compressed = true;
        Tensor err = grad;
        if (lep) {
            // After update() the residual holds fed - delivered ==
            // the full compression error; report it as the per-send
            // error.
            err = lep_.residual();
        } else {
            err.sub(delivered);
        }
        rec.errorMean = mean(err.data(), err.size());
        if (haveForwardDiff_ &&
            forwardDiff_.size() == err.size()) {
            rec.activationDiffMean =
                mean(forwardDiff_.data(), forwardDiff_.size());
            rec.cosine = cosineSimilarity(err.data(),
                                          forwardDiff_.data(),
                                          err.size());
        }
        // optlint:coldalloc — instrument_-gated diagnostics; off in
        // steady-state training runs (and in the alloc_gate).
        stats_.push_back(rec);
    }
    return delivered;
}

obs::CompressionHealth
BackwardChannel::health() const
{
    obs::CompressionHealth h = probe_;
    h.residualNormSq =
        obs::l2NormSq(lep_.residual().data(),
                      static_cast<size_t>(lep_.residual().size()));
    return h;
}

void
BackwardChannel::reset()
{
    lep_.clear();
    compressor_->reset();
    stats_.clear();
    prevForward_ = Tensor();
    forwardDiff_ = Tensor();
    haveForwardDiff_ = false;
    probe_ = obs::CompressionHealth{};
}

} // namespace optimus
