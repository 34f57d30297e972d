/**
 * @file
 * Continuous-batching serving engine over the forward-only pipeline
 * (DESIGN.md section 10).
 *
 * The engine instantiates the *training* stage partition
 * (StageModule over the same contiguous block boundaries) in
 * Mode::Infer and runs scheduler rounds over a slot table of
 * in-flight sequences. Each step() is one round:
 *
 *   retire   — finished sequences leave their slots and fire the
 *              completion callback;
 *   admit    — pending requests claim free slots under the
 *              max-batch-tokens budget;
 *   prefill  — one stacked pass over every prompt admitted this
 *              round (one segment of promptLen rows each) produces
 *              their first tokens;
 *   decode   — one stacked pass over every other active sequence
 *              (one row each) advances it by one token.
 *
 * A pass is Orca-style selective batching (Yu et al., OSDI'22): the
 * stage-0 embedding writes every segment's rows into one stacked
 * [rows x hidden] tensor, every row-wise layer (LayerNorm, qkv,
 * projection, MLP, final norm, head) runs once per layer over it
 * through the training GEMM, and only the attention core splits per
 * sequence against its own KvCache. The stacked activations cross
 * each stage boundary through comm::Transport as one InterStage
 * p2pSend per pass — optionally through a lossy Compressor, which
 * then sees one compress() per pass — so serving traffic lands in
 * the same CommEvent stream, obs spans, and metrics the trainer
 * uses.
 *
 * Determinism: the GEMM is batch invariant (a row's bits never
 * depend on how many rows share the call) and attention is per
 * sequence, so a sequence's token stream is a pure function of its
 * prompt — bitwise identical whether it is decoded alone, stacked
 * with any other sequences, or admitted in any interleaving (with
 * an exact boundary, CompressorKind::None; lossy boundary
 * compression deliberately trades this away). Greedy sampling
 * breaks argmax ties toward the lowest token id.
 *
 * Memory: KV caches are drawn from each slot's workspace arena and
 * every pass tensor from the engine's step arena; the per-pass
 * segment list lives in a vector sized at construction. Steady-state
 * rounds therefore make zero heap allocations once the slots are
 * warm (alloc_gate --serve enforces this).
 */

#ifndef OPTIMUS_SERVE_ENGINE_HH
#define OPTIMUS_SERVE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/transport.hh"
#include "compress/compressor.hh"
#include "obs/probes.hh"
#include "parallel/stage_module.hh"
#include "serve/sequence.hh"
#include "util/reuse_ring.hh"
#include "util/stats.hh"

namespace optimus
{
namespace serve
{

/** Engine construction parameters. */
struct ServeConfig
{
    GptConfig model;
    /** Pipeline depth; model.layers must divide evenly. */
    int pipelineStages = 1;
    /** Batch slot count (concurrently decoding sequences). */
    int64_t maxSequences = 8;
    /**
     * Token budget of one scheduler round: each decoding sequence
     * costs 1, admitting a prompt costs its length. Admission that
     * would exceed the budget waits — unless nothing is running,
     * so an oversized prompt still makes progress alone.
     */
    int64_t maxBatchTokens = 64;
    /**
     * Inter-stage activation compressor. Kind None transfers
     * exactly (the bitwise-determinism configuration); lossy kinds
     * compress each pass's stacked boundary activations and decode
     * from the reconstruction.
     */
    CompressorSpec boundary{};
    /** Transport the boundary sends go through, ledger included
     *  (e.g. a recording Transport for volume tests); null gives
     *  the engine a private one. */
    Transport *transport = nullptr;
};

/** Continuous-batching greedy-decode engine (see the file comment). */
class ServeEngine
{
  public:
    using FinishFn = std::function<void(const FinishedRequest &)>;

    explicit ServeEngine(const ServeConfig &config);

    /** Called at retirement, before the slot is recycled. */
    void setFinishCallback(FinishFn fn) { onFinish_ = std::move(fn); }

    /**
     * Enqueue a request. @p prompt must be non-empty and
     * prompt.size() + max_new_tokens must fit the model's seqLen.
     * @return the request id (also reported at completion).
     */
    int64_t submit(const std::vector<int32_t> &prompt,
                   int64_t max_new_tokens);

    /**
     * One scheduler round: retire, admit, decode. Every active
     * sequence produces exactly one token (admitted ones from their
     * prefill). @return tokens produced this round.
     */
    int64_t step();

    /** step() until no request is pending or in flight. */
    void drain();

    /** True when no request is pending or in flight. */
    bool idle() const;

    int64_t activeSequences() const;
    int64_t pendingRequests() const
    {
        return static_cast<int64_t>(pending_.size());
    }
    int64_t completedRequests() const { return completed_; }
    int64_t tokensGenerated() const { return tokensGenerated_; }
    int64_t iterations() const { return iteration_; }

    /** Per-request submit-to-retire latency in microseconds
     *  (always on, independent of obs metrics). */
    const Log2Histogram &latencyUs() const { return latencyUs_; }

    /**
     * Cumulative compression health of the boundary transfers.
     * Send and byte fields are the InterStage entry of the ledger
     * of the engine's transport; norm and cosine fields
     * accumulate only while obs::probesEnabled() and the boundary
     * is lossy.
     */
    obs::CompressionHealth boundaryHealth() const;

    const ServeConfig &config() const { return config_; }

  private:
    void retireFinished();
    /** Admit pending requests into free slots under @p budget
     *  (decremented by each admitted prompt's length), recording
     *  them in admittedSlots_. @return their summed prompt rows. */
    int64_t admitPending(int64_t &budget);
    /** One stacked pass through every stage over the sequences in
     *  @p slot_idx, each contributing the rows its caches have not
     *  seen; appends one generated token to each. */
    void runPass(const std::vector<int64_t> &slot_idx);
    /** Account (and optionally compress, reconstructing in place)
     *  one boundary transfer of @p acts out of @p src_stage. */
    void boundaryTransfer(int src_stage, Tensor &acts);
    /** One ring-sample + boundary-health + monitor pass at the end
     *  of a scheduler round. */
    void sampleTelemetry(int64_t produced, double step_seconds);

    ServeConfig config_;
    int64_t blocksPerStage_;

    /** Arena for pass tensors; declared before every member that
     *  may hold one of its tensors. */
    std::unique_ptr<Workspace> stepArena_;
    std::vector<std::unique_ptr<StageModule>> stages_;
    /** One stateful channel per stage boundary (empty when the
     *  boundary spec is kind None). */
    std::vector<std::unique_ptr<Compressor>> boundaryCompressors_;
    /** Reconstruction target reused across boundary transfers. */
    Tensor boundaryRecon_;
    /** The engine's own transport when the config names none. */
    std::unique_ptr<Transport> ownedTransport_;
    /** config_.transport or ownedTransport_: its ledger is the one
     *  boundaryHealth() reads. */
    Transport *transport_;

    std::vector<Sequence> slots_;
    ReuseRing<PendingRequest> pending_;
    /** Slot indices decoding this round (capacity = maxSequences). */
    std::vector<int64_t> decodeSlots_;
    /** Slot indices admitted this round (capacity = maxSequences). */
    std::vector<int64_t> admittedSlots_;
    /** One pass's segments, by position in the pass's slot list
     *  (size maxSequences). */
    std::vector<KvSegment> segments_;

    FinishFn onFinish_;
    Log2Histogram latencyUs_;
    /** Boundary norm probe (see boundaryHealth()). */
    obs::CompressionHealth boundaryProbe_;
    /** Previous-round cumulative health (per-round ring deltas). */
    obs::CompressionHealth boundaryHealthPrev_;
    int64_t nextId_ = 1;
    int64_t iteration_ = 0;
    int64_t completed_ = 0;
    int64_t tokensGenerated_ = 0;
};

/**
 * Reference greedy decoder: a single-stage Infer pipeline that
 * recomputes the full prefix from scratch for every generated token
 * (fresh KV caches each time). The serving engine's incremental
 * batched decode must match this bitwise for every request when the
 * boundary is exact — this is the oracle the equivalence tests and
 * the alloc-gate compare against.
 *
 * @return the generated tokens (prompt excluded).
 */
std::vector<int32_t>
referenceGreedyDecode(const GptConfig &config,
                      const std::vector<int32_t> &prompt,
                      int64_t max_new_tokens);

} // namespace serve
} // namespace optimus

#endif // OPTIMUS_SERVE_ENGINE_HH
