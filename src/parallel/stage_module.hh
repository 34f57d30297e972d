/**
 * @file
 * One pipeline stage's slice of the miniature GPT. Stage 0 owns the
 * input embedding; the last stage owns the final norm, the output
 * head, and -- when there is more than one stage -- its *own copy*
 * of the token embedding table (Megatron-style weight tying across
 * pipeline stages), which is what makes embedding synchronization
 * traffic exist in the first place.
 */

#ifndef OPTIMUS_PARALLEL_STAGE_MODULE_HH
#define OPTIMUS_PARALLEL_STAGE_MODULE_HH

#include <memory>
#include <span>
#include <vector>

#include "nn/gpt.hh"

namespace optimus
{

/** The model slice executed by one (data-parallel, stage) replica. */
class StageModule
{
  public:
    /**
     * Deterministically construct the slice for @p stage of
     * @p num_stages. Blocks are assigned contiguously
     * (config.layers must divide evenly by num_stages). Initial
     * weights are bit-identical to the corresponding slice of a
     * monolithic GptModel with the same config.
     */
    StageModule(const GptConfig &config, int stage, int num_stages);

    /** Stage-0 entry: token lookup then this stage's blocks. */
    Tensor forwardTokens(const std::vector<int32_t> &tokens,
                         int64_t batch);

    /** Non-first-stage entry: blocks (+ final norm & head if last). */
    Tensor forwardHidden(const Tensor &h);

    /**
     * Backward through this stage's layers.
     * @param dy Gradient of this stage's output (for the last
     *        stage: gradient of the logits).
     * @return gradient of this stage's input activations.
     */
    Tensor backwardHidden(const Tensor &dy);

    /** Stage-0 epilogue: scatter gradients into the embedding. */
    void backwardTokens(const Tensor &dx);

    /** Unique trainable parameters of this slice. */
    std::vector<ParamPtr> params() const;

    /**
     * The token-embedding table this stage holds, or nullptr: the
     * lookup table on stage 0, the tied head table on the last
     * stage (the same object when num_stages == 1).
     */
    ParamPtr embeddingTable() const;

    /** Position table (stage 0 only, else nullptr). */
    ParamPtr positionTable() const;

    bool isFirst() const { return stage_ == 0; }
    bool isLast() const { return stage_ == numStages_ - 1; }
    int stage() const { return stage_; }

    /** Hidden width (activation feature count at the boundary). */
    int64_t hidden() const { return config_.hidden; }

    /** Drop all stashed activations. */
    void clearStash();

    // --- Forward-only (serving) entries -------------------------
    //
    // The same stage boundaries as training, in Mode::Infer: no
    // stashes, KV-cached attention, and the training GEMM for every
    // row-wise layer. A pass may stack several sequences' rows
    // (KvSegment); the caller owns one KvCache per block per
    // sequence and hands this stage its slice (numBlocks() caches
    // per sequence).

    /** Switch every owned layer's execution mode (see layer.hh). */
    void setMode(Mode mode);

    /** Blocks owned by this stage. */
    int64_t numBlocks() const
    {
        return static_cast<int64_t>(blocks_.size());
    }

    /**
     * Stashless embedding of @p n consecutive tokens of one
     * sequence starting at position @p pos0 (first stage only).
     */
    Tensor inferEmbed(const int32_t *tokens, int64_t n,
                      int64_t pos0) const;

    /** inferEmbed() written into rows [row0, row0 + n) of @p out. */
    void inferEmbedInto(const int32_t *tokens, int64_t n, int64_t pos0,
                        Tensor &out, int64_t row0) const;

    /**
     * Run this stage's blocks over one sequence's rows @p h with
     * per-block KV caches (Infer mode only). @p caches points at
     * numBlocks() caches. The one-segment case of the overload
     * below.
     * @return boundary activations [R x hidden].
     */
    Tensor inferBlocks(const Tensor &h, KvCache *caches);

    /**
     * Run this stage's blocks once over a stacked pass: @p h holds
     * every segment's rows back to back, and segments[s].kv points
     * at sequence s's numBlocks() caches for this stage. Row-wise
     * layers run once over all rows; attention splits per segment.
     * @return boundary activations [R x hidden], rows in input
     *         order.
     */
    Tensor inferBlocks(const Tensor &h,
                       std::span<const KvSegment> segments);

    /** Last-stage epilogue: final norm + tied head, stashless.
     *  @return logits [R x vocab]. */
    Tensor inferLogits(const Tensor &h);

  private:
    GptConfig config_;
    int stage_;
    int numStages_;
    std::unique_ptr<EmbeddingLayer> embedding_;   // first stage
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    std::unique_ptr<LayerNorm> finalNorm_;        // last stage
    std::unique_ptr<OutputHead> head_;            // last stage
};

} // namespace optimus

#endif // OPTIMUS_PARALLEL_STAGE_MODULE_HH
