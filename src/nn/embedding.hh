/**
 * @file
 * Token + position embedding and the tied-weight output head.
 *
 * GPT shares the token-embedding matrix between the input lookup
 * (first pipeline stage) and the output projection (last pipeline
 * stage). Under pipeline parallelism these become two *copies* on
 * different devices whose gradients must be synchronized -- exactly
 * the "embedding synchronization" traffic Optimus-CC's fused
 * embedding synchronization (Section 6) targets. Under monolithic
 * execution both layers can share one Param, and gradient
 * contributions accumulate naturally.
 */

#ifndef OPTIMUS_NN_EMBEDDING_HH
#define OPTIMUS_NN_EMBEDDING_HH

#include <cstdint>

#include "nn/layer.hh"
#include "util/random.hh"
#include "util/reuse_ring.hh"

namespace optimus
{

/**
 * Input embedding: tokens -> [batch*seq x hidden] activations, the
 * sum of a token embedding row and a learned position embedding row.
 * Not a Layer (its input is token ids, not a float tensor); the
 * pipeline engine calls it explicitly on the first stage.
 */
class EmbeddingLayer
{
  public:
    /**
     * @param label Parameter name prefix.
     * @param vocab Vocabulary size.
     * @param hidden Embedding width.
     * @param max_seq Maximum sequence length (position table size).
     * @param rng Init stream.
     * @param init_std Embedding init standard deviation.
     */
    EmbeddingLayer(const std::string &label, int64_t vocab,
                   int64_t hidden, int64_t max_seq, Rng &rng,
                   float init_std = 0.02f);

    /**
     * Look up a [batch x seq] token grid (row-major vector of ids).
     * @return [batch*seq x hidden] activations.
     */
    Tensor forward(const std::vector<int32_t> &tokens, int64_t batch,
                   int64_t seq);

    /**
     * Stashless lookup of @p n consecutive positions of one
     * sequence starting at position @p pos0 (the serving path:
     * prefill embeds the prompt at pos0 = 0, decode embeds the
     * newest token at pos0 = len - 1). Same per-row arithmetic as
     * forward(); never touches the stash.
     * @return [n x hidden] activations.
     */
    Tensor embedRows(const int32_t *tokens, int64_t n,
                     int64_t pos0) const;

    /**
     * embedRows() written into rows [row0, row0 + n) of @p out
     * ([rows x hidden]) instead of a fresh tensor: the serving
     * engine stacks every sequence's rows into one pass input.
     */
    void embedRowsInto(const int32_t *tokens, int64_t n, int64_t pos0,
                       Tensor &out, int64_t row0) const;

    /** Scatter-accumulate gradients for the oldest stashed batch. */
    void backward(const Tensor &dy);

    std::vector<ParamPtr> params() const;
    void clearStash() { stash_.clear(); }
    size_t stashDepth() const { return stash_.size(); }

    /** Token embedding table [vocab x hidden] (shared for tying). */
    ParamPtr tokenTable() const { return token_; }

    /** Position embedding table [max_seq x hidden]. */
    ParamPtr positionTable() const { return position_; }

    int64_t vocab() const { return token_->value.rows(); }
    int64_t hidden() const { return token_->value.cols(); }

  private:
    struct Stash
    {
        std::vector<int32_t> tokens;
        int64_t batch;
        int64_t seq;
    };

    ParamPtr token_;
    ParamPtr position_;
    ReuseRing<Stash> stash_;
};

/**
 * Output projection onto the vocabulary using the (tied) token
 * embedding table: logits = H * E^T. Holds a ParamPtr that is either
 * the very same object as the input embedding's table (monolithic /
 * single-stage execution) or a stage-local copy that the embedding
 * synchronization step keeps consistent (pipeline parallelism).
 */
class OutputHead : public Layer
{
  public:
    /** @param token_table [vocab x hidden] embedding parameter. */
    explicit OutputHead(ParamPtr token_table);

    Tensor forward(const Tensor &h) override;
    Tensor backward(const Tensor &dlogits) override;
    std::vector<ParamPtr> params() const override;
    std::string name() const override { return "output_head"; }
    void clearStash() override { stash_.clear(); }
    size_t stashDepth() const override { return stash_.size(); }

    ParamPtr tokenTable() const { return token_; }

  private:
    ParamPtr token_;
    ReuseRing<Tensor> stash_;
};

} // namespace optimus

#endif // OPTIMUS_NN_EMBEDDING_HH
