/**
 * @file
 * Causal multi-head self-attention with hand-written backward.
 * Operates on [batch*seq x hidden] activations; the sequence length
 * is fixed at construction, and the batch size is derived per call.
 *
 * Mode::Train runs each (batch, head) pair as strided GEMMs
 * (gemmStrided, matmul.hh) on views: q, k and v are read in place
 * from the fused qkv activation (rows 3*hidden apart), the upstream
 * gradient of a head from the context gradient, and the head's
 * context and dq/dk/dv accumulate straight into their zeroed
 * column blocks of the [N x hidden] / [N x 3*hidden] outputs. No
 * per-head block is copied out or added back.
 *
 * Mode::Infer adds per-sequence KV caches: forwardSegments() takes
 * a stacked input holding consecutive rows of several sequences,
 * runs the qkv and output projections once over all of them (the
 * same batch-invariant GEMM training uses), appends each
 * sequence's keys/values to its own cache, and attends each new row
 * against its own cache with per-row kernels (simd::dotRowsScaled
 * scores, a std::exp softmax, simd::weightedRowSum's j-ascending
 * context). A row's bits
 * depend only on its position and its sequence's cache, so prefill
 * (R = S rows), single-token decode (R = 1) and any stacking of
 * sequences agree position by position — which is what makes
 * incremental, batched decode bitwise equal to full-sequence
 * recompute at every SIMD tier.
 */

#ifndef OPTIMUS_NN_ATTENTION_HH
#define OPTIMUS_NN_ATTENTION_HH

#include <memory>
#include <span>

#include "nn/layer.hh"
#include "nn/linear.hh"
#include "util/reuse_ring.hh"

namespace optimus
{

/**
 * Per-sequence, per-layer key/value cache. Rows are positions; the
 * column layout matches the fused qkv projection's k/v slices (all
 * heads concatenated, head hd at columns [hd*dh, (hd+1)*dh)).
 * ensure() draws the tensors from the active workspace scope, so a
 * serving slot's cache recycles its blocks across requests.
 */
struct KvCache
{
    Tensor k; // [capacity x hidden]
    Tensor v; // [capacity x hidden]
    int64_t len = 0;

    /** Ensure capacity for @p capacity positions of width @p hidden;
     *  existing contents are discarded. */
    void ensure(int64_t capacity, int64_t hidden);

    /** Forget all cached positions (capacity stays). */
    void clear() { len = 0; }

    int64_t capacity() const
    {
        return k.rank() == 2 ? k.rows() : 0;
    }
};

/**
 * One sequence's slice of a stacked Infer pass: `rows` consecutive
 * rows of the pass input (the sequence's next positions, in order)
 * and its caches. `kv` points at one cache per block of the stage
 * that runs the pass; block `layer` of that stage uses kv[layer].
 */
struct KvSegment
{
    KvCache *kv = nullptr;
    int64_t rows = 0;
};

/**
 * y = proj(concat_h softmax(mask(Q_h K_h^T / sqrt(d_h))) V_h), with
 * Q,K,V produced by one fused [hidden -> 3*hidden] projection as in
 * GPT-2/Megatron.
 */
class MultiHeadAttention : public Layer
{
  public:
    /**
     * @param label Parameter name prefix.
     * @param hidden Model width (must divide by @p heads).
     * @param heads Attention head count.
     * @param seq_len Fixed sequence length for the causal mask.
     * @param rng Init stream.
     * @param init_std Weight init standard deviation.
     */
    MultiHeadAttention(const std::string &label, int64_t hidden,
                       int64_t heads, int64_t seq_len, Rng &rng,
                       float init_std = 0.02f);

    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<ParamPtr> params() const override;
    std::string name() const override;
    void clearStash() override;
    size_t stashDepth() const override { return stash_.size(); }
    void setMode(Mode mode) override;

    /**
     * Incremental attention (Infer mode only): append @p x's rows
     * (positions cache.len .. cache.len + R - 1 of one sequence) to
     * @p cache and attend each against the cache prefix up to and
     * including itself. Stateless w.r.t. the layer, so one instance
     * serves concurrent sequences (each with its own cache).
     * @return [R x hidden] context projection.
     */
    Tensor forwardCached(const Tensor &x, KvCache &cache);

    /**
     * Stacked incremental attention (Infer mode only): @p x holds
     * the segments' rows back to back; segment s's rows are
     * appended to segments[s].kv[layer] and attended against it.
     * forwardCached() is the one-segment case.
     * @return [R x hidden] context projection, rows in input order.
     */
    Tensor forwardSegments(const Tensor &x,
                           std::span<const KvSegment> segments,
                           int64_t layer);

    int64_t hidden() const { return hidden_; }
    int64_t heads() const { return heads_; }
    int64_t headDim() const { return hidden_ / heads_; }
    int64_t seqLen() const { return seqLen_; }

  private:
    struct Stash
    {
        Tensor qkv;                 // [N x 3*hidden]
        std::vector<Tensor> probs;  // per (batch, head): [S x S]
        int64_t batch;
    };

    int64_t hidden_;
    int64_t heads_;
    int64_t seqLen_;
    std::unique_ptr<Linear> qkv_;
    std::unique_ptr<Linear> proj_;
    ReuseRing<Stash> stash_;
};

} // namespace optimus

#endif // OPTIMUS_NN_ATTENTION_HH
