/**
 * @file
 * Pre-norm transformer block (GPT-2 style):
 *   x -> x + attn(ln1(x)) -> r + mlp(ln2(r))
 * with mlp = Linear(h, 4h) -> GELU -> Linear(4h, h).
 */

#ifndef OPTIMUS_NN_BLOCK_HH
#define OPTIMUS_NN_BLOCK_HH

#include <memory>
#include <span>

#include "nn/activation.hh"
#include "nn/attention.hh"
#include "nn/layer.hh"
#include "nn/layernorm.hh"
#include "nn/linear.hh"

namespace optimus
{

/** One residual transformer block. */
class TransformerBlock : public Layer
{
  public:
    /**
     * @param label Parameter name prefix (e.g. "block3").
     * @param hidden Model width.
     * @param heads Attention heads.
     * @param seq_len Fixed sequence length.
     * @param rng Init stream.
     * @param init_std Weight init standard deviation.
     */
    TransformerBlock(const std::string &label, int64_t hidden,
                     int64_t heads, int64_t seq_len, Rng &rng,
                     float init_std = 0.02f);

    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<ParamPtr> params() const override;
    std::string name() const override { return label_; }
    void clearStash() override;
    size_t stashDepth() const override;
    void setMode(Mode mode) override;

    /**
     * Stacked incremental forward (Infer mode only): the block's
     * usual pre-norm residual dataflow over every segment's rows at
     * once, with only the attention core split per segment (see
     * MultiHeadAttention::forwardSegments; this block is
     * @p layer of its stage).
     * @return [R x hidden] activations for the new rows.
     */
    Tensor forwardSegments(const Tensor &x,
                           std::span<const KvSegment> segments,
                           int64_t layer);

  private:
    std::string label_;
    std::unique_ptr<LayerNorm> ln1_;
    std::unique_ptr<MultiHeadAttention> attn_;
    std::unique_ptr<LayerNorm> ln2_;
    std::unique_ptr<Linear> fc1_;
    std::unique_ptr<Gelu> gelu_;
    std::unique_ptr<Linear> fc2_;
};

} // namespace optimus

#endif // OPTIMUS_NN_BLOCK_HH
