#include "nn/block.hh"

#include "util/logging.hh"

namespace optimus
{

TransformerBlock::TransformerBlock(const std::string &label,
                                   int64_t hidden, int64_t heads,
                                   int64_t seq_len, Rng &rng,
                                   float init_std)
    : label_(label),
      ln1_(std::make_unique<LayerNorm>(label + ".ln1", hidden)),
      attn_(std::make_unique<MultiHeadAttention>(label + ".attn",
                                                 hidden, heads, seq_len,
                                                 rng, init_std)),
      ln2_(std::make_unique<LayerNorm>(label + ".ln2", hidden)),
      fc1_(std::make_unique<Linear>(label + ".fc1", hidden, 4 * hidden,
                                    rng, init_std)),
      gelu_(std::make_unique<Gelu>()),
      fc2_(std::make_unique<Linear>(label + ".fc2", 4 * hidden, hidden,
                                    rng, init_std))
{
}

Tensor
TransformerBlock::forward(const Tensor &x)
{
    Tensor a = attn_->forward(ln1_->forward(x));
    Tensor r = add(x, a);
    Tensor m = fc2_->forward(gelu_->forward(fc1_->forward(
        ln2_->forward(r))));
    r.add(m);
    return r;
}

// optlint:hot — serving path (zero-allocation contract).
Tensor
TransformerBlock::forwardSegments(const Tensor &x,
                                  std::span<const KvSegment> segments,
                                  int64_t layer)
{
    OPTIMUS_ASSERT(mode() == Mode::Infer);
    Tensor a =
        attn_->forwardSegments(ln1_->forward(x), segments, layer);
    Tensor r = add(x, a);
    Tensor m = fc2_->forward(gelu_->forward(fc1_->forward(
        ln2_->forward(r))));
    r.add(m);
    return r;
}

void
TransformerBlock::setMode(Mode mode)
{
    Layer::setMode(mode);
    ln1_->setMode(mode);
    attn_->setMode(mode);
    ln2_->setMode(mode);
    fc1_->setMode(mode);
    gelu_->setMode(mode);
    fc2_->setMode(mode);
}

Tensor
TransformerBlock::backward(const Tensor &dy)
{
    // y = r + mlp(ln2(r)), r = x + attn(ln1(x)).
    Tensor dr = ln2_->backward(fc1_->backward(
        gelu_->backward(fc2_->backward(dy))));
    dr.add(dy);
    Tensor dx = ln1_->backward(attn_->backward(dr));
    dx.add(dr);
    return dx;
}

std::vector<ParamPtr>
TransformerBlock::params() const
{
    std::vector<ParamPtr> all;
    for (const Layer *layer :
         {static_cast<const Layer *>(ln1_.get()),
          static_cast<const Layer *>(attn_.get()),
          static_cast<const Layer *>(ln2_.get()),
          static_cast<const Layer *>(fc1_.get()),
          static_cast<const Layer *>(fc2_.get())}) {
        for (const auto &p : layer->params())
            all.push_back(p);
    }
    return all;
}

void
TransformerBlock::clearStash()
{
    ln1_->clearStash();
    attn_->clearStash();
    ln2_->clearStash();
    fc1_->clearStash();
    gelu_->clearStash();
    fc2_->clearStash();
}

size_t
TransformerBlock::stashDepth() const
{
    return fc2_->stashDepth();
}

} // namespace optimus
