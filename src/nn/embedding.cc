#include "nn/embedding.hh"

#include "tensor/matmul.hh"
#include "util/logging.hh"

namespace optimus
{

EmbeddingLayer::EmbeddingLayer(const std::string &label, int64_t vocab,
                               int64_t hidden, int64_t max_seq, Rng &rng,
                               float init_std)
    : token_(std::make_shared<Param>(
          label + ".token",
          Tensor::randn({vocab, hidden}, rng, 0.0f, init_std))),
      position_(std::make_shared<Param>(
          label + ".position",
          Tensor::randn({max_seq, hidden}, rng, 0.0f, init_std)))
{
}

Tensor
EmbeddingLayer::forward(const std::vector<int32_t> &tokens,
                        int64_t batch, int64_t seq)
{
    OPTIMUS_ASSERT(static_cast<int64_t>(tokens.size()) == batch * seq);
    OPTIMUS_ASSERT(seq <= position_->value.rows());
    const int64_t h = hidden();
    const int64_t v = vocab();

    Tensor y({batch * seq, h});
    const float *tok = token_->value.data();
    const float *pos = position_->value.data();
    float *yd = y.data();
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t s = 0; s < seq; ++s) {
            const int64_t row = b * seq + s;
            const int32_t id = tokens[row];
            OPTIMUS_ASSERT(id >= 0 && id < v);
            const float *trow = tok + static_cast<int64_t>(id) * h;
            const float *prow = pos + s * h;
            float *yrow = yd + row * h;
            for (int64_t j = 0; j < h; ++j)
                yrow[j] = trow[j] + prow[j];
        }
    }
    // Assign into the ring slot (token vector capacity reused).
    Stash &st = stash_.pushSlot();
    st.tokens = tokens;
    st.batch = batch;
    st.seq = seq;
    return y;
}

Tensor
EmbeddingLayer::embedRows(const int32_t *tokens, int64_t n,
                          int64_t pos0) const
{
    Tensor y({n, hidden()});
    embedRowsInto(tokens, n, pos0, y, 0);
    return y;
}

// optlint:hot — serving path (zero-allocation contract).
void
EmbeddingLayer::embedRowsInto(const int32_t *tokens, int64_t n,
                              int64_t pos0, Tensor &out,
                              int64_t row0) const
{
    OPTIMUS_ASSERT(n >= 1 && pos0 >= 0);
    OPTIMUS_ASSERT(pos0 + n <= position_->value.rows());
    const int64_t h = hidden();
    const int64_t v = vocab();
    OPTIMUS_ASSERT(out.rank() == 2 && out.cols() == h);
    OPTIMUS_ASSERT(row0 >= 0 && row0 + n <= out.rows());

    const float *tok = token_->value.data();
    const float *pos = position_->value.data();
    float *yd = out.data() + row0 * h;
    for (int64_t i = 0; i < n; ++i) {
        const int32_t id = tokens[i];
        OPTIMUS_ASSERT(id >= 0 && id < v);
        const float *trow = tok + static_cast<int64_t>(id) * h;
        const float *prow = pos + (pos0 + i) * h;
        float *yrow = yd + i * h;
        for (int64_t j = 0; j < h; ++j)
            yrow[j] = trow[j] + prow[j];
    }
}

void
EmbeddingLayer::backward(const Tensor &dy)
{
    OPTIMUS_ASSERT(!stash_.empty());
    const Stash &st = stash_.front();

    const int64_t h = hidden();
    OPTIMUS_ASSERT(dy.rank() == 2 && dy.cols() == h);
    OPTIMUS_ASSERT(dy.rows() == st.batch * st.seq);

    const float *dyd = dy.data();
    float *dtok = token_->grad.data();
    float *dpos = position_->grad.data();
    for (int64_t b = 0; b < st.batch; ++b) {
        for (int64_t s = 0; s < st.seq; ++s) {
            const int64_t row = b * st.seq + s;
            const int32_t id = st.tokens[row];
            const float *drow = dyd + row * h;
            float *trow = dtok + static_cast<int64_t>(id) * h;
            float *prow = dpos + s * h;
            for (int64_t j = 0; j < h; ++j) {
                trow[j] += drow[j];
                prow[j] += drow[j];
            }
        }
    }
    stash_.popFront();
}

std::vector<ParamPtr>
EmbeddingLayer::params() const
{
    return {token_, position_};
}

OutputHead::OutputHead(ParamPtr token_table)
    : token_(std::move(token_table))
{
    OPTIMUS_ASSERT(token_ != nullptr && token_->value.rank() == 2);
}

// optlint:hot — steady-state step and serving path (zero-allocation
// contract).
Tensor
OutputHead::forward(const Tensor &h)
{
    OPTIMUS_ASSERT(h.rank() == 2 && h.cols() == token_->value.cols());
    Tensor logits = matmulNT(h, token_->value); // [N x vocab]
    if (mode() == Mode::Train)
        stash_.pushSlot() = h;
    return logits;
}

Tensor
OutputHead::backward(const Tensor &dlogits)
{
    OPTIMUS_ASSERT(mode() == Mode::Train);
    OPTIMUS_ASSERT(!stash_.empty());
    const Tensor &h = stash_.front();

    // dE += dlogits^T * H;  dH = dlogits * E.
    matmulAccTN(token_->grad, dlogits, h);
    Tensor dh = matmul(dlogits, token_->value);
    stash_.popFront();
    return dh;
}

std::vector<ParamPtr>
OutputHead::params() const
{
    return {token_};
}

} // namespace optimus
