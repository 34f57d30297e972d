#include "nn/attention.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "runtime/runtime.hh"
#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

void
KvCache::ensure(int64_t capacity, int64_t hidden)
{
    if (k.rank() != 2 || k.rows() < capacity || k.cols() != hidden) {
        k = Tensor({capacity, hidden});
        v = Tensor({capacity, hidden});
    }
    len = 0;
}

MultiHeadAttention::MultiHeadAttention(const std::string &label,
                                       int64_t hidden, int64_t heads,
                                       int64_t seq_len, Rng &rng,
                                       float init_std)
    : hidden_(hidden), heads_(heads), seqLen_(seq_len),
      qkv_(std::make_unique<Linear>(label + ".qkv", hidden, 3 * hidden,
                                    rng, init_std)),
      proj_(std::make_unique<Linear>(label + ".proj", hidden, hidden,
                                     rng, init_std))
{
    OPTIMUS_ASSERT(hidden % heads == 0);
    OPTIMUS_ASSERT(seq_len >= 1);
}

void
MultiHeadAttention::setMode(Mode mode)
{
    Layer::setMode(mode);
    qkv_->setMode(mode);
    proj_->setMode(mode);
}

// optlint:hot — serving path (zero-allocation contract).
Tensor
MultiHeadAttention::forwardCached(const Tensor &x, KvCache &cache)
{
    const KvSegment segment{&cache, x.rows()};
    return forwardSegments(x, {&segment, 1}, 0);
}

// optlint:hot — serving path (zero-allocation contract).
Tensor
MultiHeadAttention::forwardSegments(const Tensor &x,
                                    std::span<const KvSegment> segments,
                                    int64_t layer)
{
    OPTIMUS_ASSERT(mode() == Mode::Infer);
    OPTIMUS_ASSERT(x.rank() == 2 && x.cols() == hidden_);
    const int64_t r_count = x.rows();
    const int64_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor qkv = qkv_->forward(x); // [R x 3h], one GEMM for all rows
    const float *qd = qkv.data();

    // Append each segment's new keys/values to its own cache (heads
    // concatenated — the same column layout as the qkv k/v slices).
    int64_t row0 = 0;
    int64_t width = 0;
    for (const KvSegment &seg : segments) {
        KvCache &cache = seg.kv[layer];
        const int64_t base = cache.len;
        OPTIMUS_ASSERT(seg.rows >= 1);
        OPTIMUS_ASSERT(base + seg.rows <= cache.capacity());
        float *kd = cache.k.data();
        float *vd = cache.v.data();
        for (int64_t r = 0; r < seg.rows; ++r) {
            const float *src = qd + (row0 + r) * 3 * hidden_;
            std::memcpy(kd + (base + r) * hidden_, src + hidden_,
                        sizeof(float) * hidden_);
            std::memcpy(vd + (base + r) * hidden_, src + 2 * hidden_,
                        sizeof(float) * hidden_);
        }
        cache.len = base + seg.rows;
        row0 += seg.rows;
        width = std::max(width, cache.len);
    }
    OPTIMUS_ASSERT(row0 == r_count);

    // One flat loop over every (row, head) pair of every segment.
    // Row t of the score scratch holds the (p + 1) attention weights
    // of pair t = r * heads + head, where p is row r's position in
    // its own sequence. Every kernel below is a pure function of
    // (p, that sequence's cache), never of the segment sizes, so
    // prefill, decode and any stacking produce identical bits
    // position by position.
    Tensor probs({r_count * heads_, width});
    const int64_t pstride = probs.cols();
    Tensor ctx({r_count, hidden_});
    const simd::Tier tier = simd::tier();
    float *pd = probs.data();
    float *cd = ctx.data();
    // A pair's work is at most scores, exps (~256 multiply-adds
    // each) and context over the longest cache in the pass. Chunking
    // never changes the bits: every pair writes only its own score
    // row and context slice.
    parallelFor(0, r_count * heads_, grainForWork(width * (2 * dh + 256)),
                [&](int64_t lo, int64_t hi) {
        size_t seg = 0;
        int64_t seg_row0 = 0;
        for (int64_t t = lo; t < hi; ++t) {
            const int64_t r = t / heads_;
            const int64_t hd = t % heads_;
            while (r >= seg_row0 + segments[seg].rows) {
                seg_row0 += segments[seg].rows;
                ++seg;
            }
            const KvCache &cache = segments[seg].kv[layer];
            const int64_t p =
                cache.len - segments[seg].rows + (r - seg_row0);
            const float *kd = cache.k.data();
            const float *vd = cache.v.data();
            const float *qrow = qd + r * 3 * hidden_ + hd * dh;
            float *s = pd + t * pstride;
            // Scores against every cached key, each bitwise
            // float(dotDouble(q, k_j)) * scale.
            simd::dotRowsScaled(tier, s, qrow, kd + hd * dh, hidden_,
                                p + 1, dh, scale);
            // Causal softmax over [0, p] — the training kernel's
            // masked row softmax, minus the zeroed future entries.
            float max_val = s[0];
            for (int64_t j = 1; j <= p; ++j) {
                if (s[j] > max_val)
                    max_val = s[j];
            }
            double denom = 0.0;
            for (int64_t j = 0; j <= p; ++j) {
                s[j] = std::exp(s[j] - max_val);
                denom += s[j];
            }
            const float inv = static_cast<float>(1.0 / denom);
            for (int64_t j = 0; j <= p; ++j)
                s[j] *= inv;
            // Context: j-ascending accumulation over cached values.
            simd::weightedRowSum(tier, cd + r * hidden_ + hd * dh, s,
                                 vd + hd * dh, hidden_, p + 1, dh);
        }
    });
    return proj_->forward(ctx);
}

Tensor
MultiHeadAttention::forward(const Tensor &x)
{
    OPTIMUS_ASSERT(x.rank() == 2 && x.cols() == hidden_);
    if (mode() == Mode::Infer) {
        // Full-sequence recompute over one sequence: the same row
        // kernels as incremental decode, against a local scratch
        // cache (no member state, so concurrent calls are safe).
        OPTIMUS_ASSERT(x.rows() >= 1 && x.rows() <= seqLen_);
        KvCache scratch;
        scratch.ensure(x.rows(), hidden_);
        return forwardCached(x, scratch);
    }
    const int64_t n = x.rows();
    OPTIMUS_ASSERT(n % seqLen_ == 0);
    const int64_t batch = n / seqLen_;
    const int64_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    // Assign into the ring slot: the qkv tensor and every probs
    // slot recycle their blocks through the workspace in place.
    Stash &st = stash_.pushSlot();
    st.batch = batch;
    st.qkv = qkv_->forward(x); // [N x 3h]
    // optlint:coldalloc — warmup capacity ratchet.
    st.probs.resize(batch * heads_);

    // Each (batch, head) pair reads its own q/k/v slices in place
    // (column views of the fused qkv rows, stride 3h) and
    // accumulates into a disjoint, zeroed ctx block and its own
    // probs slot, so the flattened pairs run concurrently with
    // bitwise-identical results. A pair is two S x S x dh GEMMs and
    // S^2 / 2 exps of ~256 multiply-adds each.
    Tensor ctx({n, hidden_});
    const int64_t ld = 3 * hidden_;
    const int64_t pair_work = seqLen_ * seqLen_ * (2 * dh + 128);
    parallelFor(0, batch * heads_, grainForWork(pair_work),
                [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
            const int64_t b = t / heads_;
            const int64_t hd = t % heads_;
            const int64_t row0 = b * seqLen_;
            const float *q = st.qkv.data() + row0 * ld + hd * dh;
            const float *k = q + hidden_;
            const float *v = q + 2 * hidden_;

            Tensor scores({seqLen_, seqLen_}); // q k^T
            gemmStrided(scores.data(), seqLen_, q, ld, false, k, ld,
                        true, seqLen_, dh, seqLen_, true);
            scores.scale(scale);

            // Causal mask + row softmax (masked entries stay 0).
            float *sd = scores.data();
            for (int64_t i = 0; i < seqLen_; ++i) {
                float *row = sd + i * seqLen_;
                float max_val = row[0];
                for (int64_t j = 1; j <= i; ++j) {
                    if (row[j] > max_val)
                        max_val = row[j];
                }
                double denom = 0.0;
                for (int64_t j = 0; j <= i; ++j) {
                    row[j] = std::exp(row[j] - max_val);
                    denom += row[j];
                }
                const float inv =
                    static_cast<float>(1.0 / denom);
                for (int64_t j = 0; j <= i; ++j)
                    row[j] *= inv;
                for (int64_t j = i + 1; j < seqLen_; ++j)
                    row[j] = 0.0f;
            }

            // ctx block += probs v.
            gemmStrided(ctx.data() + row0 * hidden_ + hd * dh,
                        hidden_, sd, seqLen_, false, v, ld, false,
                        seqLen_, seqLen_, dh, true);
            st.probs[t] = std::move(scores);
        }
    });
    return proj_->forward(ctx);
}

Tensor
MultiHeadAttention::backward(const Tensor &dy)
{
    OPTIMUS_ASSERT(mode() == Mode::Train);
    OPTIMUS_ASSERT(!stash_.empty());
    const Stash &st = stash_.front();

    const int64_t batch = st.batch;
    const int64_t n = batch * seqLen_;
    const int64_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor dctx = proj_->backward(dy); // [N x h]
    OPTIMUS_ASSERT(dctx.rows() == n);

    // Mirrors the forward pass: q/k/v and dhead are read in place,
    // and each (batch, head) pair accumulates into its own disjoint,
    // zeroed dq/dk/dv blocks of dqkv. A pair is four S x S x dh
    // GEMMs and a softmax backward.
    Tensor dqkv({n, 3 * hidden_});
    const int64_t ld = 3 * hidden_;
    const int64_t pair_work = seqLen_ * seqLen_ * (4 * dh + 8);
    parallelFor(0, batch * heads_, grainForWork(pair_work),
                [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
            const int64_t b = t / heads_;
            const int64_t hd = t % heads_;
            const int64_t row0 = b * seqLen_;
            const float *pd = st.probs[t].data();
            const float *q = st.qkv.data() + row0 * ld + hd * dh;
            const float *k = q + hidden_;
            const float *v = q + 2 * hidden_;
            const float *dhead = dctx.data() + row0 * hidden_ + hd * dh;
            float *dq = dqkv.data() + row0 * ld + hd * dh;
            float *dk = dq + hidden_;
            float *dv = dq + 2 * hidden_;

            // dv += probs^T dhead; dprobs = dhead v^T.
            gemmStrided(dv, ld, pd, seqLen_, true, dhead, hidden_,
                        false, seqLen_, seqLen_, dh, true);
            Tensor dprobs({seqLen_, seqLen_});
            gemmStrided(dprobs.data(), seqLen_, dhead, hidden_, false,
                        v, ld, true, seqLen_, dh, seqLen_, true);

            // Softmax backward per row:
            // dscore_ij = p_ij * (dprobs_ij - sum_k p_ik dprobs_ik);
            // masked entries have p == 0, so they contribute nothing.
            Tensor dscores({seqLen_, seqLen_});
            const float *dpd = dprobs.data();
            float *dsd = dscores.data();
            for (int64_t i = 0; i < seqLen_; ++i) {
                double dot_val = 0.0;
                for (int64_t j = 0; j <= i; ++j)
                    dot_val += static_cast<double>(pd[i * seqLen_ + j]) *
                               dpd[i * seqLen_ + j];
                for (int64_t j = 0; j <= i; ++j) {
                    dsd[i * seqLen_ + j] = pd[i * seqLen_ + j] *
                        (dpd[i * seqLen_ + j] -
                         static_cast<float>(dot_val));
                }
            }
            dscores.scale(scale);

            // dq += dscores k; dk += dscores^T q.
            gemmStrided(dq, ld, dsd, seqLen_, false, k, ld, false,
                        seqLen_, seqLen_, dh, true);
            gemmStrided(dk, ld, dsd, seqLen_, true, q, ld, false,
                        seqLen_, seqLen_, dh, true);
        }
    });
    Tensor dx = qkv_->backward(dqkv);
    stash_.popFront();
    return dx;
}

std::vector<ParamPtr>
MultiHeadAttention::params() const
{
    std::vector<ParamPtr> all = qkv_->params();
    for (const auto &p : proj_->params())
        all.push_back(p);
    return all;
}

std::string
MultiHeadAttention::name() const
{
    return "attention(h=" + std::to_string(hidden_) + ")";
}

void
MultiHeadAttention::clearStash()
{
    stash_.clear();
    qkv_->clearStash();
    proj_->clearStash();
}

} // namespace optimus
