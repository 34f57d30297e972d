#include "compress/topk.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "obs/trace.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

TopKCompressor::TopKCompressor(double fraction)
    : fraction_(fraction)
{
    OPTIMUS_ASSERT(fraction > 0.0 && fraction <= 1.0);
}

int64_t
TopKCompressor::keptCount(int64_t n) const
{
    int64_t k = static_cast<int64_t>(std::ceil(fraction_ * n));
    if (k < 1)
        k = 1;
    if (k > n)
        k = n;
    return k;
}

// optlint:hot — steady-state step path (zero-allocation contract).
int64_t
TopKCompressor::compress(const Tensor &input, Tensor &output)
{
    const int64_t n = input.size();
    const int64_t k = keptCount(n);
    obs::ScopedSpan span("compress", "topk.compress", -1, "elems", n);

    const float *src = input.data();
    output = Tensor(input.shape());
    float *dst = output.data();
    const simd::Tier tier = simd::tier();

    if (tier == simd::Tier::Scalar) {
        // Pre-dispatch selection, kept verbatim: OPTIMUS_SIMD=scalar
        // must reproduce the old tree bit for bit, including how
        // nth_element happened to break magnitude ties.
        // optlint:coldalloc — warmup capacity ratchet.
        order_.resize(n);
        std::vector<int64_t> &order = order_;
        std::iota(order.begin(), order.end(), 0);
        // fraction == 1.0 keeps every element; the O(n) selection
        // would only shuffle `order` for nothing.
        if (k < n) {
            std::nth_element(order.begin(), order.begin() + (k - 1),
                             order.end(),
                             [src](int64_t a, int64_t b) {
                                 return std::fabs(src[a]) >
                                        std::fabs(src[b]);
                             });
        }
        for (int64_t i = 0; i < k; ++i)
            dst[order[i]] = src[order[i]];
    } else if (k >= n) {
        // An empty tensor has no storage: memcpy needs non-null
        // pointers even for a zero count.
        if (n > 0)
            std::memcpy(dst, src, sizeof(float) * n);
    } else {
        // SIMD tiers: select by magnitude threshold. nth_element
        // only has to produce the k-th largest magnitude (a value,
        // identical however the partition shakes out); the keep pass
        // takes everything strictly above it and the remaining slots
        // are filled with threshold ties in index order — a
        // deterministic kept set, unlike the scalar path's
        // partition-order ties.
        // optlint:coldalloc — warmup capacity ratchet.
        mag_.resize(n);
        std::vector<float> &mag = mag_;
        simd::absVals(tier, mag.data(), src, n);
        sel_ = mag_;
        std::vector<float> &sel = sel_;
        std::nth_element(sel.begin(), sel.begin() + (k - 1),
                         sel.end(), std::greater<float>());
        const float thresh = sel[k - 1];
        int64_t kept =
            simd::keepAbove(tier, dst, src, mag.data(), thresh, n);
        for (int64_t i = 0; i < n && kept < k; ++i) {
            if (mag[i] == thresh) {
                dst[i] = src[i];
                ++kept;
            }
        }
    }
    return payloadBytes(input.rank() == 2 ? input.rows() : 1,
                        input.rank() == 2 ? input.cols() : n);
}

int64_t
TopKCompressor::payloadBytes(int64_t rows, int64_t cols) const
{
    const int64_t k = keptCount(rows * cols);
    // 4-byte value + 4-byte index per kept element.
    return k * 8;
}

} // namespace optimus
