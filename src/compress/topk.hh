/**
 * @file
 * Top-k magnitude sparsification, the baseline the paper shows is
 * unsuitable for point-to-point inter-stage traffic (Fig 3,
 * 'Opt-CC (TopK)' bar). Keeps the k largest-magnitude elements and
 * transmits (index, value) pairs.
 */

#ifndef OPTIMUS_COMPRESS_TOPK_HH
#define OPTIMUS_COMPRESS_TOPK_HH

#include <cstdint>
#include <vector>

#include "compress/compressor.hh"

namespace optimus
{

/** Keep the top `fraction` of elements by absolute value. */
class TopKCompressor : public Compressor
{
  public:
    /** @param fraction Kept element fraction in (0, 1]. */
    explicit TopKCompressor(double fraction);

    int64_t compress(const Tensor &input, Tensor &output) override;
    int64_t payloadBytes(int64_t rows, int64_t cols) const override;

    double fraction() const { return fraction_; }

    /** Number of kept elements for a tensor of @p n elements. */
    int64_t keptCount(int64_t n) const;

  private:
    double fraction_;
    /** Selection scratch; capacities ratchet during warmup so the
     * steady-state step never allocates here. */
    std::vector<int64_t> order_;
    std::vector<float> mag_;
    std::vector<float> sel_;
};

} // namespace optimus

#endif // OPTIMUS_COMPRESS_TOPK_HH
