/**
 * @file
 * Quantization-based gradient compressors: TernGrad-style stochastic
 * ternarization and 1-bit sign quantization with per-sign scales
 * (as in signSGD / 1-bit Adam). Included as comparison baselines for
 * the compression-method design space the paper surveys (Section 2.3).
 */

#ifndef OPTIMUS_COMPRESS_QUANTIZE_HH
#define OPTIMUS_COMPRESS_QUANTIZE_HH

#include "compress/compressor.hh"
#include "util/random.hh"

namespace optimus
{

/**
 * TernGrad: each element becomes s * max|g| with s in {-1, 0, +1},
 * where P(s != 0) = |g| / max|g| (unbiased stochastic rounding).
 */
class TernaryCompressor : public Compressor
{
  public:
    explicit TernaryCompressor(uint64_t seed = 1);

    int64_t compress(const Tensor &input, Tensor &output) override;
    int64_t payloadBytes(int64_t rows, int64_t cols) const override;
    void reset() override;

  private:
    uint64_t seed_;
    Rng rng_;
};

/**
 * 1-bit quantization: transmit sign bits plus the mean magnitude of
 * the positive and negative partitions (two scales), reconstructing
 * sign(g) * scale(sign).
 */
class OneBitCompressor : public Compressor
{
  public:
    OneBitCompressor() = default;

    int64_t compress(const Tensor &input, Tensor &output) override;
    int64_t payloadBytes(int64_t rows, int64_t cols) const override;
};

} // namespace optimus

#endif // OPTIMUS_COMPRESS_QUANTIZE_HH
