/**
 * @file
 * Abstract interface for lossy gradient compressors. A compressor
 * models the whole compress -> transmit -> decompress path of one
 * tensor stream: the caller provides the exact tensor, receives the
 * receiver-side reconstruction, and is told the payload size in
 * bytes so the performance model can account for the saved traffic.
 *
 * Compressors may be stateful per stream (PowerSGD warm-starts its
 * power-iteration vector from the previous message), so one instance
 * is created per communication channel.
 */

#ifndef OPTIMUS_COMPRESS_COMPRESSOR_HH
#define OPTIMUS_COMPRESS_COMPRESSOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "tensor/tensor.hh"

namespace optimus
{

/** Lossy compress/decompress channel for one tensor stream. */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /**
     * Compress @p input and write the receiver-side reconstruction
     * into @p output (resized/shaped to match @p input).
     *
     * @return payload size in bytes that would cross the wire.
     */
    virtual int64_t compress(const Tensor &input, Tensor &output) = 0;

    /**
     * Payload bytes for a [rows x cols] message, without compressing
     * anything (used by the performance model).
     */
    virtual int64_t payloadBytes(int64_t rows, int64_t cols) const = 0;

    /** Drop any warm-start / residual state. */
    virtual void reset() {}

    /**
     * Bytes of persistent compressor state (warm-start matrices
     * etc.), for the memory-overhead accounting of Fig 12.
     */
    virtual int64_t stateBytes() const { return 0; }
};

/** Identity "compressor": output == input, full fp32 payload. */
class IdentityCompressor : public Compressor
{
  public:
    int64_t compress(const Tensor &input, Tensor &output) override;
    int64_t payloadBytes(int64_t rows, int64_t cols) const override;
};

/** Supported compression algorithms. */
enum class CompressorKind
{
    None,
    PowerSgd,
    TopK,
    Ternary,
    OneBit,
};

/** Parameters needed to instantiate any compressor kind. */
struct CompressorSpec
{
    CompressorKind kind = CompressorKind::None;
    /** Low-rank approximation rank (PowerSgd). */
    int rank = 16;
    /** Kept fraction of elements (TopK), in (0, 1]. */
    double topkFraction = 0.01;
    /** Seed for stochastic compressors / warm starts. */
    uint64_t seed = 1;

    /** Short description like "powersgd(r=16)". */
    std::string describe() const;
};

/**
 * Instantiate a compressor for the given spec. @p kind None yields
 * an IdentityCompressor.
 */
std::unique_ptr<Compressor> makeCompressor(const CompressorSpec &spec);

} // namespace optimus

#endif // OPTIMUS_COMPRESS_COMPRESSOR_HH
