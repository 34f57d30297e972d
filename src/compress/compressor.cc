#include "compress/compressor.hh"

#include <cstdio>

#include "compress/powersgd.hh"
#include "compress/quantize.hh"
#include "compress/topk.hh"
#include "util/logging.hh"

namespace optimus
{

int64_t
IdentityCompressor::compress(const Tensor &input, Tensor &output)
{
    output = input;
    return payloadBytes(input.rank() == 2 ? input.rows() : 1,
                        input.rank() == 2 ? input.cols()
                                          : input.size());
}

int64_t
IdentityCompressor::payloadBytes(int64_t rows, int64_t cols) const
{
    return static_cast<int64_t>(sizeof(float)) * rows * cols;
}

std::string
CompressorSpec::describe() const
{
    char buf[64];
    switch (kind) {
      case CompressorKind::None:
        return "none";
      case CompressorKind::PowerSgd:
        std::snprintf(buf, sizeof(buf), "powersgd(r=%d)", rank);
        return buf;
      case CompressorKind::TopK:
        std::snprintf(buf, sizeof(buf), "topk(%.3f)", topkFraction);
        return buf;
      case CompressorKind::Ternary:
        return "ternary";
      case CompressorKind::OneBit:
        return "onebit";
    }
    return "?";
}

std::unique_ptr<Compressor>
makeCompressor(const CompressorSpec &spec)
{
    switch (spec.kind) {
      case CompressorKind::None:
        return std::make_unique<IdentityCompressor>();
      case CompressorKind::PowerSgd:
        return std::make_unique<PowerSgdCompressor>(spec.rank,
                                                    spec.seed);
      case CompressorKind::TopK:
        return std::make_unique<TopKCompressor>(spec.topkFraction);
      case CompressorKind::Ternary:
        return std::make_unique<TernaryCompressor>(spec.seed);
      case CompressorKind::OneBit:
        return std::make_unique<OneBitCompressor>();
    }
    panic("unknown compressor kind %d", static_cast<int>(spec.kind));
}

} // namespace optimus
