#include "cluster/model_spec.hh"

namespace optimus
{

int64_t
GptModelSpec::paramCount() const
{
    const int64_t h = hidden;
    return 12 * layers * h * h + 13 * layers * h +
           (vocab + seqLen) * h + 2 * h;
}

double
GptModelSpec::flopsPerSequence() const
{
    const double h = static_cast<double>(hidden);
    const double s = static_cast<double>(seqLen);
    const double l = static_cast<double>(layers);
    const double v = static_cast<double>(vocab);
    return 96.0 * s * l * h * h *
           (1.0 + s / (6.0 * h) + v / (16.0 * l * h));
}

double
GptModelSpec::forwardFlopsPerSequence() const
{
    return flopsPerSequence() / 4.0;
}

double
GptModelSpec::boundaryBytesPerSequence() const
{
    return static_cast<double>(seqLen) * hidden * 2.0;
}

double
GptModelSpec::embeddingTableBytes() const
{
    return static_cast<double>(vocab) * hidden * 4.0;
}

GptModelSpec
GptModelSpec::gpt2_5b()
{
    return {"GPT-2.5B", 52, 1920, 24, 1024, 51200};
}

GptModelSpec
GptModelSpec::gpt8_3b()
{
    return {"GPT-8.3B", 72, 3072, 32, 1024, 51200};
}

GptModelSpec
GptModelSpec::gpt9_2b()
{
    return {"GPT-9.2B", 80, 3072, 32, 1024, 51200};
}

GptModelSpec
GptModelSpec::gpt39b()
{
    return {"GPT-39B", 48, 8192, 64, 1024, 51200};
}

GptModelSpec
GptModelSpec::gpt175b()
{
    return {"GPT-175B", 96, 12288, 96, 1024, 51200};
}

} // namespace optimus
