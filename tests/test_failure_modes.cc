/**
 * @file
 * Failure-injection tests: invalid configurations and out-of-contract
 * calls must die loudly (panic/abort for internal contract breaches,
 * fatal/exit(1) for user errors) instead of corrupting results.
 */

#include <gtest/gtest.h>

#include "compress/compressor.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "parallel/stage_module.hh"
#include "schedule/schedule.hh"
#include "tensor/matmul.hh"
#include "util/cli.hh"

namespace optimus
{
namespace
{

using FailureDeathTest = ::testing::Test;

TEST(FailureDeathTest, TensorOutOfBoundsAccessDies)
{
    Tensor t = Tensor::zeros(2, 3);
    EXPECT_DEATH(t.at(2, 0), "assertion");
    EXPECT_DEATH(t.at(0, 3), "assertion");
    EXPECT_DEATH(t.at(-1, 0), "assertion");
}

TEST(FailureDeathTest, TensorRankMisuseDies)
{
    Tensor t = Tensor::zeros(6);
    EXPECT_DEATH(t.rows(), "assertion");
    EXPECT_DEATH(t.at(0, 0), "assertion");
}

#ifdef OPTIMUS_BOUNDS_CHECK
// Checked builds (Debug and the sanitizer CI jobs) also police the
// flat fast path and full shape agreement in elementwise ops.
TEST(FailureDeathTest, FlatIndexOutOfBoundsDiesWhenChecked)
{
    Tensor t = Tensor::zeros(2, 3);
    EXPECT_DEATH(t[6], "out of range");
    EXPECT_DEATH(t[-1], "out of range");
    const Tensor &ct = t;
    EXPECT_DEATH(ct[100], "out of range");
}

TEST(FailureDeathTest, ElementwiseShapeMismatchDiesWhenChecked)
{
    Tensor a = Tensor::zeros(2, 8);
    Tensor b = Tensor::zeros(4, 4); // same size, different shape
    EXPECT_DEATH(a.add(b), "shape mismatch");
    EXPECT_DEATH(a.sub(b), "shape mismatch");
}
#endif

TEST(FailureDeathTest, MatmulShapeMismatchDies)
{
    Tensor a = Tensor::zeros(2, 3);
    Tensor b = Tensor::zeros(4, 2);
    EXPECT_DEATH(matmul(a, b), "assertion");
}

TEST(FailureDeathTest, ReshapeSizeMismatchDies)
{
    Tensor t = Tensor::zeros(2, 3);
    EXPECT_DEATH(t.reshaped({4, 2}), "assertion");
}

TEST(FailureDeathTest, ScheduleRejectsInvalidShape)
{
    EXPECT_DEATH(PipelineSchedule::oneFOneB(0, 4), "assertion");
    EXPECT_DEATH(PipelineSchedule::oneFOneB(4, 0), "assertion");
    EXPECT_DEATH(warmupDepth(4, 8, 4), "assertion");
    EXPECT_DEATH(isEpilogueBackward(4, 8, 0, 0), "assertion");
}

TEST(FailureDeathTest, StageModuleRejectsIndivisibleLayers)
{
    GptConfig config;
    config.layers = 4;
    EXPECT_DEATH(StageModule(config, 0, 3), "assertion");
}

TEST(FailureDeathTest, CorpusRejectsInvalidMasses)
{
    CorpusConfig config;
    config.bigramMass = 0.8;
    config.trigramBoost = 0.3; // sums over 1
    EXPECT_DEATH(SyntheticCorpus{config}, "assertion");
}

TEST(FailureDeathTest, DatasetRejectsTooShortStream)
{
    std::vector<int32_t> tiny{1, 2, 3};
    EXPECT_DEATH(LmDataset(tiny, 8), "assertion");
}

TEST(FailureDeathTest, CliRejectsMalformedNumbers)
{
    const char *argv[] = {"prog", "--n=abc"};
    CliArgs args(2, argv);
    EXPECT_EXIT(args.getInt("n"), ::testing::ExitedWithCode(1),
                "expects an integer");
    EXPECT_EXIT(args.getDouble("n"), ::testing::ExitedWithCode(1),
                "expects a number");
}

TEST(FailureDeathTest, ScheduleRejectsInvalidChunking)
{
    // Interleaving runs in rounds of P micro-batches (Megatron's
    // M % P == 0), and GPipe has no interleaved form.
    EXPECT_DEATH(PipelineSchedule::oneFOneB(4, 6, 2), "assertion");
    EXPECT_DEATH(PipelineSchedule::oneFOneB(4, 8, 0), "assertion");
    EXPECT_DEATH(
        PipelineSchedule::make(ScheduleKind::GPipe, 4, 8, 2),
        "assertion");
}

TEST(FailureDeathTest, TopKRejectsInvalidFraction)
{
    CompressorSpec spec;
    spec.kind = CompressorKind::TopK;
    spec.topkFraction = 0.0;
    EXPECT_DEATH(makeCompressor(spec), "assertion");
    spec.topkFraction = 1.5;
    EXPECT_DEATH(makeCompressor(spec), "assertion");
}

} // namespace
} // namespace optimus
