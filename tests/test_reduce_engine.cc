/**
 * @file
 * Tests for the bucketed, backward-overlapped gradient reduction
 * engine: bucket layout (capacity packing, oversized parameters,
 * exclusion), the one enqueue rule at every D, bitwise identity
 * with an independent per-parameter oracle (exact and compressed,
 * D in {1, 2, 3}), and the IterationStats phase timers. Run at
 * OPTIMUS_THREADS in {1, 4, 8} and OPTIMUS_SIMD=scalar via the
 * ctest registrations in tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "comm/transport.hh"
#include "compress/powersgd.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "parallel/reduce_engine.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"

namespace optimus
{
namespace
{

ParamPtr
makeParam(const std::string &name, std::vector<int64_t> shape,
          float grad_fill)
{
    auto p = std::make_shared<Param>(name, Tensor(shape));
    p->grad.fill(grad_fill);
    return p;
}

/** D aligned worker lists with per-worker distinct gradients. */
std::vector<std::vector<ParamPtr>>
makeWorkerParams(int workers,
                 const std::vector<std::vector<int64_t>> &shapes)
{
    std::vector<std::vector<ParamPtr>> lists(workers);
    for (int d = 0; d < workers; ++d) {
        for (size_t j = 0; j < shapes.size(); ++j) {
            lists[d].push_back(makeParam(
                "p" + std::to_string(j), shapes[j],
                static_cast<float>(d + 1) * (j + 1)));
        }
    }
    return lists;
}

ReduceEngineConfig
exactConfig(int64_t bucket_bytes)
{
    ReduceEngineConfig config;
    config.bucketBytes = bucket_bytes;
    return config;
}

TEST(BucketLayout, PacksGreedilyByCapacity)
{
    // 16-float buckets (64 bytes). Params of 8, 8, 8 floats: the
    // first two share a bucket, the third starts a new one.
    auto lists = makeWorkerParams(2, {{8}, {8}, {8}});
    ReduceEngine engine(exactConfig(64), lists);

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_EQ(buckets[0].params, (std::vector<size_t>{0, 1}));
    EXPECT_EQ(buckets[0].offsets, (std::vector<int64_t>{0, 8}));
    EXPECT_EQ(buckets[0].elems, 16);
    EXPECT_EQ(buckets[1].params, (std::vector<size_t>{2}));
    EXPECT_EQ(buckets[1].elems, 8);
    EXPECT_FALSE(buckets[0].compressed);
}

TEST(BucketLayout, OversizedParamGetsOwnBucket)
{
    // Bucket capacity 64 bytes = 16 floats; the 100-float param
    // exceeds it and must land alone, unsplit.
    auto lists = makeWorkerParams(2, {{4}, {100}, {4}});
    ReduceEngine engine(exactConfig(64), lists);

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0].params, (std::vector<size_t>{0}));
    EXPECT_EQ(buckets[1].params, (std::vector<size_t>{1}));
    EXPECT_EQ(buckets[1].elems, 100);
    EXPECT_EQ(buckets[2].params, (std::vector<size_t>{2}));
}

TEST(BucketLayout, TinyParamAloneInBucket)
{
    auto lists = makeWorkerParams(2, {{1}});
    ReduceEngine engine(exactConfig(1 << 20), lists);

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].elems, 1);
    EXPECT_EQ(buckets[0].params, (std::vector<size_t>{0}));
}

TEST(BucketLayout, ExcludedParamsGetNoBucket)
{
    auto lists = makeWorkerParams(2, {{8}, {8}, {8}});
    std::vector<const Param *> excluded;
    for (int d = 0; d < 2; ++d)
        excluded.push_back(lists[d][1].get());
    ReduceEngine engine(exactConfig(1 << 20), lists, excluded);

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].params, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(buckets[0].elems, 16);
}

TEST(ReduceEngineExact, DthNotifyEnqueuesEveryBucketAtAnyD)
{
    for (const int workers : {1, 2, 3}) {
        // Worker d's grad for param j is (d+1)*(j+1), so the mean
        // for param j is (D+1)/2 * (j+1).
        auto lists = makeWorkerParams(workers, {{6}, {10}, {3}});
        Transport recorder(true);
        ReduceEngineConfig config = exactConfig(32);
        config.transport = &recorder;
        ReduceEngine engine(config, lists);
        const int64_t buckets =
            static_cast<int64_t>(engine.buckets().size());

        TaskGroup group;
        engine.beginIteration(group);
        for (int d = 0; d < workers; ++d) {
            // Nothing before the D-th signal; every bucket right
            // after it, at every D.
            EXPECT_EQ(group.submitted(), 0)
                << "workers=" << workers << " d=" << d;
            engine.notifyReplicaDone();
        }
        EXPECT_EQ(group.submitted(), buckets) << "workers=" << workers;
        group.wait();
        EXPECT_EQ(group.submitted(), buckets);

        const float mean = 0.5f * static_cast<float>(workers + 1);
        for (int d = 0; d < workers; ++d) {
            for (size_t j = 0; j < lists[d].size(); ++j) {
                const Tensor &g = lists[d][j]->grad;
                for (int64_t i = 0; i < g.size(); ++i)
                    ASSERT_FLOAT_EQ(g[i], mean * (j + 1))
                        << "workers=" << workers << " d=" << d
                        << " j=" << j;
            }
        }

        const CommVolume volume =
            recorder.trace().volume(CommPhase::DpReduce);
        EXPECT_EQ(volume.events, buckets);
        EXPECT_EQ(volume.compressedEvents, 0);
        EXPECT_EQ(volume.exactBytes, 4 * (6 + 10 + 3));
        EXPECT_EQ(volume.wireBytes, volume.exactBytes);
        EXPECT_GE(engine.busySeconds(), 0.0);
    }
}

TEST(ReduceEngineCompressed, DedicatedBucketsAndState)
{
    // Rank-2 params with rows, cols >= 2 are compressible; the 1-D
    // param is not and must stay in an exact bucket.
    ReduceEngineConfig config = exactConfig(1 << 20);
    config.compressStage = true;
    config.seed = 9;
    // Matrices large enough that the rank-8 payload undercuts the
    // dense size (rank clamps to min(rows, cols) on tiny shapes).
    auto lists = makeWorkerParams(2, {{32, 32}, {7}, {24, 16}});
    Transport recorder(true);
    config.transport = &recorder;
    ReduceEngine engine(config, lists);

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_TRUE(buckets[0].compressed);
    EXPECT_FALSE(buckets[1].compressed);
    EXPECT_TRUE(buckets[2].compressed);

    TaskGroup group;
    engine.beginIteration(group);
    for (int d = 0; d < 2; ++d)
        engine.notifyReplicaDone();
    group.wait();

    const CommVolume volume =
        recorder.trace().volume(CommPhase::DpReduce);
    EXPECT_EQ(volume.events, 3);
    EXPECT_EQ(volume.compressedEvents, 2);
    EXPECT_EQ(volume.exactBytes, 4 * (32 * 32 + 7 + 24 * 16));
    EXPECT_LT(volume.wireBytes, volume.exactBytes);
    // Warm Q matrices + residuals persist.
    EXPECT_GT(engine.stateBytes(), 0);
    const auto norms = engine.residualNorms();
    ASSERT_EQ(norms.size(), 2u);
    engine.reset();
    for (const double n : engine.residualNorms())
        EXPECT_EQ(n, 0.0);
}

/**
 * Independent per-parameter reference for the engine, sharing none
 * of its bucketing: an exact parameter takes one mean all-reduce of
 * its own; a compressible parameter of a compressed stage runs the
 * distributed-PowerSGD protocol with explicit error-feedback
 * residuals e_d <- (g_d + e_d) - mean, or on the raw gradients when
 * error feedback is off.
 */
class ReduceOracle
{
  public:
    explicit ReduceOracle(const ReduceEngineConfig &config)
        : config_(config)
    {}

    void
    referenceReduce(const std::vector<std::vector<ParamPtr>> &lists,
                    size_t excluded)
    {
        const int workers = static_cast<int>(lists.size());
        for (size_t j = 0; j < lists[0].size(); ++j) {
            if (j == excluded)
                continue;
            std::vector<Tensor *> grads;
            for (int d = 0; d < workers; ++d)
                grads.push_back(&lists[d][j]->grad);
            const Tensor &value = lists[0][j]->value;
            const bool compress =
                config_.compressStage && value.rank() == 2 &&
                value.rows() >= 2 && value.cols() >= 2;
            if (!compress) {
                transport_.allReduceTensors(CommPhase::DpReduce, grads,
                                            ReduceOp::Mean);
                continue;
            }
            auto [dps, fresh] = dps_.try_emplace(
                j, workers, config_.rank,
                config_.seed + 0x1000 * (j + 1));
            std::vector<Tensor> &residual = residuals_[j];
            if (fresh)
                residual.assign(workers, Tensor(value.shape()));
            const bool feedback = config_.errorFeedback;
            std::vector<Tensor> fed(workers);
            std::vector<const Tensor *> inputs;
            for (int d = 0; d < workers; ++d) {
                if (feedback)
                    fed[d] = add(*grads[d], residual[d]);
                inputs.push_back(feedback ? &fed[d] : grads[d]);
            }
            Tensor mean;
            dps->second.reduce(inputs, mean);
            for (int d = 0; d < workers; ++d) {
                if (feedback)
                    residual[d] = sub(fed[d], mean);
                *grads[d] = mean;
            }
        }
    }

  private:
    ReduceEngineConfig config_;
    Transport transport_;
    std::map<size_t, DistributedPowerSgd> dps_;
    std::map<size_t, std::vector<Tensor>> residuals_;
};

/**
 * Six iterations of fresh per-worker gradients through the engine
 * and the oracle; every gradient must match bit for bit, and the
 * excluded parameter must come back untouched.
 */
void
runOracle(int workers, bool compressed, bool error_feedback = true)
{
    // Matrices (compressible), vectors and a 1-row matrix (exact),
    // with 128-byte buckets so exact params pack and split across
    // buckets. Parameter 3 is excluded (owned elsewhere).
    const std::vector<std::vector<int64_t>> shapes = {
        {12, 10}, {7}, {16}, {9, 6}, {1, 8}, {5, 5}, {3}};
    const size_t excluded = 3;
    ReduceEngineConfig config = exactConfig(128);
    config.seed = 9;
    if (compressed) {
        config.rank = 2;
        config.errorFeedback = error_feedback;
        config.compressStage = true;
    }
    auto engine_lists = makeWorkerParams(workers, shapes);
    auto oracle_lists = makeWorkerParams(workers, shapes);
    std::vector<const Param *> skipped;
    for (int d = 0; d < workers; ++d)
        skipped.push_back(engine_lists[d][excluded].get());
    ReduceEngine engine(config, engine_lists, skipped);
    ReduceOracle oracle(config);

    for (int it = 0; it < 6; ++it) {
        for (int d = 0; d < workers; ++d) {
            for (size_t j = 0; j < shapes.size(); ++j) {
                Rng rng(1000 * it + 10 * d + j);
                const Tensor grad = Tensor::randn(shapes[j], rng);
                engine_lists[d][j]->grad = grad;
                oracle_lists[d][j]->grad = grad;
            }
        }
        const Tensor untouched = engine_lists[0][excluded]->grad;

        TaskGroup group;
        engine.beginIteration(group, it);
        for (int d = 0; d < workers; ++d)
            engine.notifyReplicaDone();
        group.wait();
        oracle.referenceReduce(oracle_lists, excluded);

        for (int d = 0; d < workers; ++d) {
            for (size_t j = 0; j < shapes.size(); ++j) {
                const Tensor &a = engine_lists[d][j]->grad;
                const Tensor &b = oracle_lists[d][j]->grad;
                ASSERT_EQ(std::memcmp(a.data(), b.data(),
                                      sizeof(float) * a.size()),
                          0)
                    << "D=" << workers << " it=" << it << " d=" << d
                    << " j=" << j;
            }
        }
        EXPECT_EQ(std::memcmp(engine_lists[0][excluded]->grad.data(),
                              untouched.data(),
                              sizeof(float) * untouched.size()),
                  0);
    }
    if (!error_feedback) {
        for (const double norm : engine.residualNorms())
            EXPECT_EQ(norm, 0.0);
    }
}

TEST(ReduceEngineOracle, ExactMatchesPerParameterReduce)
{
    for (const int workers : {1, 2, 3})
        runOracle(workers, false);
}

TEST(ReduceEngineOracle, CompressedMatchesPerParameterReduce)
{
    for (const int workers : {1, 2, 3})
        runOracle(workers, true);
}

TEST(ReduceEngineOracle, CompressedNoFeedbackMatchesPerParameterReduce)
{
    // With error feedback off PowerSGD reduces the raw gradients and
    // no residual is carried.
    for (const int workers : {1, 2, 3})
        runOracle(workers, true, false);
}

GptConfig
tinyModel()
{
    GptConfig config;
    config.vocab = 24;
    config.hidden = 16;
    config.layers = 4;
    config.heads = 2;
    config.seqLen = 8;
    config.seed = 77;
    return config;
}

LmDataset
tinyData(int64_t seq_len)
{
    CorpusConfig cc;
    cc.vocab = 24;
    cc.totalTokens = 6000;
    cc.seed = 5;
    SyntheticCorpus corpus(cc);
    return {corpus.train(), seq_len};
}

TEST(StepPhaseTimes, FieldsAreSane)
{
    for (const int d_ways : {1, 2}) {
        Trainer3dConfig config;
        config.model = tinyModel();
        config.dataParallel = d_ways;
        config.pipelineStages = 2;
        config.microBatches = 2;
        config.microBatchSize = 2;
        // Small buckets so the tiny model still produces several
        // buckets per stage.
        config.bucketBytes = 2048;
        Trainer3d trainer(config);
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(3);
        const IterationStats stats =
            trainer.trainIteration(data, rng);

        const StepPhaseTimes &t = stats.phases;
        EXPECT_GT(t.forwardBackward, 0.0);
        EXPECT_GE(t.dpReduce, 0.0);
        EXPECT_GT(t.dpReduceBusy, 0.0) << "D=" << d_ways;
        EXPECT_GE(t.embSync, 0.0);
        EXPECT_GE(t.optimizer, 0.0);
        // total spans the replica loop through the optimizer.
        EXPECT_GE(t.total, t.forwardBackward);
        EXPECT_GE(t.total, t.dpReduce + t.embSync + t.optimizer);
    }
}

} // namespace
} // namespace optimus
