/**
 * @file
 * The core distribution-correctness tests: pipeline-parallel and
 * data-parallel execution must reproduce monolithic training;
 * fused embedding synchronization must be exact; compressed
 * backpropagation must obey its telescoping identity; replicas must
 * never diverge.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "nn/optimizer.hh"
#include "parallel/data_parallel.hh"
#include "parallel/trainer3d.hh"

namespace optimus
{
namespace
{

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

Trainer3dConfig
baseTrainerConfig()
{
    Trainer3dConfig config;
    config.model = tinyModel();
    config.dataParallel = 1;
    config.pipelineStages = 1;
    config.microBatches = 4;
    config.microBatchSize = 2;
    config.learningRate = 1e-3f;
    return config;
}

/** Max abs parameter difference between two trainers' replica 0. */
float
paramDelta(Trainer3d &a, Trainer3d &b)
{
    float worst = 0.0f;
    const int pa = a.config().pipelineStages;
    const int pb = b.config().pipelineStages;

    // Collect all unique params in construction order per trainer.
    auto collect = [](Trainer3d &t, int p_ways) {
        std::vector<ParamPtr> all;
        for (int p = 0; p < p_ways; ++p) {
            for (const auto &param : t.stage(0, p).params())
                all.push_back(param);
        }
        return all;
    };
    auto pa_list = collect(a, pa);
    auto pb_list = collect(b, pb);

    // Match by parameter name: partitioning changes grouping but
    // names are stable. Embedding copies share names; compare all
    // same-named pairs.
    for (const auto &x : pa_list) {
        for (const auto &y : pb_list) {
            if (x->name != y->name)
                continue;
            EXPECT_EQ(x->size(), y->size());
            for (int64_t i = 0; i < x->size(); ++i) {
                const float d = std::fabs(x->value[i] - y->value[i]);
                if (d > worst)
                    worst = d;
            }
        }
    }
    return worst;
}

TEST(StageModule, PartitionedInitMatchesMonolithic)
{
    const GptConfig config = tinyModel();
    GptModel mono(config);
    StageModule s0(config, 0, 2);
    StageModule s1(config, 1, 2);

    // Same-named params have identical initial values.
    auto mono_params = mono.params();
    auto check = [&mono_params](const StageModule &stage) {
        for (const auto &p : stage.params()) {
            bool found = false;
            for (const auto &mp : mono_params) {
                if (mp->name != p->name)
                    continue;
                found = true;
                EXPECT_TRUE(mp->value.allClose(p->value, 0.0f))
                    << p->name;
            }
            EXPECT_TRUE(found) << p->name;
        }
    };
    check(s0);
    check(s1);
}

TEST(StageModule, ForwardComposesToMonolithicForward)
{
    const GptConfig config = tinyModel();
    GptModel mono(config);
    StageModule s0(config, 0, 2);
    StageModule s1(config, 1, 2);

    Rng rng(1);
    std::vector<int32_t> tokens(2 * config.seqLen);
    for (auto &t : tokens)
        t = static_cast<int32_t>(rng.uniformInt(config.vocab));

    Tensor mono_logits = mono.forward(tokens, 2);
    Tensor h = s0.forwardTokens(tokens, 2);
    Tensor pipe_logits = s1.forwardHidden(h);
    EXPECT_TRUE(mono_logits.allClose(pipe_logits, 1e-5f));
}

TEST(Equivalence, PipelineMatchesMonolithicTraining)
{
    // P=2 and P=4 pipelined training with no compression must track
    // the P=1 run almost exactly (float reassociation only).
    auto run = [](int stages) {
        Trainer3dConfig config = baseTrainerConfig();
        config.pipelineStages = stages;
        Trainer3d trainer(config);
        LmDataset data = tinyData(config.model.seqLen);
        Rng rng(42); // identical data order across runs
        double loss = 0.0;
        for (int it = 0; it < 5; ++it)
            loss = trainer.trainIteration(data, rng).loss;
        return std::make_pair(loss, trainer.validatePerplexity(
                                         tinyData(8)));
    };

    const auto [loss1, ppl1] = run(1);
    const auto [loss2, ppl2] = run(2);
    const auto [loss4, ppl4] = run(4);
    EXPECT_NEAR(loss1, loss2, 1e-4);
    EXPECT_NEAR(loss1, loss4, 1e-4);
    EXPECT_NEAR(ppl1, ppl2, 0.01 * ppl1);
    EXPECT_NEAR(ppl1, ppl4, 0.01 * ppl1);
}

TEST(Equivalence, DataParallelMatchesSingleWorker)
{
    // D workers with exact all-reduce == one worker consuming the
    // same D*M micro-batches.
    auto run = [](int d_ways, int micro_batches) {
        Trainer3dConfig config = baseTrainerConfig();
        config.dataParallel = d_ways;
        config.microBatches = micro_batches;
        Trainer3d trainer(config);
        LmDataset data = tinyData(config.model.seqLen);
        Rng rng(43);
        double loss = 0.0;
        for (int it = 0; it < 4; ++it)
            loss = trainer.trainIteration(data, rng).loss;
        return loss;
    };
    // D=2 x M=2 and D=1 x M=4 consume identical sample streams.
    const double split = run(2, 2);
    const double mono = run(1, 4);
    EXPECT_NEAR(split, mono, 1e-4);
}

TEST(Equivalence, ReplicasNeverDivergeWithoutCompression)
{
    Trainer3dConfig config = baseTrainerConfig();
    config.dataParallel = 3;
    config.pipelineStages = 2;
    Trainer3d trainer(config);
    LmDataset data = tinyData(config.model.seqLen);
    Rng rng(44);
    for (int it = 0; it < 4; ++it)
        trainer.trainIteration(data, rng);
    EXPECT_LT(trainer.replicaDivergence(), 1e-6f);
}

TEST(Equivalence, ReplicasNeverDivergeWithCompression)
{
    // The distributed PowerSGD protocol hands every replica the
    // same reconstruction, so even lossy DP compression must not
    // cause divergence.
    Trainer3dConfig config = baseTrainerConfig();
    config.dataParallel = 2;
    config.pipelineStages = 2;
    config.dp.enabled = true;
    config.dp.stageFraction = 1.0;
    config.dp.rank = 2;
    config.cb.enabled = true;
    config.cb.spec.rank = 2;
    Trainer3d trainer(config);
    LmDataset data = tinyData(config.model.seqLen);
    Rng rng(45);
    for (int it = 0; it < 4; ++it)
        trainer.trainIteration(data, rng);
    EXPECT_LT(trainer.replicaDivergence(), 1e-5f);
}

TEST(EmbeddingSync, FusedEqualsBaseline)
{
    // Identical runs differing only in fused vs baseline embedding
    // synchronization must produce identical parameters: the fusion
    // is mathematically lossless (Section 6).
    auto run = [](bool fused) {
        Trainer3dConfig config = baseTrainerConfig();
        config.dataParallel = 2;
        config.pipelineStages = 2;
        config.fusedEmbeddingSync = fused;
        auto trainer = std::make_unique<Trainer3d>(config);
        LmDataset data = tinyData(config.model.seqLen);
        Rng rng(46);
        for (int it = 0; it < 4; ++it)
            trainer->trainIteration(data, rng);
        return trainer;
    };
    auto base = run(false);
    auto fused = run(true);
    EXPECT_LT(paramDelta(*base, *fused), 1e-5f);
}

TEST(EmbeddingSync, VolumesMatchEq15And16)
{
    // Traffic bookkeeping must match the closed forms: baseline
    // V(3D-2)/D, fused V(2D-1)/D.
    const int d_ways = 4;
    Trainer3dConfig config = baseTrainerConfig();
    config.dataParallel = d_ways;
    config.pipelineStages = 2;

    config.fusedEmbeddingSync = false;
    Trainer3d base(config);
    config.fusedEmbeddingSync = true;
    Trainer3d fused(config);

    LmDataset data = tinyData(config.model.seqLen);
    Rng rng1(47), rng2(47);
    const auto stats_base = base.trainIteration(data, rng1);
    const auto stats_fused = fused.trainIteration(data, rng2);

    const double v =
        static_cast<double>(stats_base.embVolume.tableBytes);
    EXPECT_NEAR(stats_base.embVolume.trafficBytes,
                v * (3.0 * d_ways - 2) / d_ways, 1.0);
    EXPECT_NEAR(stats_fused.embVolume.trafficBytes,
                v * (2.0 * d_ways - 1) / d_ways, 1.0);
    // Improvement approaches the analytic ratio (42.9% at D=4).
    const double saving = 1.0 - stats_fused.embVolume.trafficBytes /
                                    stats_base.embVolume.trafficBytes;
    EXPECT_NEAR(saving, 1.0 - (2.0 * d_ways - 1) / (3.0 * d_ways - 2),
                1e-6);
}

TEST(CompressedBackprop, ReducesInterStageTraffic)
{
    Trainer3dConfig config = baseTrainerConfig();
    config.pipelineStages = 4;
    config.microBatches = 4;
    config.cb.enabled = true;
    config.cb.epilogueOnly = false; // compress everything
    config.cb.spec.rank = 2;
    Trainer3d trainer(config);
    LmDataset data = tinyData(config.model.seqLen);
    Rng rng(48);
    const auto stats = trainer.trainIteration(data, rng);
    EXPECT_LT(stats.interStageBytes, stats.interStageBytesExact);
}

TEST(CompressedBackprop, EpilogueOnlyCompressesOnlyEpilogue)
{
    Trainer3dConfig config = baseTrainerConfig();
    config.pipelineStages = 4;
    config.microBatches = 8;
    config.cb.enabled = true;
    config.cb.epilogueOnly = true;
    config.cb.spec.rank = 2;
    config.traceCommunication = true;
    Trainer3d trainer(config);
    LmDataset data = tinyData(config.model.seqLen);
    Rng rng(49);
    trainer.trainIteration(data, rng);

    // Channel from stage s compresses exactly
    // epilogueBackwardCount(P, M, s) messages per iteration (all
    // but the receiver's warm-up-overlapped ones), on every replica.
    for (int d = 0; d < config.dataParallel; ++d) {
        for (int s = 1; s < 4; ++s) {
            CommVolume channel;
            for (const CommEvent &e : trainer.trace()->events()) {
                if (e.phase == CommPhase::InterStage && e.src == s &&
                    e.replica == d)
                    channel.add(e);
            }
            EXPECT_EQ(channel.compressedEvents,
                      epilogueBackwardCount(4, 8, s))
                << "replica " << d << " stage " << s;
            EXPECT_LT(channel.compressedEvents, 8);
            EXPECT_EQ(channel.events, 8);
        }
    }
}

TEST(CompressedBackprop, LazyErrorIsBoundedAcrossIterations)
{
    // With LEP the stored error equals the most recent compression
    // residual; across many iterations it must stay bounded (no
    // accumulation blow-up).
    Trainer3dConfig config = baseTrainerConfig();
    config.pipelineStages = 2;
    config.microBatches = 4;
    config.cb.enabled = true;
    config.cb.epilogueOnly = false;
    config.cb.spec.rank = 2;
    Trainer3d trainer(config);
    LmDataset data = tinyData(config.model.seqLen);
    Rng rng(50);
    double first_norm = 0.0, last_norm = 0.0;
    for (int it = 0; it < 8; ++it) {
        trainer.trainIteration(data, rng);
        const double n = trainer.channel(0, 1).storedError().norm();
        if (it == 0)
            first_norm = n;
        last_norm = n;
    }
    EXPECT_GT(first_norm, 0.0);
    EXPECT_LT(last_norm, 100.0 * first_norm + 1.0);
}

TEST(SelectiveStage, SelectsEarliestStages)
{
    DpCompressionConfig config;
    config.enabled = true;
    config.stageFraction = 0.75;
    // P=4 at 75%: stages 0,1,2 compressed, stage 3 exact.
    EXPECT_TRUE(stageSelectedForCompression(config, 0, 4));
    EXPECT_TRUE(stageSelectedForCompression(config, 1, 4));
    EXPECT_TRUE(stageSelectedForCompression(config, 2, 4));
    EXPECT_FALSE(stageSelectedForCompression(config, 3, 4));

    config.stageFraction = 0.0;
    EXPECT_FALSE(stageSelectedForCompression(config, 0, 4));
    config.stageFraction = 1.0;
    EXPECT_TRUE(stageSelectedForCompression(config, 3, 4));
    config.enabled = false;
    EXPECT_FALSE(stageSelectedForCompression(config, 0, 4));
}

TEST(SelectiveStage, CompressedStagesSendFewerBytes)
{
    Trainer3dConfig config = baseTrainerConfig();
    config.dataParallel = 2;
    config.pipelineStages = 2;
    config.dp.enabled = true;
    config.dp.stageFraction = 0.5; // stage 0 only
    config.dp.rank = 2;
    Trainer3d trainer(config);
    LmDataset data = tinyData(config.model.seqLen);
    Rng rng(51);
    const auto stats = trainer.trainIteration(data, rng);
    EXPECT_LT(stats.dpVolume.actualBytes, stats.dpVolume.exactBytes);
}

/**
 * Property sweep: for every (D, P, M) grid shape, two iterations of
 * uncompressed 3D-parallel training produce the same loss stream as
 * the monolithic (D=1, P=1) run over the same sample stream, and
 * replicas stay identical.
 */
class GridEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GridEquivalence, MatchesMonolithicLossStream)
{
    const auto [d_ways, p_ways, m_count] = GetParam();

    auto run = [](int d, int p, int m) {
        Trainer3dConfig config = baseTrainerConfig();
        config.dataParallel = d;
        config.pipelineStages = p;
        config.microBatches = m;
        Trainer3d trainer(config);
        LmDataset data = tinyData(config.model.seqLen);
        Rng rng(91);
        std::vector<double> losses;
        for (int it = 0; it < 2; ++it)
            losses.push_back(trainer.trainIteration(data, rng).loss);
        return std::make_pair(losses, trainer.replicaDivergence());
    };

    // The reference consumes the same total micro-batch stream:
    // D x M micro-batches per iteration on one worker.
    const auto [reference, ref_div] = run(1, 1, d_ways * m_count);
    const auto [grid, grid_div] = run(d_ways, p_ways, m_count);
    ASSERT_EQ(reference.size(), grid.size());
    for (size_t i = 0; i < reference.size(); ++i)
        EXPECT_NEAR(reference[i], grid[i], 2e-4) << "iteration " << i;
    EXPECT_LT(grid_div, 1e-6f);
    EXPECT_EQ(ref_div, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridEquivalence,
    ::testing::Values(std::make_tuple(1, 2, 4),
                      std::make_tuple(1, 4, 4),
                      std::make_tuple(2, 1, 4),
                      std::make_tuple(2, 2, 2),
                      std::make_tuple(3, 2, 2),
                      std::make_tuple(2, 4, 3),
                      std::make_tuple(4, 1, 2)));

TEST(Trainer, LossDecreasesOverTraining)
{
    Trainer3dConfig config = baseTrainerConfig();
    config.dataParallel = 2;
    config.pipelineStages = 2;
    config.learningRate = 3e-3f;
    Trainer3d trainer(config);
    LmDataset data = tinyData(config.model.seqLen);
    Rng rng(55);

    // Per-batch losses are noisy; compare head/tail window means.
    std::vector<double> losses;
    for (int it = 0; it < 60; ++it)
        losses.push_back(trainer.trainIteration(data, rng).loss);
    double head = 0.0, tail = 0.0;
    for (int i = 0; i < 5; ++i) {
        head += losses[i];
        tail += losses[losses.size() - 1 - i];
    }
    EXPECT_LT(tail / 5.0, head / 5.0 - 0.1);
}

TEST(Trainer, MemoryAccountingTracksBuffers)
{
    Trainer3dConfig config = baseTrainerConfig();
    config.pipelineStages = 2;
    config.cb.enabled = true;
    config.cb.epilogueOnly = false;
    config.cb.spec.rank = 2;
    Trainer3d trainer(config);
    EXPECT_EQ(trainer.lepBufferBytes(), 0);
    LmDataset data = tinyData(config.model.seqLen);
    Rng rng(56);
    trainer.trainIteration(data, rng);
    EXPECT_GT(trainer.lepBufferBytes(), 0);
    EXPECT_GT(trainer.compressorStateBytes(), 0);
    EXPECT_GT(trainer.parameterBytes(), 0);
}

} // namespace
} // namespace optimus
