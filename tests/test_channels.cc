/**
 * @file
 * Direct unit tests for BackwardChannel (compression policy, byte
 * accounting, instrumentation) and the DP ReduceEngine (exclusion,
 * compressibility, residual bookkeeping, error feedback), plus the
 * trainer's DP health view at a single replica. Sends and bytes are
 * read off the events a recording Transport captured.
 */

#include <gtest/gtest.h>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "obs/probes.hh"
#include "parallel/channels.hh"
#include "parallel/reduce_engine.hh"
#include "parallel/trainer3d.hh"
#include "test_util.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace optimus
{
namespace
{

CbConfig
powerSgdCb(bool lep, bool epilogue_only, int rank = 2)
{
    CbConfig config;
    config.enabled = true;
    config.lazyErrorPropagation = lep;
    config.epilogueOnly = epilogue_only;
    config.spec.kind = CompressorKind::PowerSgd;
    config.spec.rank = rank;
    return config;
}

/** Sends of channel @p src -> @p src - 1 on @p replica, folded
 *  from the recorded InterStage events. */
CommVolume
channelVolume(const CommTrace &trace, int src, int replica = 0)
{
    CommVolume volume;
    for (const CommEvent &e : trace.events()) {
        if (e.phase == CommPhase::InterStage && e.src == src &&
            e.replica == replica) {
            EXPECT_EQ(e.dst, src - 1);
            volume.add(e);
        }
    }
    return volume;
}

TEST(BackwardChannel, DisabledPassesThroughExactly)
{
    CbConfig config; // enabled = false
    Transport recorder(true);
    BackwardChannel channel(config, 4, 1, 7, &recorder);
    Rng rng(1);
    Tensor grad = Tensor::randn({8, 8}, rng);
    Tensor out = channel.send(grad, 0, 4);
    EXPECT_TRUE(out.allClose(grad, 0.0f));
    const CommVolume volume = channelVolume(recorder.trace(), 1);
    EXPECT_EQ(volume.events, 1);
    EXPECT_EQ(volume.wireBytes, volume.exactBytes);
    EXPECT_EQ(volume.compressedEvents, 0);
}

TEST(BackwardChannel, EpiloguePolicyControlsWhichSendsCompress)
{
    // P=4, channel 1->0, M=8: the receiver's warm-up is 3, so the
    // first 3 sends pass through exactly and the last 5 compress.
    Transport recorder(true);
    BackwardChannel channel(powerSgdCb(true, true), 4, 1, 7,
                            &recorder);
    Rng rng(2);
    for (int m = 0; m < 8; ++m) {
        Tensor grad = Tensor::randn({16, 8}, rng);
        Tensor out = channel.send(grad, m, 8);
        if (m < 3) {
            EXPECT_TRUE(out.allClose(grad, 1e-6f)) << m;
        } else {
            EXPECT_FALSE(out.allClose(grad, 1e-6f)) << m;
        }
    }
    const CommVolume volume = channelVolume(recorder.trace(), 1);
    EXPECT_EQ(volume.compressedEvents, 5);
    EXPECT_EQ(volume.events, 8);
    EXPECT_LT(volume.wireBytes, volume.exactBytes);
}

TEST(BackwardChannel, UncompressedSendResolvesStoredError)
{
    // After a compressed send leaves an error behind, the next
    // *uncompressed* send delivers input + error exactly and clears
    // the buffer (lossless resolution).
    BackwardChannel channel(powerSgdCb(true, false), 2, 1, 7);
    Rng rng(3);
    Tensor g0 = Tensor::randn({8, 8}, rng);
    channel.send(g0, 0, 4); // compressed (epilogueOnly off)
    ASSERT_GT(channel.storedError().size(), 0);
    const Tensor err = channel.storedError();

    // Build a channel where the next message is *not* compressed:
    // epilogue-only with the next micro-batch inside warm-up is not
    // constructible on a 2-stage pipe, so emulate by a fresh
    // channel with epilogueOnly on (warm-up = 1 hidden message).
    BackwardChannel epi(powerSgdCb(true, true), 2, 1, 7);
    Tensor h0 = Tensor::randn({8, 8}, rng);
    Tensor out0 = epi.send(h0, 0, 4); // hidden -> exact
    EXPECT_TRUE(out0.allClose(h0, 0.0f));
    EXPECT_EQ(epi.storedError().size(), 0);
}

TEST(BackwardChannel, LepStoresAndFoldsError)
{
    BackwardChannel channel(powerSgdCb(true, false), 2, 1, 5);
    Rng rng(12);
    Tensor g1 = Tensor::randn({10, 10}, rng);
    const Tensor out1 = channel.send(g1, 0, 2);
    Tensor err1 = g1;
    err1.sub(out1);
    EXPECT_TRUE(channel.storedError().allClose(err1, 1e-5f));

    // Second send compresses (g2 + err1).
    Tensor g2 = Tensor::randn({10, 10}, rng);
    const Tensor out2 = channel.send(g2, 1, 2);
    Tensor err2 = g2;
    err2.add(err1);
    err2.sub(out2);
    EXPECT_TRUE(channel.storedError().allClose(err2, 1e-5f));
    EXPECT_EQ(channel.errorBufferBytes(), 4 * 100);
}

TEST(BackwardChannel, LepOffKeepsNoState)
{
    BackwardChannel channel(powerSgdCb(false, false), 2, 1, 5);
    Rng rng(13);
    for (int m = 0; m < 2; ++m)
        channel.send(Tensor::randn({10, 10}, rng), m, 2);
    EXPECT_EQ(channel.storedError().size(), 0);
    EXPECT_EQ(channel.errorBufferBytes(), 0);
}

TEST(BackwardChannel, LepTelescopesOverMicroBatches)
{
    // The LEP guarantee: sum(delivered) + stored error ==
    // sum(true gradients) -- the compression error never escapes
    // the mini-batch except as the final stored residual. With the
    // epilogue policy the first 3 of 8 sends are exact (P=4,
    // channel 1->0) and resolve the carried error losslessly.
    for (bool epilogue_only : {false, true}) {
        SCOPED_TRACE(epilogue_only ? "epilogueOnly" : "every send");
        BackwardChannel channel(powerSgdCb(true, epilogue_only), 4, 1,
                                5);
        Rng rng(14);
        Tensor true_sum({14, 10});
        Tensor delivered_sum({14, 10});
        for (int m = 0; m < 8; ++m) {
            Tensor g = Tensor::randn({14, 10}, rng);
            true_sum.add(g);
            delivered_sum.add(channel.send(g, m, 8));
        }
        ASSERT_EQ(channel.storedError().size(), true_sum.size());
        Tensor lhs = delivered_sum;
        lhs.add(channel.storedError());
        EXPECT_TRUE(lhs.allClose(true_sum, 1e-3f));
    }
}

TEST(BackwardChannel, ShapeChangeDropsStaleError)
{
    // [5 x 8] after [10 x 4]: equal element count, so a size check
    // alone would fold the stale error into an unrelated gradient.
    BackwardChannel channel(powerSgdCb(true, false), 2, 1, 5);
    Rng rng(24);
    Tensor g1 = Tensor::randn({10, 4}, rng);
    channel.send(g1, 0, 2);
    ASSERT_EQ(channel.storedError().rows(), 10);

    Tensor g2 = Tensor::randn({5, 8}, rng);
    const Tensor out = channel.send(g2, 1, 2);
    Tensor fresh = g2;
    fresh.sub(out);
    EXPECT_EQ(channel.storedError().rows(), 5);
    EXPECT_TRUE(channel.storedError().allClose(fresh, 1e-5f));
}

TEST(BackwardChannel, ByteAccountingMatchesPayloads)
{
    CbConfig config = powerSgdCb(true, false, 2);
    Transport recorder(true);
    BackwardChannel channel(config, 2, 1, 7, &recorder, 3);
    Rng rng(4);
    Tensor grad = Tensor::randn({16, 8}, rng);
    channel.send(grad, 0, 1);
    // Events carry the channel's replica tag.
    EXPECT_EQ(channelVolume(recorder.trace(), 1, 0).events, 0);
    const CommVolume volume = channelVolume(recorder.trace(), 1, 3);
    EXPECT_EQ(volume.events, 1);
    // Compressed payload: rank * (rows + cols) * 4 bytes.
    EXPECT_EQ(volume.wireBytes, 4 * 2 * (16 + 8));
    EXPECT_EQ(volume.exactBytes, 4 * grad.size());
}

TEST(BackwardChannel, InstrumentationRecordsCompressedSendsOnly)
{
    BackwardChannel channel(powerSgdCb(true, true), 4, 1, 7);
    channel.enableInstrumentation(true);
    Rng rng(5);
    for (int m = 0; m < 8; ++m) {
        Tensor act = Tensor::randn({16, 8}, rng);
        channel.observeForward(act, m);
        Tensor grad = Tensor::randn({16, 8}, rng);
        channel.send(grad, m, 8);
    }
    // 5 compressed sends (see EpiloguePolicy test) -> 5 records.
    ASSERT_EQ(channel.sendStats().size(), 5u);
    for (const auto &rec : channel.sendStats()) {
        EXPECT_TRUE(rec.compressed);
        EXPECT_GE(rec.microBatch, 3);
        EXPECT_LE(std::abs(rec.cosine), 1.0);
    }
}

TEST(BackwardChannel, ResetClearsEverything)
{
    BackwardChannel channel(powerSgdCb(true, false), 2, 1, 7);
    Rng rng(6);
    Tensor grad = Tensor::randn({8, 8}, rng);
    obs::enableProbes(true);
    obs::probeStepBegin(0);
    channel.send(grad, 0, 2);
    obs::enableProbes(false);
    EXPECT_GT(channel.health().inputNormSq, 0.0);
    EXPECT_GT(channel.health().residualNormSq, 0.0);
    channel.reset();
    EXPECT_EQ(channel.health().inputNormSq, 0.0);
    EXPECT_EQ(channel.health().cosineCount, 0);
    EXPECT_EQ(channel.health().residualNormSq, 0.0);
    EXPECT_EQ(channel.storedError().size(), 0);
    EXPECT_EQ(channel.errorBufferBytes(), 0);
}

/**
 * BackwardChannel::send with copy-based error feedback: the fed
 * message is a fresh copy of the gradient plus the stored error, the
 * new error a copy of the fed message minus the delivery, and an
 * exact send frees the error. Also reports each compressed send's
 * instrumentation error mean.
 */
class CopyFoldChannelOracle
{
  public:
    CopyFoldChannelOracle(const CbConfig &config, int stages, int stage,
                          uint64_t seed)
        : config_(config), stages_(stages), stage_(stage)
    {
        CompressorSpec spec = config.spec;
        spec.seed = seed;
        compressor_ = makeCompressor(spec);
    }

    Tensor
    copyingSend(const Tensor &grad, int micro_batch, int micro_batches)
    {
        const bool compress_this =
            !config_.epilogueOnly ||
            isEpilogueBackward(stages_, micro_batches, stage_,
                               micro_batch);
        Tensor fed = grad;
        if (error_.shape() == grad.shape())
            fed.add(error_);
        else
            error_ = Tensor();
        Tensor delivered;
        if (compress_this) {
            compressor_->compress(fed, delivered);
            Tensor err = grad;
            if (config_.lazyErrorPropagation) {
                error_ = fed;
                error_.sub(delivered);
                err = error_;
            } else {
                err.sub(delivered);
            }
            errorMeans_.push_back(mean(err.data(), err.size()));
        } else {
            delivered = std::move(fed);
            error_ = Tensor();
        }
        return delivered;
    }

    const Tensor &error() const { return error_; }
    const std::vector<double> &errorMeans() const { return errorMeans_; }

  private:
    CbConfig config_;
    int stages_, stage_;
    std::unique_ptr<Compressor> compressor_;
    Tensor error_;
    std::vector<double> errorMeans_;
};

using test::sameBits;

TEST(BackwardChannel, InPlaceFoldBitwiseMatchesCopyingFold)
{
    // Folding into the stored error's own storage keeps the bits of
    // the copy-based fold: every delivery, the stored error after
    // every send, the instrumentation error means and the health
    // residual, with LEP on and off, and with the epilogue policy
    // sending the first 3 of 8 messages exactly (P=4, channel 1->0).
    // The third mini-batch changes the message shape.
    for (bool lep : {true, false}) {
        for (bool epilogue_only : {false, true}) {
            const std::string where =
                std::string(lep ? "lep" : "no-lep") +
                (epilogue_only ? " epilogueOnly" : " every send");
            const CbConfig config = powerSgdCb(lep, epilogue_only);
            BackwardChannel channel(config, 4, 1, 9);
            channel.enableInstrumentation(true);
            CopyFoldChannelOracle oracle(config, 4, 1, 9);
            Rng rng(31);
            for (int step = 0; step < 3; ++step) {
                const ShapeVec shape =
                    step < 2 ? ShapeVec{14, 10} : ShapeVec{10, 14};
                for (int m = 0; m < 8; ++m) {
                    const Tensor g = Tensor::randn(shape, rng);
                    const Tensor out = channel.send(g, m, 8);
                    const Tensor ref = oracle.copyingSend(g, m, 8);
                    ASSERT_TRUE(sameBits(out, ref))
                        << where << " step=" << step << " m=" << m;
                    ASSERT_TRUE(
                        sameBits(channel.storedError(), oracle.error()))
                        << where << " step=" << step << " m=" << m;
                }
            }
            const auto &stats = channel.sendStats();
            ASSERT_EQ(stats.size(), oracle.errorMeans().size()) << where;
            for (size_t i = 0; i < stats.size(); ++i)
                EXPECT_EQ(stats[i].errorMean, oracle.errorMeans()[i])
                    << where << " send " << i;
            EXPECT_EQ(channel.health().residualNormSq,
                      obs::l2NormSq(oracle.error().data(),
                                    static_cast<size_t>(
                                        oracle.error().size())))
                << where;
        }
    }
}

TEST(ReduceEngine, CompressibleRequiresRealMatrix)
{
    Param matrix("w", Tensor::zeros(8, 8));
    Param vector_param("b", Tensor::zeros(8));
    Param skinny("s", Tensor::zeros(1, 8));
    EXPECT_TRUE(ReduceEngine::compressible(matrix));
    EXPECT_FALSE(ReduceEngine::compressible(vector_param));
    EXPECT_FALSE(ReduceEngine::compressible(skinny));
}

/** Engine config of a compressed stage. */
ReduceEngineConfig
compressedEngine()
{
    ReduceEngineConfig config;
    config.rank = 2;
    config.compressStage = true;
    config.seed = 7;
    return config;
}

/** One engine iteration with every replica signalling done. */
void
reduceOnce(ReduceEngine &engine, int workers)
{
    TaskGroup group;
    engine.beginIteration(group);
    for (int d = 0; d < workers; ++d)
        engine.notifyReplicaDone();
    group.wait();
}

TEST(ReduceEngine, ExclusionLeavesGradientsUntouched)
{
    Transport recorder(true);
    ReduceEngineConfig config;
    config.transport = &recorder;
    auto p0 = std::make_shared<Param>("w", Tensor::zeros(2, 2));
    auto p1 = std::make_shared<Param>("w", Tensor::zeros(2, 2));
    p0->grad.fill(1.0f);
    p1->grad.fill(3.0f);
    ReduceEngine engine(config, {{p0}, {p1}}, {p0.get(), p1.get()});
    reduceOnce(engine, 2);
    // Untouched: still different, and nothing went on the wire.
    EXPECT_FLOAT_EQ(p0->grad[0], 1.0f);
    EXPECT_FLOAT_EQ(p1->grad[0], 3.0f);
    EXPECT_EQ(recorder.trace().size(), 0u);
}

TEST(ReduceEngine, CompressedReduceKeepsReplicasIdentical)
{
    Transport recorder(true);
    ReduceEngineConfig config = compressedEngine();
    config.transport = &recorder;
    Rng rng(8);
    std::vector<std::vector<ParamPtr>> workers(3);
    for (int d = 0; d < 3; ++d) {
        auto p = std::make_shared<Param>("w", Tensor::zeros(12, 12));
        p->grad = Tensor::randn({12, 12}, rng);
        workers[d] = {p};
    }
    ReduceEngine engine(config, workers);
    reduceOnce(engine, 3);
    const CommVolume volume =
        recorder.trace().volume(CommPhase::DpReduce);
    EXPECT_EQ(volume.compressedEvents, 1);
    EXPECT_LT(volume.wireBytes, volume.exactBytes);
    // All replicas hold the identical reconstruction.
    EXPECT_TRUE(workers[0][0]->grad.allClose(workers[1][0]->grad,
                                             0.0f));
    EXPECT_TRUE(workers[0][0]->grad.allClose(workers[2][0]->grad,
                                             0.0f));
    // Residuals are tracked per worker.
    const auto norms = engine.residualNorms();
    ASSERT_EQ(norms.size(), 3u);
    for (double n : norms)
        EXPECT_GT(n, 0.0);
    EXPECT_GT(engine.stateBytes(), 0);
}

TEST(ReduceEngine, ErrorFeedbackConvergesOnConstantGradient)
{
    // With a constant gradient, error feedback makes the *average*
    // delivered reduction converge to the true mean.
    Rng rng(9);
    const Tensor truth = Tensor::randn({10, 10}, rng);
    Tensor delivered_sum({10, 10});
    const int steps = 40;
    auto p0 = std::make_shared<Param>("w", Tensor::zeros(10, 10));
    auto p1 = std::make_shared<Param>("w", Tensor::zeros(10, 10));
    ReduceEngine engine(compressedEngine(), {{p0}, {p1}});
    for (int step = 0; step < steps; ++step) {
        p0->grad = truth;
        p1->grad = truth;
        reduceOnce(engine, 2);
        delivered_sum.add(p0->grad);
    }
    delivered_sum.scale(1.0f / steps);
    EXPECT_LT(sub(delivered_sum, truth).norm() / truth.norm(), 0.15);
}

TEST(Trainer3dDpHealth, SingleReplicaCompressedStageReportsHealth)
{
    // A single replica still reduces through the engine, so DP
    // compression at D=1 shows up in the DP health view.
    GptConfig model;
    model.vocab = 24;
    model.hidden = 16;
    model.layers = 4;
    model.heads = 2;
    model.seqLen = 8;
    model.seed = 77;
    Trainer3dConfig config;
    config.model = model;
    config.dataParallel = 1;
    config.pipelineStages = 2;
    config.microBatches = 2;
    config.microBatchSize = 2;
    config.dp.enabled = true;
    config.dp.stageFraction = 0.75;
    config.dp.rank = 2;

    CorpusConfig cc;
    cc.vocab = model.vocab;
    cc.totalTokens = 6000;
    cc.seed = 5;
    SyntheticCorpus corpus(cc);
    const LmDataset data(corpus.train(), model.seqLen);

    obs::enableProbes(true);
    obs::setProbeInterval(1);
    obs::CompressionHealth health;
    {
        Trainer3d trainer(config);
        Rng rng(3);
        for (int it = 0; it < 3; ++it)
            trainer.trainIteration(data, rng);
        health = trainer.dpHealth();
    }
    obs::enableProbes(false);
    obs::setProbeInterval(16);

    EXPECT_GT(health.compressedSends, 0);
    EXPECT_LT(health.wireBytes, health.exactBytes);
    EXPECT_GT(health.inputNormSq, 0.0);
}

} // namespace
} // namespace optimus
