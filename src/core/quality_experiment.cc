#include "core/quality_experiment.hh"

#include <cmath>

#include "data/zeroshot.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace optimus
{

double
QualityResult::interStageSaving() const
{
    if (interStageBytesExact <= 0)
        return 0.0;
    return 1.0 - static_cast<double>(interStageBytes) /
                     static_cast<double>(interStageBytesExact);
}

QualityResult
runQualityExperiment(const QualityRunConfig &config,
                     const TechniquePreset &preset)
{
    OPTIMUS_ASSERT(config.iterations >= 1);
    OPTIMUS_ASSERT(config.model.vocab == config.corpus.vocab);

    Trainer3dConfig tc;
    tc.model = config.model;
    tc.dataParallel = config.dataParallel;
    tc.pipelineStages = config.pipelineStages;
    tc.microBatches = config.microBatches;
    tc.microBatchSize = config.microBatchSize;
    tc.learningRate = config.learningRate;
    tc.cb = preset.cb;
    tc.dp = preset.dp;
    tc.fusedEmbeddingSync = preset.fusedEmbeddingSync;
    tc.instrumentChannels = config.instrument;
    tc.traceCommunication = config.traceCommunication;
    tc.tracePath = config.tracePath;

    if (config.collectMetrics) {
        obs::MetricsRegistry::instance().resetValues();
        obs::enableMetrics(true);
    }

    Trainer3d trainer(tc);
    SyntheticCorpus corpus(config.corpus);
    LmDataset train(corpus.train(), config.model.seqLen);
    LmDataset val(corpus.validation(), config.model.seqLen);

    QualityResult result;
    result.presetName = preset.name;

    Rng data_rng(config.dataSeed);
    const int tail_begin = config.iterations * 9 / 10;
    int tail_count = 0;
    for (int it = 0; it < config.iterations; ++it) {
        const IterationStats stats =
            trainer.trainIteration(train, data_rng);
        result.dpBytes = stats.dpVolume.actualBytes;
        result.dpBytesExact = stats.dpVolume.exactBytes;
        if (it >= tail_begin) {
            result.tailTrainLoss += stats.loss;
            ++tail_count;
        }
        if (config.evalEvery > 0 &&
            ((it + 1) % config.evalEvery == 0 || it == 0)) {
            result.pplCurve.emplace_back(
                it + 1, trainer.validatePerplexity(val));
        }
    }
    if (tail_count > 0)
        result.tailTrainLoss /= tail_count;
    const CommVolume inter_stage =
        trainer.commVolume(CommPhase::InterStage);
    result.interStageBytes = inter_stage.wireBytes;
    result.interStageBytesExact = inter_stage.exactBytes;

    result.finalPerplexity = trainer.validatePerplexity(val);
    if (config.evalEvery > 0 &&
        (result.pplCurve.empty() ||
         result.pplCurve.back().first != config.iterations)) {
        result.pplCurve.emplace_back(config.iterations,
                                     result.finalPerplexity);
    }

    if (config.zeroShotExamples > 0) {
        ZeroShotSuiteConfig suite;
        suite.examplesPerTask = config.zeroShotExamples;
        suite.seed = 99;
        const auto tasks = makeStandardZeroShotTasks(
            corpus.validation(), config.model.seqLen,
            config.model.vocab, suite);
        for (const auto &task : tasks)
            result.zeroShot[task.name()] =
                task.evaluate(trainer.scorer());
    }

    if (config.instrument) {
        for (int d = 0; d < config.dataParallel; ++d) {
            for (int s = 1; s < config.pipelineStages; ++s) {
                const auto &stats =
                    trainer.channel(d, s).sendStats();
                result.channelStats.insert(result.channelStats.end(),
                                           stats.begin(),
                                           stats.end());
            }
        }
    }

    result.lepBufferBytes = trainer.lepBufferBytes();
    result.compressorStateBytes = trainer.compressorStateBytes();
    result.parameterBytes = trainer.parameterBytes();

    if (const CommTrace *trace = trainer.trace()) {
        result.traceEvents = static_cast<int64_t>(trace->size());
        result.traceInterStage =
            trace->volume(CommPhase::InterStage);
        result.traceDp = trace->volume(CommPhase::DpReduce);
        result.traceEmb = trace->volume(CommPhase::EmbSync);
    }
    if (config.collectMetrics) {
        obs::enableMetrics(false);
        result.metrics =
            obs::MetricsRegistry::instance().counterSnapshot();
    }
    return result;
}

double
perplexityFloor(const QualityRunConfig &config)
{
    SyntheticCorpus corpus(config.corpus);
    return std::exp(corpus.entropyFloor());
}

double
gradientApproximationError(const QualityRunConfig &config,
                           const TechniquePreset &preset, int trials)
{
    OPTIMUS_ASSERT(trials >= 1);

    Trainer3dConfig tc;
    tc.model = config.model;
    tc.dataParallel = config.dataParallel;
    tc.pipelineStages = config.pipelineStages;
    tc.microBatches = config.microBatches;
    tc.microBatchSize = config.microBatchSize;
    tc.applyUpdates = false; // keep the accumulated gradients

    Trainer3dConfig tc_exact = tc;
    tc_exact.cb = CbConfig{};
    tc_exact.dp = DpCompressionConfig{};

    Trainer3dConfig tc_compressed = tc;
    tc_compressed.cb = preset.cb;
    tc_compressed.dp = preset.dp;
    tc_compressed.fusedEmbeddingSync = preset.fusedEmbeddingSync;

    SyntheticCorpus corpus(config.corpus);
    LmDataset train(corpus.train(), config.model.seqLen);

    double total_rel_err = 0.0;
    int measured = 0;
    for (int trial = 0; trial < trials; ++trial) {
        // Fresh trainers per trial so gradients start from zero;
        // vary the model seed so the measurement is not tied to one
        // initialization.
        tc_exact.model.seed = config.model.seed + trial;
        tc_compressed.model.seed = config.model.seed + trial;
        Trainer3d exact(tc_exact);
        Trainer3d compressed(tc_compressed);

        // Identical data order.
        Rng rng_a(config.dataSeed + trial);
        Rng rng_b(config.dataSeed + trial);
        exact.trainIteration(train, rng_a);
        compressed.trainIteration(train, rng_b);

        // Compare the reduced gradients of replica 0, stage by
        // stage (parameter lists align by construction).
        double num_sq = 0.0, den_sq = 0.0;
        for (int p = 0; p < tc.pipelineStages; ++p) {
            const auto ga = exact.stage(0, p).params();
            const auto gb = compressed.stage(0, p).params();
            OPTIMUS_ASSERT(ga.size() == gb.size());
            for (size_t j = 0; j < ga.size(); ++j) {
                const Tensor &a = ga[j]->grad;
                const Tensor &b = gb[j]->grad;
                OPTIMUS_ASSERT(a.size() == b.size());
                for (int64_t i = 0; i < a.size(); ++i) {
                    const double d = static_cast<double>(a[i]) - b[i];
                    num_sq += d * d;
                    den_sq += static_cast<double>(a[i]) * a[i];
                }
            }
        }
        if (den_sq > 0.0) {
            total_rel_err += std::sqrt(num_sq / den_sq);
            ++measured;
        }
    }
    OPTIMUS_ASSERT(measured > 0);
    return total_rel_err / measured;
}

} // namespace optimus
