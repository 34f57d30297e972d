/**
 * @file
 * The quality-pillar experiment runner: trains the miniature GPT
 * with the real 3D-parallel engine under a technique preset and
 * reports the metrics the paper's tables and figures are built
 * from -- validation perplexity (curve and final), zero-shot probe
 * accuracies, communication volumes, and the Fig 11 channel
 * statistics.
 */

#ifndef OPTIMUS_CORE_QUALITY_EXPERIMENT_HH
#define OPTIMUS_CORE_QUALITY_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "data/corpus.hh"
#include "parallel/trainer3d.hh"

namespace optimus
{

/** Scale and schedule of one quality run. */
struct QualityRunConfig
{
    /** Miniature model (defaults chosen for ~seconds-per-run). */
    GptConfig model{24, 32, 4, 4, 8, 0.02f, 77};
    int dataParallel = 2;
    int pipelineStages = 2;
    int microBatches = 4;
    int microBatchSize = 4;
    float learningRate = 5e-3f;
    int iterations = 300;
    /** Validation cadence for the PPL curve (0 = final only). */
    int evalEvery = 0;
    CorpusConfig corpus{24, 20000, 4, 0.55, 0.3, 0.05, 5};
    uint64_t dataSeed = 55;
    /** Collect Fig 11 channel statistics. */
    bool instrument = false;
    /** Zero-shot probe examples per task (0 = skip zero-shot). */
    int zeroShotExamples = 0;
    /**
     * Record the run's communication into a CommTrace and fold the
     * per-phase totals into the result (pure observation; results
     * are bitwise identical either way).
     */
    bool traceCommunication = false;
    /**
     * Collect the obs:: metrics registry over the run and snapshot
     * it into QualityResult::metrics (sorted names, integer values;
     * deterministic at any OPTIMUS_THREADS). Resets the registry's
     * values at the start of the run.
     */
    bool collectMetrics = false;
    /**
     * Span-trace output path, plumbed to Trainer3dConfig::tracePath
     * (written when the run's trainer is destroyed).
     */
    std::string tracePath;
};

/** Everything a quality run measures. */
struct QualityResult
{
    std::string presetName;
    double finalPerplexity = 0.0;
    /** (iteration, validation PPL) samples. */
    std::vector<std::pair<int, double>> pplCurve;
    /** Task name -> accuracy (when zeroShotExamples > 0). */
    std::map<std::string, double> zeroShot;
    /** Inter-stage backward bytes: sent vs uncompressed. */
    int64_t interStageBytes = 0;
    int64_t interStageBytesExact = 0;
    /** DP gradient bytes: sent vs uncompressed (last iteration). */
    int64_t dpBytes = 0;
    int64_t dpBytesExact = 0;
    /** Fig 11 per-send channel statistics (instrumented runs). */
    std::vector<ChannelSendStats> channelStats;
    /** Fig 12-style measured buffer bytes. */
    int64_t lepBufferBytes = 0;
    int64_t compressorStateBytes = 0;
    int64_t parameterBytes = 0;
    /** Mean training loss of the last 10% of iterations. */
    double tailTrainLoss = 0.0;
    /** Trace summary (traceCommunication runs only). */
    int64_t traceEvents = 0;
    CommVolume traceInterStage;
    CommVolume traceDp;
    CommVolume traceEmb;
    /** Metrics-registry snapshot (collectMetrics runs only). */
    std::map<std::string, int64_t> metrics;

    /** Volume reduction of inter-stage traffic, in [0, 1). */
    double interStageSaving() const;
};

/** Train under @p preset and measure. */
QualityResult runQualityExperiment(const QualityRunConfig &config,
                                   const TechniquePreset &preset);

/**
 * Entropy floor of the run's corpus as a perplexity (the best any
 * model could reach), for annotating results.
 */
double perplexityFloor(const QualityRunConfig &config);

/**
 * Direct measurement of Section 5.1's claim: how well does the
 * accumulated weight gradient under compressed backpropagation
 * approximate the exact gradient (Eq. 10 vs Eq. 7)?
 *
 * Two trainers with identical initial weights process the same
 * mini-batch (for several independent mini-batches), one exactly
 * and one under @p preset's compression; the reported value is the
 * mean relative L2 error of the accumulated gradients,
 * ||G* - G|| / ||G||, averaged over parameters and trials.
 *
 * @param trials Number of independent mini-batches measured.
 */
double gradientApproximationError(const QualityRunConfig &config,
                                  const TechniquePreset &preset,
                                  int trials = 4);

} // namespace optimus

#endif // OPTIMUS_CORE_QUALITY_EXPERIMENT_HH
