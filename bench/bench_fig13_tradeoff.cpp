/**
 * @file
 * Fig 13 reproduction: the speed/quality trade-off of selective
 * stage compression versus adjusting the compression rank, on
 * GPT-2.5B.
 *
 * Left: sweep the fraction of stages compressed (speedup from the
 * cluster simulator, PPL from real miniature training).
 * Middle: sweep the rank instead.
 * Right: the paper's conclusion -- SC dominates rank-adjustment
 * (higher speedup at comparable PPL), and very large ranks *lose*
 * speed because compression cost explodes (Section 9.6).
 */

#include "bench_util.hh"

using namespace optimus;
using namespace optimus::bench;

namespace
{

double
scSpeedup(double stage_fraction, int rank)
{
    MappedWorkload w(HardwareConfig::a100Cluster(),
                     GptModelSpec::gpt2_5b(), ParallelConfig{},
                     TrainingPlan{});
    OptimusCcPolicy base = OptimusCcPolicy::baseline();
    OptimusCcPolicy policy = base;
    policy.sc = stage_fraction > 0.0;
    policy.scStageFraction = stage_fraction;
    policy.dpRank = rank;
    return trainingDays(w, base) / trainingDays(w, policy) - 1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    banner("Fig 13 -- selective stage compression vs rank tuning",
           "Fig 13 (GPT-2.5B speed/PPL trade-off)");

    QualityRunConfig config = standardQualityConfig(args);
    config.pipelineStages = 4;
    config.dataParallel = 2;
    config.microBatches = 4;
    config.microBatchSize = 1;

    // ---- Left: stage-fraction sweep at fixed rank.
    std::printf("selective stage compression sweep "
                "(rank fixed; paper: smooth PPL/speed knob):\n");
    TablePrinter left({"Stages compressed", "Speedup (sim)",
                       "Val PPL (measured)"});
    for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        TechniquePreset preset = presets::baseline();
        preset.name = "sc";
        if (fraction > 0.0) {
            preset.dp.enabled = true;
            preset.dp.stageFraction = fraction;
            preset.dp.rank = 2;
        }
        const auto result = runQualityExperiment(config, preset);
        char label[16];
        std::snprintf(label, sizeof(label), "%.0f%%",
                      fraction * 100.0);
        left.addRow({label,
                     TablePrinter::fmtPercent(
                         scSpeedup(fraction, 128)),
                     TablePrinter::fmt(result.finalPerplexity, 3)});
    }
    left.print();

    // ---- Middle: rank sweep with all stages compressed.
    // Perf side uses paper-scale ranks; quality side scales the
    // rank to the miniature matrices (rank r on hidden-32 matrices
    // plays the role of rank 32*r at hidden 1920).
    std::printf("\nrank sweep (all stages compressed; paper: "
                "non-linear, and rank 512 loses speed too):\n");
    TablePrinter middle({"Rank (paper-scale)", "Speedup (sim)",
                         "Val PPL (measured, scaled rank)"});
    const std::pair<int, int> ranks[] = {
        {32, 1}, {64, 2}, {128, 4}, {512, 12}};
    for (const auto &[paper_rank, mini_rank] : ranks) {
        TechniquePreset preset = presets::baseline();
        preset.name = "rank";
        preset.dp.enabled = true;
        preset.dp.stageFraction = 1.0;
        preset.dp.rank = mini_rank;
        const auto result = runQualityExperiment(config, preset);
        middle.addRow({std::to_string(paper_rank),
                       TablePrinter::fmtPercent(
                           scSpeedup(1.0, paper_rank)),
                       TablePrinter::fmt(result.finalPerplexity,
                                         3)});
    }
    middle.print();

    std::printf("\npaper (right plot): SC points dominate "
                "rank-tuning points toward the upper-left\n"
                "(more speedup at the same or better PPL); high "
                "ranks pay heavy compression cost.\n");
    return 0;
}
