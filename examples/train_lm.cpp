/**
 * @file
 * Full training CLI for the miniature GPT on the synthetic corpus,
 * with every Optimus-CC knob exposed. Prints a perplexity curve and
 * (optionally) writes it to CSV.
 *
 * Examples:
 *   train_lm --iters 400
 *   train_lm --cb --fe --sc --sc-fraction 0.75 --iters 400
 *   train_lm --cb --no-lep --cb-rank 2          # Table 4 ablation
 *   train_lm --dp-compress --dp-rank 2          # naive DP
 *   train_lm --pipeline 4 --data 2 --micro-batches 8
 *   train_lm --csv curve.csv
 */

#include <cstdio>

#include "core/optimus.hh"
#include "util/cli.hh"
#include "util/csv_writer.hh"
#include "util/table_printer.hh"

using namespace optimus;

namespace
{

void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  model/schedule:\n"
        "    --hidden N         model width (default 32)\n"
        "    --layers N         transformer blocks (default 4)\n"
        "    --pipeline N       pipeline stages (default 2)\n"
        "    --data N           data-parallel replicas (default 2)\n"
        "    --micro-batches N  micro-batches per iter (default 4)\n"
        "    --iters N          training iterations (default 300)\n"
        "    --lr X             Adam learning rate (default 5e-3)\n"
        "    --eval-every N     PPL curve cadence (default 50)\n"
        "  Optimus-CC techniques:\n"
        "    --cb               compressed backpropagation\n"
        "    --cb-rank N        CB PowerSGD rank (default 2)\n"
        "    --no-lep           disable lazy error propagation\n"
        "    --no-epilogue      compress every backward message\n"
        "    --cb-topk          top-k instead of low-rank for CB\n"
        "    --fe               fused embedding synchronization\n"
        "    --sc               selective stage compression (DP)\n"
        "    --sc-fraction X    compressed stage fraction (0.75)\n"
        "    --dp-compress      compress DP traffic on all stages\n"
        "    --dp-rank N        DP PowerSGD rank (default 2)\n"
        "  output:\n"
        "    --csv PATH         write the PPL curve as CSV\n"
        "    --zero-shot N      evaluate N zero-shot examples/task\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    if (args.has("help")) {
        printUsage(argv[0]);
        return 0;
    }

    QualityRunConfig config;
    config.model.hidden = args.getInt("hidden", 32);
    config.model.layers = args.getInt("layers", 4);
    config.pipelineStages =
        static_cast<int>(args.getInt("pipeline", 2));
    config.dataParallel = static_cast<int>(args.getInt("data", 2));
    config.microBatches =
        static_cast<int>(args.getInt("micro-batches", 4));
    config.iterations = static_cast<int>(args.getInt("iters", 300));
    config.learningRate =
        static_cast<float>(args.getDouble("lr", 5e-3));
    config.evalEvery =
        static_cast<int>(args.getInt("eval-every", 50));
    config.zeroShotExamples =
        static_cast<int>(args.getInt("zero-shot", 0));

    TechniquePreset preset;
    preset.name = "custom";
    if (args.getBool("cb")) {
        preset.cb.enabled = true;
        preset.cb.lazyErrorPropagation = !args.getBool("no-lep");
        preset.cb.epilogueOnly = !args.getBool("no-epilogue");
        preset.cb.spec.kind = args.getBool("cb-topk")
                                  ? CompressorKind::TopK
                                  : CompressorKind::PowerSgd;
        preset.cb.spec.rank =
            static_cast<int>(args.getInt("cb-rank", 2));
    }
    preset.fusedEmbeddingSync = args.getBool("fe");
    if (args.getBool("sc") || args.getBool("dp-compress")) {
        preset.dp.enabled = true;
        preset.dp.stageFraction =
            args.getBool("dp-compress")
                ? 1.0
                : args.getDouble("sc-fraction", 0.75);
        preset.dp.rank =
            static_cast<int>(args.getInt("dp-rank", 2));
    }

    std::printf("training %lld-param miniature GPT "
                "(D=%d, P=%d, M=%d, %d iters; PPL floor %.2f)\n",
                static_cast<long long>(config.model.paramCount()),
                config.dataParallel, config.pipelineStages,
                config.microBatches, config.iterations,
                perplexityFloor(config));
    std::printf("techniques: CB=%s (lep=%s, epilogue=%s, %s) "
                "FE=%s SC=%s (fraction %.2f)\n",
                preset.cb.enabled ? "on" : "off",
                preset.cb.lazyErrorPropagation ? "on" : "off",
                preset.cb.epilogueOnly ? "on" : "off",
                preset.cb.spec.describe().c_str(),
                preset.fusedEmbeddingSync ? "on" : "off",
                preset.dp.enabled ? "on" : "off",
                preset.dp.stageFraction);

    const auto result = runQualityExperiment(config, preset);

    TablePrinter curve({"Iteration", "Val PPL"});
    for (const auto &[it, ppl] : result.pplCurve)
        curve.addRow({std::to_string(it), TablePrinter::fmt(ppl, 3)});
    curve.print();

    std::printf("final validation PPL: %.3f\n",
                result.finalPerplexity);
    std::printf("inter-stage traffic saved: %.1f%%  "
                "(%.2f MB -> %.2f MB per run)\n",
                result.interStageSaving() * 100.0,
                result.interStageBytesExact / 1e6,
                result.interStageBytes / 1e6);

    if (!result.zeroShot.empty()) {
        TablePrinter zs({"Task", "Accuracy"});
        for (const auto &[name, acc] : result.zeroShot)
            zs.addRow({name, TablePrinter::fmtPercent(acc)});
        zs.print();
    }

    const std::string csv_path = args.getString("csv");
    if (!csv_path.empty()) {
        CsvWriter csv(csv_path, {"iteration", "val_ppl"});
        for (const auto &[it, ppl] : result.pplCurve)
            csv.writeRow({static_cast<double>(it), ppl});
        std::printf("curve written to %s\n", csv_path.c_str());
    }
    return 0;
}
