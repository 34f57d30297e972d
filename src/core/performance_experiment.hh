/**
 * @file
 * The performance-pillar experiment runner: evaluates technique
 * presets on the paper-scale cluster/pipeline simulator and emits
 * the rows of Table 2, the Fig 3/10 breakdowns, and the Fig 13/14/16
 * sweeps.
 */

#ifndef OPTIMUS_CORE_PERFORMANCE_EXPERIMENT_HH
#define OPTIMUS_CORE_PERFORMANCE_EXPERIMENT_HH

#include <string>
#include <vector>

#include "core/presets.hh"
#include "pipesim/trace_replay.hh"

namespace optimus
{

/** One row of a Table 2-style performance comparison. */
struct PerformanceRow
{
    std::string config;
    double iterationSeconds = 0.0;
    double trainingDays = 0.0;
    /** Speedup over the first (baseline) row: T_base/T - 1. */
    double speedup = 0.0;
    IterationBreakdown breakdown;
};

/**
 * Run the preset ladder on one (hardware, model, layout, plan) and
 * return one row per preset; row 0 is the speedup reference.
 */
std::vector<PerformanceRow>
runPerformanceAblation(const HardwareConfig &hw,
                       const GptModelSpec &model,
                       const ParallelConfig &parallel,
                       const TrainingPlan &plan,
                       const std::vector<TechniquePreset> &presets);

/** Convenience: the Table 1 cluster and plan. */
PerformanceRow
runPerformanceRow(const HardwareConfig &hw, const GptModelSpec &model,
                  const ParallelConfig &parallel,
                  const TrainingPlan &plan,
                  const TechniquePreset &preset);

} // namespace optimus

#endif // OPTIMUS_CORE_PERFORMANCE_EXPERIMENT_HH
