#include "core/performance_experiment.hh"

#include "util/logging.hh"

namespace optimus
{

PerformanceRow
runPerformanceRow(const HardwareConfig &hw, const GptModelSpec &model,
                  const ParallelConfig &parallel,
                  const TrainingPlan &plan,
                  const TechniquePreset &preset)
{
    MappedWorkload workload(hw, model, parallel, plan);
    const PipeCostSpec spec = buildCostSpec(workload, preset.perf);

    PerformanceRow row;
    row.config = preset.name;
    row.breakdown = computeBreakdown(spec);
    row.iterationSeconds = row.breakdown.total;
    row.trainingDays =
        row.iterationSeconds * plan.iterations / 86400.0;
    return row;
}

std::vector<PerformanceRow>
runPerformanceAblation(const HardwareConfig &hw,
                       const GptModelSpec &model,
                       const ParallelConfig &parallel,
                       const TrainingPlan &plan,
                       const std::vector<TechniquePreset> &presets)
{
    OPTIMUS_ASSERT(!presets.empty());
    std::vector<PerformanceRow> rows;
    rows.reserve(presets.size());
    for (const auto &preset : presets)
        rows.push_back(
            runPerformanceRow(hw, model, parallel, plan, preset));
    for (auto &row : rows) {
        row.speedup =
            rows[0].iterationSeconds / row.iterationSeconds - 1.0;
    }
    return rows;
}

} // namespace optimus
