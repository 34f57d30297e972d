#include "core/auto_tuner.hh"

#include <algorithm>

#include "util/logging.hh"

namespace optimus
{

TuneResult
autoTuneSelectiveCompression(const MappedWorkload &workload,
                             const QualityRunConfig &quality,
                             const TuneRequest &request)
{
    OPTIMUS_ASSERT(!request.stageFractions.empty());
    OPTIMUS_ASSERT(!request.ranks.empty());
    OPTIMUS_ASSERT(request.rankScale >= 1);

    const double baseline_days =
        trainingDays(workload, OptimusCcPolicy::baseline());

    TuneResult result;
    for (double fraction : request.stageFractions) {
        for (int rank : request.ranks) {
            TuneCandidate candidate;
            candidate.stageFraction = fraction;
            candidate.rank = rank;

            // Speed axis: paper-scale simulator.
            OptimusCcPolicy policy = OptimusCcPolicy::baseline();
            policy.sc = fraction > 0.0;
            policy.scStageFraction = fraction;
            policy.dpRank = rank;
            candidate.speedup =
                baseline_days / trainingDays(workload, policy) - 1.0;

            // Quality axis: reduced-gradient error on the real
            // engine at the scaled-down rank.
            TechniquePreset preset;
            preset.name = "tune";
            preset.dp.enabled = fraction > 0.0;
            preset.dp.stageFraction = fraction;
            preset.dp.rank = std::max(1, rank / request.rankScale);
            candidate.gradientError = gradientApproximationError(
                quality, preset, request.trials);

            result.candidates.push_back(candidate);
        }
    }

    // Pareto frontier: a candidate is dominated when another has
    // both more speedup and less error.
    for (auto &c : result.candidates) {
        c.onFrontier = std::none_of(
            result.candidates.begin(), result.candidates.end(),
            [&c](const TuneCandidate &other) {
                return other.speedup > c.speedup &&
                       other.gradientError < c.gradientError;
            });
    }

    result.best.speedup = -1.0;
    for (const auto &c : result.candidates) {
        if (c.gradientError <= request.maxGradientError &&
            c.speedup > result.best.speedup) {
            result.best = c;
            result.foundFeasible = true;
        }
    }
    return result;
}

} // namespace optimus
