#include "core/presets.hh"

namespace optimus
{
namespace presets
{

namespace
{

/** Quality-side CB config at the miniature-model scale. */
CbConfig
qualityCb(bool lep, bool epilogue_only)
{
    CbConfig cb;
    cb.enabled = true;
    cb.lazyErrorPropagation = lep;
    cb.epilogueOnly = epilogue_only;
    cb.spec.kind = CompressorKind::PowerSgd;
    cb.spec.rank = 4;
    return cb;
}

/** Quality-side DP compression at the miniature-model scale. */
DpCompressionConfig
qualityDp(double stage_fraction)
{
    DpCompressionConfig dp;
    dp.enabled = true;
    dp.stageFraction = stage_fraction;
    dp.errorFeedback = true;
    dp.rank = 4;
    return dp;
}

} // namespace

TechniquePreset
baseline()
{
    TechniquePreset preset;
    preset.name = "Baseline";
    preset.perf = OptimusCcPolicy::baseline();
    return preset;
}

TechniquePreset
cb()
{
    TechniquePreset preset;
    preset.name = "CB";
    preset.cb = qualityCb(true, true);
    preset.perf = OptimusCcPolicy::cbOnly();
    return preset;
}

TechniquePreset
cbFe()
{
    TechniquePreset preset = cb();
    preset.name = "CB+FE";
    preset.fusedEmbeddingSync = true;
    preset.perf = OptimusCcPolicy::cbFe();
    return preset;
}

TechniquePreset
cbFeSc()
{
    TechniquePreset preset = cbFe();
    preset.name = "CB+FE+SC";
    preset.dp = qualityDp(0.75);
    preset.perf = OptimusCcPolicy::cbFeSc();
    return preset;
}

TechniquePreset
naiveDp()
{
    TechniquePreset preset;
    preset.name = "naive DP";
    preset.dp = qualityDp(1.0);
    preset.perf = OptimusCcPolicy::baseline();
    preset.perf.sc = true;
    preset.perf.scStageFraction = 1.0;
    return preset;
}

TechniquePreset
naiveCb()
{
    TechniquePreset preset;
    preset.name = "naive CB";
    preset.cb = qualityCb(false, false);
    preset.perf = OptimusCcPolicy::cbOnly();
    preset.perf.cbEpilogueOnly = false;
    return preset;
}

TechniquePreset
cbNoLep()
{
    TechniquePreset preset;
    preset.name = "CB (Non-LEP)";
    preset.cb = qualityCb(false, true);
    preset.perf = OptimusCcPolicy::cbOnly();
    return preset;
}

TechniquePreset
cbTopk()
{
    TechniquePreset preset;
    preset.name = "Opt-CC (TopK)";
    preset.cb = qualityCb(true, true);
    preset.cb.spec.kind = CompressorKind::TopK;
    // Match the low-rank payload: rank-4 PowerSGD on an
    // [m x n] message keeps ~4(m+n)/(mn) of the volume; for the
    // miniature shapes that is roughly 25%.
    preset.cb.spec.topkFraction = 0.25;
    preset.perf = OptimusCcPolicy::cbOnly();
    return preset;
}

std::vector<TechniquePreset>
ablationLadder()
{
    return {baseline(), cb(), cbFe(), cbFeSc()};
}

} // namespace presets
} // namespace optimus
