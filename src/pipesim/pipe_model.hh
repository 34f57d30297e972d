/**
 * @file
 * Deterministic pipeline-timing simulator. Given per-virtual-stage
 * compute times, per-message communication times, and per-stage
 * data-parallel reduction times, it propagates completion times
 * through the dependency graph of a 1F1B (plain or interleaved) or
 * GPipe schedule and reports the iteration time plus a
 * CPI-stack-style breakdown obtained exactly the way the paper
 * measures it (Section 3): re-run with a communication component
 * disabled and report the difference.
 */

#ifndef OPTIMUS_PIPESIM_PIPE_MODEL_HH
#define OPTIMUS_PIPESIM_PIPE_MODEL_HH

#include <vector>

#include "cluster/mapping.hh"
#include "pipesim/throughput_model.hh"
#include "schedule/schedule.hh"

namespace optimus
{

/** Optimus-CC technique selection for the performance model. */
struct OptimusCcPolicy
{
    /** Compressed backpropagation (inter-stage backward traffic). */
    bool cb = false;
    /** Compress only epilogue messages (Section 5.2). */
    bool cbEpilogueOnly = true;
    /** CB low-rank rank (paper: 16). */
    int cbRank = 16;
    /** Fused embedding synchronization (Section 6). */
    bool fusedEmbedding = false;
    /** Selective stage compression of DP traffic (Section 7). */
    bool sc = false;
    /** Fraction of stages compressed, earliest first (paper: 0.75). */
    double scStageFraction = 0.75;
    /** DP compression rank (paper: 128). */
    int dpRank = 128;

    /** Named presets matching the paper's ablation columns. */
    static OptimusCcPolicy baseline();
    static OptimusCcPolicy cbOnly();
    static OptimusCcPolicy cbFe();
    static OptimusCcPolicy cbFeSc();
};

/** Fully resolved timing inputs for one iteration simulation. */
struct PipeCostSpec
{
    int stages = 4;
    /** Model chunks per stage v (interleaved 1F1B when >= 2). */
    int chunks = 1;
    int microBatches = 16;
    ScheduleKind schedule = ScheduleKind::OneFOneB;
    /** Compute time of one micro-batch forward on one virtual
     *  stage (a stage's share when chunks == 1). */
    double fwdCompute = 0.0;
    /** Compute time of one micro-batch backward (+recompute). */
    double bwdCompute = 0.0;
    /** Forward activation message time per hop (uncompressed). */
    double fwdMsgTime = 0.0;
    /**
     * Backward message time from virtual stage k (sender, k in
     * [1, P * chunks)) for micro-batch m, compression policy
     * already applied; indexed [k-1][m]. Includes
     * compress/decompress kernel time for compressed messages.
     */
    std::vector<std::vector<double>> bwdMsgTime;
    /** Data-parallel reduction time per stage (policy applied). */
    std::vector<double> dpTime;
    /**
     * Embedding-synchronization tail time, applied after the DP
     * reductions of the first and last stages complete.
     */
    double embSyncTime = 0.0;
};

/** Simulation output. */
struct PipeSimResult
{
    /** End-to-end iteration time (optimizer-step barrier). */
    double iterationTime = 0.0;
    /** Completion of each stage's DP reduction. */
    std::vector<double> dpEnd;
    /** Completion of the embedding synchronization. */
    double embEnd = 0.0;
    /** Last compute (backward) completion per stage. */
    std::vector<double> computeEnd;
};

/** Propagate the dependency graph and return completion times. */
PipeSimResult simulatePipeline(const PipeCostSpec &spec);

/** CPI-stack-style breakdown of one iteration (Fig 3 / Fig 10). */
struct IterationBreakdown
{
    double total = 0.0;
    double fwdCompute = 0.0;    ///< M x one stage's forward compute
    double bwdCompute = 0.0;    ///< compute remainder incl. bubble
    double interStage = 0.0;    ///< exposed inter-stage comm
    double dpComm = 0.0;        ///< exposed DP gradient comm
    double embComm = 0.0;       ///< exposed embedding sync
};

/**
 * Measure the breakdown exactly as the paper does: disable one
 * component at a time and report the iteration-time difference.
 */
IterationBreakdown computeBreakdown(const PipeCostSpec &spec);

/**
 * Assemble the cost spec for a (hardware, model, layout, policy)
 * combination: compute times from the FLOPs model, message times
 * from the alpha-beta link model with the NIC-sharing rule,
 * compression effects from the policy and kernel model.
 *
 * With @p chunks >= 2 (interleaved 1F1B) each chunk's compute is
 * 1/chunks of the stage's, and every virtual-stage hop pays the same
 * backward message time, compressed when the policy enables CB:
 * interleaved steady state exposes every backward hop, so
 * epilogue-only and full compression coincide for timing.
 */
PipeCostSpec buildCostSpec(const MappedWorkload &workload,
                           const OptimusCcPolicy &policy,
                           const CompressionKernelModel &kernel = {},
                           int chunks = 1);

/** Convenience: simulated days to run `plan.iterations`. */
double trainingDays(const MappedWorkload &workload,
                    const OptimusCcPolicy &policy,
                    const CompressionKernelModel &kernel = {});

} // namespace optimus

#endif // OPTIMUS_PIPESIM_PIPE_MODEL_HH
