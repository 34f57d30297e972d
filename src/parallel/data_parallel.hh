/**
 * @file
 * Data-parallel policy shared by the gradient reduction
 * (reduce_engine.hh): selective stage compression (Section 7) and
 * the reduction's volume record; plus embedding synchronization with
 * the fused single-all-reduce optimization (Section 6), bound to its
 * tables and wired once at construction like the reduce engine.
 *
 * Replicas are simulated in-process: each data-parallel worker owns
 * private Param objects, and the collectives combine their gradient
 * tensors exactly the way the real ones would, so replica
 * divergence (or the lack of it) is real, not assumed.
 */

#ifndef OPTIMUS_PARALLEL_DATA_PARALLEL_HH
#define OPTIMUS_PARALLEL_DATA_PARALLEL_HH

#include <vector>

#include "comm/transport.hh"
#include "nn/param.hh"

namespace optimus
{

/** Data-parallel compression configuration (selective stages). */
struct DpCompressionConfig
{
    /** Compress data-parallel traffic at all. */
    bool enabled = false;
    /**
     * Fraction of pipeline stages whose DP traffic is compressed,
     * starting from stage 0 (the critical-path end). Paper: 0.75.
     */
    double stageFraction = 0.75;
    /** Per-worker error feedback (PowerSGD-style residuals). */
    bool errorFeedback = true;
    /** PowerSGD rank of the compressed all-reduce (paper: 128). */
    int rank = 8;
};

/**
 * Whether @p stage (of @p stages) is selected for compression: DP
 * compression is on and the stage is one of the earliest
 * ceil(stageFraction * P) (isCompressedStage, shared with pipesim).
 */
bool stageSelectedForCompression(const DpCompressionConfig &config,
                                 int stage, int stages);

/**
 * DP gradient traffic of one iteration, read from the DpReduce
 * entry of the trainer's comm ledger.
 */
struct ReduceVolume
{
    int64_t exactBytes = 0;   ///< what uncompressed DP would send
    int64_t actualBytes = 0;  ///< what was logically sent
};

/** Volumes from one embedding synchronization. */
struct EmbSyncVolume
{
    /** Logical all-reduce message size V (bytes of one table). */
    int64_t tableBytes = 0;
    /**
     * Cost-model traffic per rank for the executed variant,
     * 2V(R-1)/R summed over the constituent all-reduces (Eq 15/16).
     */
    double trafficBytes = 0.0;
};

/**
 * Synchronizes the tied embedding tables held by the first and last
 * pipeline stages across all D data-parallel workers.
 *
 * Baseline (Fig 7a): average the first-stage copies over D, average
 * the last-stage copies over D, then sum the two averages with a
 * second 2-rank all-reduce. Fused (Fig 7b): one all-reduce over all
 * 2D copies computing sum/D. The results are mathematically
 * identical; only the communication cost differs (Eq 15 vs 16).
 *
 * The tables are bound at construction and the variant's collective
 * groups are built once there, so synchronize() only runs them.
 */
class EmbeddingSynchronizer
{
  public:
    /**
     * @param fused Use the fused single all-reduce (Fig 7b).
     * @param first_copies Token tables of stage 0, one per worker.
     * @param last_copies Token tables of the last stage, one per
     *        worker. When pipeline depth is 1 these are the same
     *        Param objects as @p first_copies (true tying); then
     *        only the D-way average is performed.
     * @param transport Transport the collectives go through
     *        (defaultTransport() when null).
     */
    EmbeddingSynchronizer(bool fused,
                          const std::vector<ParamPtr> &first_copies,
                          const std::vector<ParamPtr> &last_copies,
                          Transport *transport = nullptr);

    /** Synchronize the bound tables' gradients. */
    EmbSyncVolume synchronize();

  private:
    /** The bound tables, first-stage copies then last-stage ones. */
    std::vector<ParamPtr> tables_;
    int workers_;
    /** Pipeline depth 1: first and last copies are one table. */
    bool tied_ = false;
    bool fused_;
    Transport *transport_;
    /**
     * Tied: the D tables (Mean). Fused: all 2D copies (Sum).
     * Baseline: the two D-rank stage groups (Mean), then the D
     * first/last pairs (Sum) in pairGroups_.
     */
    std::vector<CommGroup> groups_;
    std::vector<CommGroup> pairGroups_;
};

} // namespace optimus

#endif // OPTIMUS_PARALLEL_DATA_PARALLEL_HH
