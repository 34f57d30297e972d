#include "pipesim/pipe_model.hh"

#include <algorithm>
#include <cmath>

#include "simnet/cost_model.hh"
#include "util/logging.hh"

namespace optimus
{

OptimusCcPolicy
OptimusCcPolicy::baseline()
{
    return {};
}

OptimusCcPolicy
OptimusCcPolicy::cbOnly()
{
    OptimusCcPolicy policy;
    policy.cb = true;
    return policy;
}

OptimusCcPolicy
OptimusCcPolicy::cbFe()
{
    OptimusCcPolicy policy = cbOnly();
    policy.fusedEmbedding = true;
    return policy;
}

OptimusCcPolicy
OptimusCcPolicy::cbFeSc()
{
    OptimusCcPolicy policy = cbFe();
    policy.sc = true;
    return policy;
}

PipeSimResult
simulatePipeline(const PipeCostSpec &spec)
{
    const int p = spec.stages;
    const int k_total = p * spec.chunks;
    const int m_count = spec.microBatches;
    OPTIMUS_ASSERT(p >= 1 && spec.chunks >= 1 && m_count >= 1);
    OPTIMUS_ASSERT(static_cast<int>(spec.dpTime.size()) == p);
    OPTIMUS_ASSERT(static_cast<int>(spec.bwdMsgTime.size()) ==
                   k_total - 1);

    const auto sched = PipelineSchedule::make(spec.schedule, p,
                                              m_count, spec.chunks);
    const auto order = sched.globalOrder();

    std::vector<double> stage_free(p, 0.0);
    std::vector<std::vector<double>> fwd_done(
        k_total, std::vector<double>(m_count, 0.0));
    std::vector<std::vector<double>> bwd_done(
        k_total, std::vector<double>(m_count, 0.0));

    for (const PipeOp &op : order) {
        const int s = op.stage;
        const int k = op.virtualStage(p);
        const int mb = op.microBatch;
        if (op.kind == PipeOpKind::Forward) {
            const double arrival =
                k == 0 ? 0.0
                       : fwd_done[k - 1][mb] + spec.fwdMsgTime;
            const double start = std::max(stage_free[s], arrival);
            const double done = start + spec.fwdCompute;
            fwd_done[k][mb] = done;
            stage_free[s] = done;
        } else {
            double arrival;
            if (k == k_total - 1) {
                // Loss gradient is available as soon as the local
                // forward finished.
                arrival = fwd_done[k][mb];
            } else {
                arrival = bwd_done[k + 1][mb] +
                          spec.bwdMsgTime[k][mb];
            }
            const double start = std::max(
                {stage_free[s], arrival, fwd_done[k][mb]});
            const double done = start + spec.bwdCompute;
            bwd_done[k][mb] = done;
            stage_free[s] = done;
        }
    }

    PipeSimResult result;
    result.computeEnd.resize(p);
    result.dpEnd.resize(p);
    for (int s = 0; s < p; ++s) {
        // Stage s's last backward is its chunk 0's (virtual stage s).
        result.computeEnd[s] = bwd_done[s][m_count - 1];
        result.dpEnd[s] = result.computeEnd[s] + spec.dpTime[s];
    }
    result.embEnd =
        std::max(result.dpEnd[0], result.dpEnd[p - 1]) +
        spec.embSyncTime;

    // Iteration period: "the next iteration starts from the forward
    // pass of the first stage" (Section 4). Stage s is not needed by
    // the next iteration until its first (chunk-0) forward arrives,
    // s forward hops after the iteration starts, so its gradient
    // reduction may overlap that ramp. The steady-state period is
    // therefore the largest ramp-adjusted readiness time. The
    // embedding synchronization gates stages 0 and P-1.
    const double ramp = spec.fwdCompute + spec.fwdMsgTime;
    double period = 0.0;
    for (int s = 0; s < p; ++s) {
        double ready = result.dpEnd[s];
        if (s == 0 || s == p - 1)
            ready = std::max(ready, result.embEnd);
        period = std::max(period, ready - s * ramp);
    }
    // The period can never undercut the pure compute pipeline.
    result.iterationTime = std::max(period, result.computeEnd[0]);
    return result;
}

IterationBreakdown
computeBreakdown(const PipeCostSpec &spec)
{
    IterationBreakdown breakdown;
    const double t_full = simulatePipeline(spec).iterationTime;
    breakdown.total = t_full;

    PipeCostSpec no_emb = spec;
    no_emb.embSyncTime = 0.0;
    const double t_no_emb = simulatePipeline(no_emb).iterationTime;
    breakdown.embComm = t_full - t_no_emb;

    PipeCostSpec no_dp = no_emb;
    std::fill(no_dp.dpTime.begin(), no_dp.dpTime.end(), 0.0);
    const double t_no_dp = simulatePipeline(no_dp).iterationTime;
    breakdown.dpComm = t_no_emb - t_no_dp;

    PipeCostSpec no_comm = no_dp;
    no_comm.fwdMsgTime = 0.0;
    for (auto &channel : no_comm.bwdMsgTime)
        std::fill(channel.begin(), channel.end(), 0.0);
    const double t_compute = simulatePipeline(no_comm).iterationTime;
    breakdown.interStage = t_no_dp - t_compute;

    breakdown.fwdCompute =
        spec.chunks * spec.microBatches * spec.fwdCompute;
    breakdown.bwdCompute = t_compute - breakdown.fwdCompute;
    return breakdown;
}


PipeCostSpec
buildCostSpec(const MappedWorkload &workload,
              const OptimusCcPolicy &policy,
              const CompressionKernelModel &kernel, int chunks)
{
    OPTIMUS_ASSERT(chunks >= 1);
    const auto &parallel = workload.parallel();
    const auto &plan = workload.plan();
    const double knee =
        workload.hardware().collectiveCongestionKneeBytes;
    const double congestion_exp =
        workload.hardware().collectiveCongestionExponent;
    const int p = parallel.pipeline;
    const int m_count = plan.microBatches(parallel);
    const LinkSpec p2p = workload.p2pLink();
    const LinkSpec coll = workload.collectiveLink();

    PipeCostSpec spec;
    spec.stages = p;
    spec.chunks = chunks;
    spec.microBatches = m_count;
    spec.fwdCompute = workload.stageForwardTime() / chunks;
    spec.bwdCompute = workload.stageBackwardTime() / chunks;

    const double msg_bytes = workload.interStageMessageBytes();
    spec.fwdMsgTime = p > 1 ? p2pTime(msg_bytes, p2p) : 0.0;

    // Backward channels: activation gradients [mb * seq, hidden].
    const double rows = static_cast<double>(plan.microBatchSize) *
                        workload.model().seqLen;
    const double cols = static_cast<double>(workload.model().hidden);
    const double exact_bwd = p2pTime(msg_bytes, p2p);
    const double compressed_bytes =
        2.0 * policy.cbRank * (rows + cols); // fp16 factors
    const double compressed_bwd =
        p2pTime(compressed_bytes, p2p) +
        kernel.compressTime(rows, cols, policy.cbRank) +
        kernel.decompressTime(rows, cols, policy.cbRank);

    // Interleaved steady state exposes every backward hop, so with
    // chunks epilogue-only and full compression coincide. On one
    // stage every hop is local and free.
    spec.bwdMsgTime.assign(p * chunks - 1,
                           std::vector<double>(m_count, 0.0));
    for (int k = 1; p > 1 && k < p * chunks; ++k) {
        for (int mb = 0; mb < m_count; ++mb) {
            const bool compress =
                policy.cb &&
                (chunks > 1 || !policy.cbEpilogueOnly ||
                 isEpilogueBackward(p, m_count, k, mb));
            spec.bwdMsgTime[k - 1][mb] =
                compress ? compressed_bwd : exact_bwd;
        }
    }

    // Data-parallel reductions. The per-stage reductions (and the
    // embedding sync) all overlap at the end of the iteration, so
    // they congest the shared fabric *jointly*: every collective's
    // time is scaled by (1 + (total concurrent traffic / knee)^e).
    // This is what makes selective stage compression a smooth knob
    // (Fig 13, left): each compressed stage relieves pressure on
    // every remaining reduction.
    spec.dpTime.resize(p);
    std::vector<double> dp_traffic(p, 0.0);
    std::vector<double> dp_kernel_time(p, 0.0);
    double total_traffic = 0.0;
    for (int s = 0; s < p; ++s) {
        const double grad_bytes = workload.dpGradBytesPerStage(s);
        const bool compressed =
            policy.sc &&
            isCompressedStage(policy.scStageFraction, s, p);
        if (!compressed) {
            dp_traffic[s] =
                ringAllReduceTraffic(grad_bytes, parallel.data);
        } else {
            // Distributed PowerSGD: all-reduce the P and Q factors
            // of the stage's parameters (modeled as one square
            // matrix), plus the kernel time.
            const double n_params = grad_bytes / 4.0;
            const double side = std::sqrt(n_params);
            const double factor_bytes =
                4.0 * policy.dpRank * (side + side);
            dp_traffic[s] = 2.0 * ringAllReduceTraffic(
                                      factor_bytes, parallel.data);
            dp_kernel_time[s] =
                kernel.compressTime(side, side, policy.dpRank) +
                kernel.decompressTime(side, side, policy.dpRank);
        }
        total_traffic += dp_traffic[s];
    }

    double emb_traffic = 0.0;
    if (p > 1) {
        const double table = workload.embTableBytesPerGpu();
        emb_traffic = policy.fusedEmbedding
                          ? embSyncTrafficFused(table, parallel.data)
                          : embSyncTrafficBaseline(table,
                                                   parallel.data);
        total_traffic += emb_traffic;
    }

    // Concurrent pressure on the shared fabric: the *mean* per-GPU
    // traffic of the overlapping collectives (the stages live on
    // different nodes, so the fabric carries the average load per
    // NIC, oversubscribed at the core).
    const double concurrent = total_traffic / p;
    const double contention =
        1.0 + std::pow(concurrent / knee, congestion_exp);
    const int latency_steps = 2 * (parallel.data - 1);
    for (int s = 0; s < p; ++s) {
        spec.dpTime[s] =
            dp_traffic[s] / coll.bandwidth * contention +
            latency_steps * coll.latency + dp_kernel_time[s];
    }
    if (p > 1) {
        spec.embSyncTime =
            emb_traffic / coll.bandwidth * contention +
            coll.latency * (policy.fusedEmbedding ? 1.0 : 2.0);
    }
    return spec;
}

double
trainingDays(const MappedWorkload &workload,
             const OptimusCcPolicy &policy,
             const CompressionKernelModel &kernel)
{
    const PipeCostSpec spec = buildCostSpec(workload, policy, kernel);
    const double iter = simulatePipeline(spec).iterationTime;
    return iter * workload.plan().iterations / 86400.0;
}

} // namespace optimus
