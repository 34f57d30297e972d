#include "parallel/data_parallel.hh"

#include "schedule/schedule.hh"
#include "util/logging.hh"

namespace optimus
{

bool
stageSelectedForCompression(const DpCompressionConfig &config,
                            int stage, int stages)
{
    OPTIMUS_ASSERT(stage >= 0 && stage < stages);
    return config.enabled &&
           isCompressedStage(config.stageFraction, stage, stages);
}

EmbeddingSynchronizer::EmbeddingSynchronizer(
    bool fused, const std::vector<ParamPtr> &first_copies,
    const std::vector<ParamPtr> &last_copies, Transport *transport)
    : workers_(static_cast<int>(first_copies.size())),
      fused_(fused),
      transport_(transport ? transport : &defaultTransport())
{
    OPTIMUS_ASSERT(workers_ >= 1);
    OPTIMUS_ASSERT(first_copies.size() == last_copies.size());
    tied_ = first_copies[0].get() == last_copies[0].get();
    tables_ = first_copies;
    tables_.insert(tables_.end(), last_copies.begin(),
                   last_copies.end());
    std::vector<Tensor *> first, last;
    for (int d = 0; d < workers_; ++d) {
        first.push_back(&first_copies[d]->grad);
        last.push_back(&last_copies[d]->grad);
    }
    if (tied_) {
        groups_.push_back(CommGroup::fromTensors(first));
    } else if (fused_) {
        std::vector<Tensor *> all(first);
        all.insert(all.end(), last.begin(), last.end());
        groups_.push_back(CommGroup::fromTensors(all));
    } else {
        groups_.push_back(CommGroup::fromTensors(first));
        groups_.push_back(CommGroup::fromTensors(last));
        for (int d = 0; d < workers_; ++d)
            pairGroups_.push_back(
                CommGroup::fromTensors({first[d], last[d]}));
    }
}

// optlint:hot — steady-state step path (zero-allocation contract).
EmbSyncVolume
EmbeddingSynchronizer::synchronize()
{
    EmbSyncVolume volume;
    volume.tableBytes = static_cast<int64_t>(sizeof(float)) *
                        tables_[0]->size();

    // Pipeline depth 1: both lists alias the same Params; the tied
    // gradient already contains both contributions, so only the
    // D-way average is needed.
    if (tied_) {
        const CommEvent ev = transport_->allReduce(
            CommPhase::EmbSync, groups_[0], ReduceOp::Mean);
        volume.trafficBytes = commEventTraffic(ev);
        return volume;
    }

    if (fused_) {
        // Fused variant (Fig 7b): a single all-reduce over all 2D
        // copies computes the raw sum of both stages' gradients;
        // every copy is then scaled by 1/D, yielding sum/D — the sum
        // over the two tied tables of their D-way-averaged
        // gradients. A real collective folds the 1/D scale into the
        // reduction for free; here it is an explicit second pass.
        const CommEvent ev = transport_->allReduce(
            CommPhase::EmbSync, groups_[0], ReduceOp::Sum);
        for (const ParamPtr &table : tables_)
            table->grad.scale(1.0f / static_cast<float>(workers_));
        // One 2D-rank ring: Eq 16 exactly.
        volume.trafficBytes = commEventTraffic(ev);
        return volume;
    }

    // Baseline: D-way average within each stage group, then a 2-rank
    // sum between the (representative) pair -- every worker of each
    // group already holds the group average, so the pairwise sum is
    // applied to all copies. Each step is one grouped collective:
    // the two stage groups average concurrently (ranks = D,
    // groups = 2) and the D pairs sum concurrently (ranks = 2,
    // groups = D).
    const CommEvent avg_ev = transport_->allReduceGrouped(
        CommPhase::EmbSync, groups_, ReduceOp::Mean);
    const CommEvent sum_ev = transport_->allReduceGrouped(
        CommPhase::EmbSync, pairGroups_, ReduceOp::Sum);
    // Cost: the DP all-reduce over D ranks (counted once; it is the
    // portion of DP traffic belonging to the embedding) plus the
    // 2-rank sync, matching Eq 15. Per-rank traffic of a grouped
    // event is group-multiplicity independent.
    volume.trafficBytes =
        commEventTraffic(avg_ev) + commEventTraffic(sum_ev);
    return volume;
}

} // namespace optimus
