#include "parallel/data_parallel.hh"

#include "schedule/schedule.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/**
 * Whether cached single-segment group @p group still describes the
 * per-rank tensors @p tensors (same ranks, same storage). False
 * forces a rebuild — which only happens when a caller rewires the
 * parameter lists, never in the trainer's steady state.
 */
bool
groupMatches(const CommGroup &group,
             const std::vector<Tensor *> &tensors)
{
    if (group.segPtrs.size() != 1 ||
        group.ranks != static_cast<int>(tensors.size()))
        return false;
    if (group.segLens[0] != tensors[0]->size())
        return false;
    for (size_t d = 0; d < tensors.size(); ++d) {
        if (group.segPtrs[0][d] != tensors[d]->data())
            return false;
    }
    return true;
}

/** groupMatches() for a 2-rank pair, without building a list. */
bool
pairMatches(const CommGroup &group, const Tensor *a, const Tensor *b)
{
    return group.segPtrs.size() == 1 && group.ranks == 2 &&
           group.segLens[0] == a->size() &&
           group.segPtrs[0][0] == a->data() &&
           group.segPtrs[0][1] == b->data();
}

/** Rebuild @p group from @p tensors unless it already matches. */
void
ensureGroup(CommGroup &group, const std::vector<Tensor *> &tensors)
{
    if (groupMatches(group, tensors))
        return;
    // optlint:coldalloc — group layouts build once per wiring.
    group = CommGroup::fromTensors(tensors);
}

} // namespace

bool
stageSelectedForCompression(const DpCompressionConfig &config,
                            int stage, int stages)
{
    OPTIMUS_ASSERT(stage >= 0 && stage < stages);
    return config.enabled &&
           isCompressedStage(config.stageFraction, stage, stages);
}

// optlint:hot — steady-state step path (zero-allocation contract).
EmbSyncVolume
EmbeddingSynchronizer::synchronize(
    const std::vector<ParamPtr> &first_copies,
    const std::vector<ParamPtr> &last_copies)
{
    OPTIMUS_ASSERT(!first_copies.empty());
    OPTIMUS_ASSERT(first_copies.size() == last_copies.size());
    const int workers = static_cast<int>(first_copies.size());

    EmbSyncVolume volume;
    volume.tableBytes = static_cast<int64_t>(sizeof(float)) *
                        first_copies[0]->size();

    // Gradient-pointer lists live in member scratch and the
    // collective layouts are cached (rebuilt only if the tables'
    // storage moves), so the steady-state synchronize() allocates
    // nothing on any of the three variants below.
    firstGrads_.clear();
    lastGrads_.clear();
    for (const auto &p : first_copies)
        firstGrads_.push_back(&p->grad); // optlint:coldalloc
    for (const auto &p : last_copies)
        lastGrads_.push_back(&p->grad); // optlint:coldalloc

    // Pipeline depth 1: both lists alias the same Params; the tied
    // gradient already contains both contributions, so only the
    // D-way average is needed.
    if (first_copies[0].get() == last_copies[0].get()) {
        ensureGroup(tiedGroup_, firstGrads_);
        const CommEvent ev = transport_->allReduce(
            CommPhase::EmbSync, tiedGroup_, ReduceOp::Mean);
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
        fusedGrads_.clear();
        for (Tensor *g : firstGrads_)
            fusedGrads_.push_back(g); // optlint:coldalloc
        for (Tensor *g : lastGrads_)
            fusedGrads_.push_back(g); // optlint:coldalloc
        ensureGroup(fusedGroup_, fusedGrads_);
        const CommEvent ev = transport_->allReduce(
            CommPhase::EmbSync, fusedGroup_, ReduceOp::Sum);
        for (Tensor *g : fusedGrads_)
            g->scale(1.0f / static_cast<float>(workers));
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
    // optlint:coldalloc — cached layouts, built once per wiring.
    stageGroups_.resize(2);
    ensureGroup(stageGroups_[0], firstGrads_);
    ensureGroup(stageGroups_[1], lastGrads_);
    const CommEvent avg_ev = transport_->allReduceGrouped(
        CommPhase::EmbSync, stageGroups_, ReduceOp::Mean);
    // optlint:coldalloc — cached layouts, built once per wiring.
    pairGroups_.resize(workers);
    for (int d = 0; d < workers; ++d) {
        if (!pairMatches(pairGroups_[d], firstGrads_[d],
                         lastGrads_[d])) {
            pairGroups_[d] = CommGroup::fromTensors(
                {firstGrads_[d], lastGrads_[d]});
        }
    }
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
