#include "comm/transport.hh"

#include <algorithm>
#include <tuple>

#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"
#include "simnet/cost_model.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/** Comparable projection of a CompressorSpec for commEventLess. */
std::tuple<int, int, double, uint64_t>
specKey(const CompressorSpec &spec)
{
    return {static_cast<int>(spec.kind), spec.rank, spec.topkFraction,
            spec.seed};
}

std::tuple<int64_t, int, int, int, int, int64_t, int64_t, int, int,
           int, std::tuple<int, int, double, uint64_t>>
eventKey(const CommEvent &e)
{
    return {e.iteration,
            static_cast<int>(e.phase),
            static_cast<int>(e.verb),
            e.ranks,
            e.groups,
            e.exactBytes,
            e.wireBytes,
            e.src,
            e.dst,
            e.replica,
            specKey(e.compressor)};
}

bool
eventSelected(const CommEvent &e, CommPhase phase, int64_t iteration)
{
    return e.phase == phase &&
           (iteration < 0 || e.iteration == iteration);
}

/**
 * Run fn(ptrs, k0, k1) over the group's flat element range in
 * parallel, one call per piece of a segment a chunk covers: ptrs
 * are the segment's per-rank pointers and [k0, k1) the piece's
 * offsets inside it. An element costs @p work_per_elem.
 */
template <typename F>
void
forEachSegmentRange(const CommGroup &group, int64_t work_per_elem,
                    const F &fn)
{
    const auto &offsets = group.segOffsets;
    parallelFor(0, group.totalElems, grainForWork(work_per_elem),
                [&](int64_t lo, int64_t hi) {
        size_t e = static_cast<size_t>(
                       std::upper_bound(offsets.begin(), offsets.end(),
                                        lo) -
                       offsets.begin()) -
                   1;
        for (int64_t pos = lo; pos < hi; ++e) {
            const int64_t seg_end = e + 1 < offsets.size()
                                        ? offsets[e + 1]
                                        : group.totalElems;
            const int64_t stop = std::min(seg_end, hi);
            fn(group.segPtrs[e], pos - offsets[e], stop - offsets[e]);
            pos = stop;
        }
    });
}

/**
 * Mean/sum all-reduce over one segmented group. Chunks are cut from
 * flat coordinates (grain-fixed, segment-agnostic); each element
 * accumulates its per-rank values in rank order in double and the
 * scaled float result is written back to every rank — the exact
 * arithmetic of the legacy parallel/ combine() and bucket kernels,
 * so results are bitwise identical to them at any OPTIMUS_THREADS
 * and SIMD tier (simd::combineRanks runs elements in lanes).
 * Over one rank the reduce is the identity, so the buffer is left as
 * it is (the double round trip would only turn a -0 into +0).
 */
void
combineGroup(const CommGroup &group, ReduceOp op)
{
    OPTIMUS_ASSERT(group.ranks >= 1 && !group.segLens.empty());
    OPTIMUS_ASSERT(group.segOffsets.size() == group.segLens.size());
    if (group.ranks == 1)
        return;
    const int ranks = group.ranks;
    const double scale =
        op == ReduceOp::Mean ? 1.0 / static_cast<double>(ranks) : 1.0;
    const simd::Tier tier = simd::tier();
    forEachSegmentRange(group, 8 * ranks,
                        [&](const std::vector<float *> &ptrs,
                            int64_t k0, int64_t k1) {
        simd::combineRanks(tier, ptrs.data(), ranks, k0, k1, scale);
    });
}

} // namespace

const char *
commVerbName(CommVerb verb)
{
    switch (verb) {
      case CommVerb::P2pSend:
        return "p2pSend";
      case CommVerb::AllReduce:
        return "allReduce";
      case CommVerb::AllReduceCompressed:
        return "allReduceCompressed";
      case CommVerb::Broadcast:
        return "broadcast";
    }
    return "?";
}

const char *
commPhaseName(CommPhase phase)
{
    switch (phase) {
      case CommPhase::InterStage:
        return "interStage";
      case CommPhase::DpReduce:
        return "dpReduce";
      case CommPhase::EmbSync:
        return "embSync";
      case CommPhase::Other:
        return "other";
    }
    return "?";
}

bool
commEventLess(const CommEvent &a, const CommEvent &b)
{
    return eventKey(a) < eventKey(b);
}

double
commEventTraffic(const CommEvent &event)
{
    switch (event.verb) {
      case CommVerb::P2pSend:
        return static_cast<double>(event.wireBytes);
      case CommVerb::AllReduce:
      case CommVerb::AllReduceCompressed:
        // Per-rank ring traffic of one group; every rank belongs to
        // exactly one of the event's concurrent groups, so the
        // per-rank figure is independent of the multiplicity.
        return ringAllReduceTraffic(
            static_cast<double>(event.wireBytes), event.ranks);
      case CommVerb::Broadcast:
        // Ring/allgather-style broadcast: V(R-1)/R per rank.
        return event.ranks <= 1
                   ? 0.0
                   : static_cast<double>(event.wireBytes) *
                         (event.ranks - 1) / event.ranks;
    }
    return 0.0;
}

void
CommGroup::finalize()
{
    OPTIMUS_ASSERT(segPtrs.size() == segLens.size());
    segOffsets.resize(segLens.size());
    totalElems = 0;
    for (size_t e = 0; e < segLens.size(); ++e) {
        OPTIMUS_ASSERT(segLens[e] >= 0);
        OPTIMUS_ASSERT(static_cast<int>(segPtrs[e].size()) == ranks);
        segOffsets[e] = totalElems;
        totalElems += segLens[e];
    }
}

// optlint:coldfn — layout build; the step's collectives run on
// groups their owners built once at construction.
CommGroup
CommGroup::fromTensors(const std::vector<Tensor *> &tensors)
{
    OPTIMUS_ASSERT(!tensors.empty());
    CommGroup group;
    group.ranks = static_cast<int>(tensors.size());
    group.segPtrs.emplace_back();
    for (Tensor *t : tensors) {
        OPTIMUS_ASSERT(t != nullptr &&
                       t->size() == tensors[0]->size());
        group.segPtrs[0].push_back(t->data());
    }
    group.segLens.push_back(tensors[0]->size());
    group.finalize();
    return group;
}

CommVolume
CommTrace::volume(CommPhase phase, int64_t iteration) const
{
    CommVolume total;
    for (const CommEvent &e : events_) {
        if (eventSelected(e, phase, iteration))
            total.add(e);
    }
    return total;
}

double
CommTrace::trafficBytes(CommPhase phase, int64_t iteration) const
{
    // Canonical order: double addition is order-sensitive, and the
    // append order of a concurrent run is not deterministic.
    double total = 0.0;
    for (const CommEvent &e : sorted()) {
        if (eventSelected(e, phase, iteration))
            total += commEventTraffic(e);
    }
    return total;
}

std::vector<CommEvent>
CommTrace::sorted() const
{
    std::vector<CommEvent> copy(events_);
    std::sort(copy.begin(), copy.end(), commEventLess);
    return copy;
}

CommEvent
Transport::stamp(CommPhase phase, CommVerb verb) const
{
    CommEvent event;
    event.iteration = iteration_.load(std::memory_order_relaxed);
    event.phase = phase;
    event.verb = verb;
    return event;
}

CommEvent
Transport::complete(const CommEvent &event, int64_t begin_ns)
{
    if (record_) {
        std::lock_guard<std::mutex> lock(mutex_);
        // optlint:coldalloc — event recording is instrumentation-only.
        trace_.append(event);
    }
    Entry &entry = ledger_[static_cast<size_t>(event.phase)];
    entry.events.fetch_add(1, std::memory_order_relaxed);
    if (event.compressor.kind != CompressorKind::None)
        entry.compressedEvents.fetch_add(1, std::memory_order_relaxed);
    entry.exactBytes.fetch_add(event.exactBytes,
                               std::memory_order_relaxed);
    entry.wireBytes.fetch_add(event.wireBytes,
                              std::memory_order_relaxed);
    if (obs::metricsEnabled()) {
        static obs::MetricHistogram &wire_hist =
            obs::MetricsRegistry::instance().histogram(
                "comm.event.wireBytes");
        wire_hist.observe(event.wireBytes);
    }
    if (begin_ns != 0 && obs::tracingEnabled()) {
        obs::emitSpan(commPhaseName(event.phase),
                      commVerbName(event.verb), begin_ns, obs::nowNs(),
                      -1, "exactBytes", event.exactBytes, "wireBytes",
                      event.wireBytes);
        int64_t total = 0;
        for (const Entry &phase : ledger_)
            total += phase.wireBytes.load(std::memory_order_relaxed);
        obs::emitCounter("comm.wireBytes", total);
    }
    return event;
}

CommEvent
Transport::p2pSend(CommPhase phase, int src, int dst, int replica,
                   int64_t exact_bytes, int64_t wire_bytes,
                   const CompressorSpec &compressor)
{
    const int64_t t0 = obs::tracingEnabled() ? obs::nowNs() : 0;
    CommEvent event = stamp(phase, CommVerb::P2pSend);
    event.src = src;
    event.dst = dst;
    event.replica = replica;
    event.ranks = 2;
    event.exactBytes = exact_bytes;
    event.wireBytes = wire_bytes;
    event.compressor = compressor;
    return complete(event, t0);
}

CommEvent
Transport::allReduce(CommPhase phase, const CommGroup &group,
                     ReduceOp op)
{
    const int64_t t0 = obs::tracingEnabled() ? obs::nowNs() : 0;
    combineGroup(group, op);
    CommEvent event = stamp(phase, CommVerb::AllReduce);
    event.ranks = group.ranks;
    event.exactBytes =
        static_cast<int64_t>(sizeof(float)) * group.totalElems;
    event.wireBytes = event.exactBytes;
    return complete(event, t0);
}

CommEvent
Transport::allReduceGrouped(CommPhase phase,
                            const std::vector<CommGroup> &groups,
                            ReduceOp op)
{
    const int64_t t0 = obs::tracingEnabled() ? obs::nowNs() : 0;
    OPTIMUS_ASSERT(!groups.empty());
    // The groups are disjoint and concurrent on real hardware; in
    // process their kernels run one after another, exactly matching
    // the legacy successive combine() calls.
    for (const CommGroup &group : groups) {
        OPTIMUS_ASSERT(group.ranks == groups[0].ranks);
        OPTIMUS_ASSERT(group.totalElems == groups[0].totalElems);
        combineGroup(group, op);
    }
    CommEvent event = stamp(phase, CommVerb::AllReduce);
    event.ranks = groups[0].ranks;
    event.groups = static_cast<int>(groups.size());
    event.exactBytes =
        static_cast<int64_t>(sizeof(float)) * groups[0].totalElems;
    event.wireBytes = event.exactBytes;
    return complete(event, t0);
}

CommEvent
Transport::allReduceCompressed(
    CommPhase phase, DistributedPowerSgd &dps,
    const std::vector<const Tensor *> &inputs, Tensor &mean_output)
{
    const int64_t t0 = obs::tracingEnabled() ? obs::nowNs() : 0;
    OPTIMUS_ASSERT(!inputs.empty());
    const int64_t wire = dps.reduce(inputs, mean_output);
    CommEvent event = stamp(phase, CommVerb::AllReduceCompressed);
    event.ranks = dps.workers();
    event.exactBytes =
        static_cast<int64_t>(sizeof(float)) * inputs[0]->size();
    event.wireBytes = wire;
    event.compressor.kind = CompressorKind::PowerSgd;
    event.compressor.rank = dps.rank();
    return complete(event, t0);
}

CommEvent
Transport::broadcast(CommPhase phase, CommGroup &group)
{
    const int64_t t0 = obs::tracingEnabled() ? obs::nowNs() : 0;
    OPTIMUS_ASSERT(group.ranks >= 1);
    forEachSegmentRange(group, 8 * group.ranks,
                        [&](const std::vector<float *> &ptrs,
                            int64_t k0, int64_t k1) {
        for (int64_t k = k0; k < k1; ++k) {
            const float v = ptrs[0][k];
            for (int d = 1; d < group.ranks; ++d)
                ptrs[d][k] = v;
        }
    });
    CommEvent event = stamp(phase, CommVerb::Broadcast);
    event.src = 0;
    event.ranks = group.ranks;
    event.exactBytes =
        static_cast<int64_t>(sizeof(float)) * group.totalElems;
    event.wireBytes = event.exactBytes;
    return complete(event, t0);
}

CommEvent
Transport::allReduceTensors(CommPhase phase,
                            const std::vector<Tensor *> &tensors,
                            ReduceOp op)
{
    return allReduce(phase, CommGroup::fromTensors(tensors), op);
}

CommVolume
Transport::volume(CommPhase phase) const
{
    const Entry &entry = ledger_[static_cast<size_t>(phase)];
    CommVolume v;
    v.events = entry.events.load(std::memory_order_relaxed);
    v.compressedEvents =
        entry.compressedEvents.load(std::memory_order_relaxed);
    v.exactBytes = entry.exactBytes.load(std::memory_order_relaxed);
    v.wireBytes = entry.wireBytes.load(std::memory_order_relaxed);
    return v;
}

obs::CompressionHealth
Transport::health(CommPhase phase, obs::CompressionHealth probe) const
{
    const CommVolume v = volume(phase);
    probe.sends = v.events;
    probe.compressedSends = v.compressedEvents;
    probe.exactBytes = v.exactBytes;
    probe.wireBytes = v.wireBytes;
    return probe;
}

Transport &
defaultTransport()
{
    static Transport transport;
    return transport;
}

} // namespace optimus
