/**
 * @file
 * The communication transport layer: every byte the training engine
 * moves — inter-stage backward sends, data-parallel gradient
 * all-reduces (exact or PowerSGD-compressed), and the embedding
 * synchronization collectives — goes through one concrete
 * `Transport` speaking the verbs the paper talks about: `p2pSend`,
 * `allReduce`, `allReduceCompressed`, `broadcast`.
 *
 * Each verb performs the data movement *and* returns a completed
 * `CommEvent` describing it (iteration, phase, kind, logical ranks,
 * exact vs on-wire bytes, compressor spec). Components keep no byte
 * or send counters at all: the transport the trainer and the serving
 * engine own folds every event into one per-phase ledger of
 * `CommVolume`s, and every reported byte, send count and per-step
 * delta is read from it.
 *
 * The combine kernel is the one the trainer has always used (double
 * accumulation in rank order over a fixed chunk grain), so routing a
 * component through the transport is bitwise neutral. A transport
 * built with `record` also appends every event to a per-run
 * `CommTrace`, which the simnet/pipesim bridge replays through the
 * alpha-beta cost model (pipesim/trace_replay.hh) — the quality
 * pillar's real traffic priced by the performance pillar's links.
 */

#ifndef OPTIMUS_COMM_TRANSPORT_HH
#define OPTIMUS_COMM_TRANSPORT_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "compress/powersgd.hh"
#include "tensor/tensor.hh"

namespace optimus
{

namespace obs
{
struct CompressionHealth;
} // namespace obs

/** The verb set of the transport interface. */
enum class CommVerb
{
    P2pSend,
    AllReduce,
    AllReduceCompressed,
    Broadcast,
};

/** Which training phase issued an operation (trace category). */
enum class CommPhase
{
    InterStage, ///< backward activation-gradient sends (Section 5)
    DpReduce,   ///< data-parallel gradient all-reduce (Section 7)
    EmbSync,    ///< tied-embedding synchronization (Section 6)
    Other,      ///< uncategorized (library helpers, tests)
};

/** Reduction operator of an exact all-reduce. */
enum class ReduceOp
{
    Mean,
    Sum,
};

const char *commVerbName(CommVerb verb);
const char *commPhaseName(CommPhase phase);

/**
 * One completed communication operation. `exactBytes` is the
 * uncompressed logical message size V of one collective group (or
 * one p2p payload); `wireBytes` is what actually crossed the wire
 * for that group. `groups` counts concurrent disjoint groups
 * executing the same collective (e.g. the baseline embedding sync
 * averages the first-stage and last-stage tables at once: one event
 * with ranks = D, groups = 2) — per-rank cost formulas depend on
 * (V, ranks) only, which is what makes trace-summed traffic land
 * exactly on the paper's closed forms (Eq 15/16).
 */
struct CommEvent
{
    int64_t iteration = 0;
    CommPhase phase = CommPhase::Other;
    CommVerb verb = CommVerb::AllReduce;
    /** Logical sender / receiver rank of a p2p send (else -1). */
    int src = -1;
    int dst = -1;
    /** Data-parallel replica issuing a p2p send (else -1). */
    int replica = -1;
    /** Ranks participating in one collective group (p2p: 2). */
    int ranks = 1;
    /** Concurrent disjoint groups covered by this event. */
    int groups = 1;
    int64_t exactBytes = 0;
    int64_t wireBytes = 0;
    /** Compressor that produced wireBytes (kind None when exact). */
    CompressorSpec compressor{};
};

/**
 * Strict weak order over every event field: the canonical trace
 * order. Concurrent recording makes the append order run-dependent;
 * consumers that sum event-derived doubles (traffic, modeled time)
 * iterate in canonical order so their results are deterministic.
 */
bool commEventLess(const CommEvent &a, const CommEvent &b);

/**
 * Per-rank alpha-beta traffic of one event in bytes: ring
 * all-reduce traffic 2V(R-1)/R for collectives (computed by the
 * same simnet function the analytic formulas use, so trace-summed
 * and closed-form traffic agree bit for bit), V for a p2p payload,
 * and allgather-style V(R-1)/R for a broadcast.
 */
double commEventTraffic(const CommEvent &event);

/**
 * Integer event and byte totals folded from events (order-
 * independent). An event counts as compressed iff its compressor
 * kind is not None.
 */
struct CommVolume
{
    int64_t events = 0;
    int64_t compressedEvents = 0;
    int64_t exactBytes = 0;
    int64_t wireBytes = 0;

    void add(const CommEvent &event)
    {
        ++events;
        if (event.compressor.kind != CompressorKind::None)
            ++compressedEvents;
        exactBytes += event.exactBytes;
        wireBytes += event.wireBytes;
    }

    /** Totals accumulated since the @p earlier snapshot. */
    CommVolume delta(const CommVolume &earlier) const
    {
        return {events - earlier.events,
                compressedEvents - earlier.compressedEvents,
                exactBytes - earlier.exactBytes,
                wireBytes - earlier.wireBytes};
    }
};

/**
 * One collective group: @p ranks logical ranks, each holding the
 * same segmented flat float vector. `segPtrs[e][d]` is rank d's
 * storage for segment e (`segLens[e]` floats). A bucket of packed
 * parameters is one group with one segment per parameter; a plain
 * per-tensor collective is one group with a single segment.
 */
struct CommGroup
{
    /** segPtrs[segment][rank]. */
    std::vector<std::vector<float *>> segPtrs;
    std::vector<int64_t> segLens;
    int ranks = 0;
    /** Prefix offsets + total, filled by finalize(). */
    std::vector<int64_t> segOffsets;
    int64_t totalElems = 0;

    /** Compute segOffsets/totalElems; call after filling segments. */
    void finalize();

    /** Single-segment group: one tensor per rank. */
    static CommGroup fromTensors(const std::vector<Tensor *> &tensors);
};

/** Append-only event log of one run (see Transport). */
class CommTrace
{
  public:
    // optlint:coldalloc — trace recording is instrumentation; the
    // steady-state trainer runs on the non-recording transport.
    void append(const CommEvent &event) { events_.push_back(event); }

    const std::vector<CommEvent> &events() const { return events_; }
    size_t size() const { return events_.size(); }

    /**
     * Integer event and byte totals of one phase (all iterations,
     * or one when @p iteration >= 0). Integer sums are order-
     * independent, so this is deterministic no matter how
     * concurrent recording interleaved the appends.
     */
    CommVolume volume(CommPhase phase, int64_t iteration = -1) const;

    /**
     * Per-rank alpha-beta traffic of one phase, summed in canonical
     * event order (deterministic; see commEventLess).
     */
    double trafficBytes(CommPhase phase, int64_t iteration = -1) const;

    /** Copy of the events in canonical order. */
    std::vector<CommEvent> sorted() const;

  private:
    std::vector<CommEvent> events_;
};

/**
 * The transport: every verb moves the data, stamps the iteration,
 * folds the completed event into the per-phase comm ledger, emits
 * its observation and, when built with @p record, appends it to the
 * CommTrace — one object, so the ledger and the recording are folded
 * from the same event and agree by construction.
 *
 * - **Data.** Collective reductions are bitwise deterministic: each
 *   element combines its per-rank values in rank order in double and
 *   writes the scaled result back to every rank; each element is
 *   combined on its own, so the chunk grid (the runtime's
 *   grainForWork rule) cannot move a bit.
 * - **Ledger.** A per-phase CommVolume of relaxed atomics, read by
 *   volume() and health(): every reported byte, send count and
 *   per-step delta comes from it. Verbs are issued concurrently (the
 *   replica loop, overlapped bucket tasks), so the ledger is read
 *   only after those have joined.
 * - **Observation.** When tracing is enabled each event becomes a
 *   span (category = the phase name, name = the verb name, args =
 *   exact/wire bytes) plus a sample of the ledger's total wire bytes
 *   on the "comm.wireBytes" counter track, cumulative since the
 *   transport was built; when metrics are enabled its wire size goes
 *   into the "comm.event.wireBytes" histogram. Pure observation:
 *   events and data pass through unchanged.
 * - **Recording.** Appends are mutex-serialized, so the append order
 *   is run-dependent; trace consumers use the order-independent
 *   integer sums or the canonical sorted order.
 */
class Transport
{
  public:
    /** @p record: also append every event to trace(). */
    explicit Transport(bool record = false) : record_(record) {}
    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /** Stamp subsequent events with @p iteration (call between
     *  iterations, outside parallel regions). */
    void setIteration(int64_t iteration)
    {
        iteration_.store(iteration, std::memory_order_relaxed);
    }

    /**
     * Point-to-point payload movement from logical rank @p src to
     * @p dst. In-process the payload already lives at the receiver,
     * so this verb is pure accounting: the caller reports the exact
     * and on-wire sizes (and the compressor that produced them).
     */
    CommEvent p2pSend(CommPhase phase, int src, int dst, int replica,
                      int64_t exact_bytes, int64_t wire_bytes,
                      const CompressorSpec &compressor);

    /** Exact all-reduce over one collective group. */
    CommEvent allReduce(CommPhase phase, const CommGroup &group,
                        ReduceOp op);

    /**
     * Exact all-reduce over several concurrent disjoint groups of
     * identical geometry (same ranks, same element count), reported
     * as one event with the group multiplicity.
     */
    CommEvent allReduceGrouped(CommPhase phase,
                               const std::vector<CommGroup> &groups,
                               ReduceOp op);

    /**
     * Compressed mean all-reduce via the distributed PowerSGD
     * protocol (the two low-rank all-reduce phases run inside
     * @p dps); wire bytes are the protocol's logical payload.
     */
    CommEvent
    allReduceCompressed(CommPhase phase, DistributedPowerSgd &dps,
                        const std::vector<const Tensor *> &inputs,
                        Tensor &mean_output);

    /** Replicate rank 0's segments to every other rank. */
    CommEvent broadcast(CommPhase phase, CommGroup &group);

    /** Convenience: exact all-reduce of one tensor per rank. */
    CommEvent allReduceTensors(CommPhase phase,
                               const std::vector<Tensor *> &tensors,
                               ReduceOp op);

    /** Ledger entry of @p phase, cumulative since construction. */
    CommVolume volume(CommPhase phase) const;

    /** @p probe (norm fields) with its send and byte fields set
     *  from the ledger entry of @p phase — the one place those
     *  fields of a CompressionHealth are written. */
    obs::CompressionHealth health(CommPhase phase,
                                  obs::CompressionHealth probe) const;

    /** Every event since construction when built with record;
     *  empty otherwise. */
    const CommTrace &trace() const { return trace_; }

  private:
    /** One phase's ledger entry (fields mirror CommVolume). */
    struct Entry
    {
        std::atomic<int64_t> events{0};
        std::atomic<int64_t> compressedEvents{0};
        std::atomic<int64_t> exactBytes{0};
        std::atomic<int64_t> wireBytes{0};
    };

    /** An event of @p verb in @p phase, stamped with the current
     *  iteration; the verb fills in the rest. */
    CommEvent stamp(CommPhase phase, CommVerb verb) const;

    /** Record a completed event, fold it into the ledger, emit its
     *  span, counter sample and metrics, and return it unchanged.
     *  begin_ns is 0 when tracing was off at entry. */
    CommEvent complete(const CommEvent &event, int64_t begin_ns);

    const bool record_;
    /** Relaxed atomic: set between iterations, read inside
     *  concurrently-issued verbs (replica loop, bucket tasks). */
    std::atomic<int64_t> iteration_{0};
    /** ledger_[phase], indexed by CommPhase. */
    std::array<Entry, 4> ledger_;
    CommTrace trace_;
    std::mutex mutex_;
};

/**
 * Another spelling of `Transport(true)`, kept only for the
 * benchmark's serve workload (perfbench/serve_workload.cc), which
 * builds its recorder this way; the argument is ignored. New code
 * writes `Transport(true)`.
 */
class RecordingTransport : public Transport
{
  public:
    explicit RecordingTransport(Transport &) : Transport(true) {}
};

/**
 * Process-wide non-recording transport, the fallback for components
 * constructed without an explicit transport (unit tests, library
 * helpers).
 */
Transport &defaultTransport();

} // namespace optimus

#endif // OPTIMUS_COMM_TRANSPORT_HH
