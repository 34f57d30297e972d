/**
 * @file
 * Perfetto-compatible span tracer with per-thread event buffers.
 *
 * Design (DESIGN.md §4e):
 *  - One global atomic enable flag. Every emit helper starts with a
 *    relaxed load of it, so a disabled build path costs one branch
 *    and ScopedSpan never reads the clock.
 *  - Each thread appends to its own ThreadBuffer (registered once
 *    under a mutex, then lock-free): tracing never serialises the
 *    pool. Buffers are only read by startTracing / stopTracing /
 *    traceEvents / writeTrace, which the caller must invoke while
 *    the pool is quiesced (no job or task in flight); the pool's
 *    own join/wait synchronisation then orders all prior appends
 *    before the read.
 *  - Spans take explicit begin/end timestamps from obs::nowNs() so
 *    callers can feed the *same* clock reads into both a trace span
 *    and a wall-time accumulator (StepPhaseTimes) — summed span
 *    durations then reconcile with the timers to rounding error.
 *  - Track ids: 0 is the thread that called startTracing() ("main"),
 *    1..N-1 are pool workers (set via setThreadTrack from
 *    workerLoop), other threads self-register from 1000 up.
 *
 * All name/category strings passed to the emit helpers must be
 * string literals (or otherwise outlive the trace): events store the
 * pointers, not copies.
 */

#ifndef OPTIMUS_OBS_TRACE_HH
#define OPTIMUS_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.hh"

namespace optimus
{
namespace obs
{

extern std::atomic<bool> g_traceEnabled;

/** True while a trace is being recorded (relaxed; hot-path gate). */
inline bool
tracingEnabled()
{
    return g_traceEnabled.load(std::memory_order_relaxed);
}

/**
 * One recorded event. phase follows the Chrome trace-event codes:
 * 'X' complete span, 'i' instant, 'C' counter (value in argValue0).
 */
struct TraceEvent
{
    char phase = 'X';
    const char *category = nullptr;
    const char *name = nullptr;
    int track = 0;
    int64_t beginNs = 0;
    int64_t endNs = 0;
    int64_t id = -1; // appended to the name as "name#id" when >= 0
    const char *argName0 = nullptr;
    int64_t argValue0 = 0;
    const char *argName1 = nullptr;
    int64_t argValue1 = 0;
};

/**
 * Clear all buffers, stamp the trace epoch, register the calling
 * thread as track 0 ("main"), and raise the enable flag. Call only
 * while the pool is quiesced.
 */
void startTracing();

/** Lower the enable flag; buffered events stay readable. */
void stopTracing();

/** Drop all buffered events (pool must be quiesced). */
void clearTrace();

/**
 * Name the calling thread's track. The runtime pool calls this from
 * workerLoop so worker w records on track w; other threads that
 * never call it are assigned tracks from 1000 up on first emit.
 */
void setThreadTrack(int track, const char *name);

/** Emit a complete span with explicit clock readings and up to two
 * integer args. No-op while tracing is disabled. */
void emitSpan(const char *category, const char *name, int64_t begin_ns,
              int64_t end_ns, int64_t id = -1,
              const char *arg_name0 = nullptr, int64_t arg_value0 = 0,
              const char *arg_name1 = nullptr, int64_t arg_value1 = 0);

/** Emit an instant (zero-duration) event at nowNs(). */
void emitInstant(const char *category, const char *name,
                 int64_t id = -1);

/** Emit a counter sample; Perfetto renders one track per name. */
void emitCounter(const char *name, int64_t value);

/** Snapshot every buffered event, ordered by (track, beginNs).
 * Pool must be quiesced. */
std::vector<TraceEvent> traceEvents();

/** Write all buffered events as Chrome trace-event JSON (one event
 * per line inside "traceEvents"). Returns false on I/O failure. */
bool writeTrace(const std::string &path);

/**
 * RAII span: reads the clock in the constructor only when tracing
 * is enabled, and emits on destruction. Cheap enough to leave in
 * hot paths — the disabled cost is one relaxed load and branch.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *category, const char *name, int64_t id = -1,
               const char *arg_name0 = nullptr, int64_t arg_value0 = 0,
               const char *arg_name1 = nullptr, int64_t arg_value1 = 0)
        : category_(category), name_(name), id_(id),
          argName0_(arg_name0), argValue0_(arg_value0),
          argName1_(arg_name1), argValue1_(arg_value1),
          beginNs_(tracingEnabled() ? nowNs() : 0)
    {}

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (beginNs_ != 0) {
            emitSpan(category_, name_, beginNs_, nowNs(), id_,
                     argName0_, argValue0_, argName1_, argValue1_);
        }
    }

  private:
    const char *category_;
    const char *name_;
    int64_t id_;
    const char *argName0_;
    int64_t argValue0_;
    const char *argName1_;
    int64_t argValue1_;
    int64_t beginNs_;
};

} // namespace obs
} // namespace optimus

#endif // OPTIMUS_OBS_TRACE_HH
