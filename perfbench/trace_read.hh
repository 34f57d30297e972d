/**
 * @file
 * The two trace facts obs::summarizeTraceFile does not expose: span
 * counts by name, and how much of the measured window each pool
 * worker's track spends inside a span.
 */

#ifndef PERFBENCH_TRACE_READ_HH
#define PERFBENCH_TRACE_READ_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/tracesum.hh"

namespace perfbench
{

struct TraceScan
{
    bool valid = false;
    /** Measured windows (e.g. timed steps) found. */
    int64_t windows = 0;
    /** Complete-span count and summed duration (microseconds) keyed
     *  "category/name" (id suffix cut), inside the windows. */
    std::map<std::string, int64_t> spans;
    std::map<std::string, double> spanUs;
    /** Wall microseconds inside the window spans (see scanTrace). */
    double windowUs = 0.0;
    /** Per track: microseconds of the window covered by spans. */
    std::map<int, double> busyUs;
};

/**
 * Read an obs::writeTrace file. Spans named @p window_cat /
 * @p window_name (e.g. phase/step) whose id is at least
 * @p first_window_id mark the measured window; span counts and
 * per-track coverage are taken inside those windows only, so the
 * warm-up steps of a traced trainer do not count.
 */
TraceScan scanTrace(const std::string &path, const std::string &window_cat,
                    const std::string &window_name,
                    int64_t first_window_id);

/** Mean idle share (%) of pool worker tracks 1..threads-1. */
double workerIdlePct(const TraceScan &scan, int threads);

/** Milliseconds per window in spans whose key starts with
 *  @p prefix (e.g. "compress/"). */
double msPerWindow(const TraceScan &scan, const std::string &prefix);

/** Spans with exactly @p key per window. */
double countPerWindow(const TraceScan &scan, const std::string &key);

/** Transport traffic of one phase (interStage, dpReduce, embSync)
 *  per step or serving round. */
struct PhaseComm
{
    double calls = 0.0;
    double wireBytes = 0.0;
    double ms = 0.0;
};

/**
 * Calls and wire bytes come from the summary's per-verb rollup over
 * the whole trace divided by @p units (they repeat exactly every
 * step); times come from the scan's measured windows.
 */
PhaseComm phaseComm(const optimus::obs::TraceSummary &summary,
                    int64_t units, const TraceScan &scan,
                    const std::string &phase);

} // namespace perfbench

#endif // PERFBENCH_TRACE_READ_HH
