/**
 * @file
 * Trace summarizer behind the tools/tracesum CLI: loads a Chrome
 * trace-event JSON produced by obs::writeTrace and folds the span
 * stream back into the paper's per-category step breakdown
 * (compute / dpReduce / dpReduceBusy / embSync / optimizer).
 *
 * The trainer emits its phase spans from the same nowNs() readings
 * that feed StepPhaseTimes, and the reduce engine emits bucket spans
 * from the readings that feed busySeconds, so the summary totals
 * reconcile with the in-process timers to export rounding error
 * (<1%; timestamps are written with nanosecond precision).
 *
 * The parser targets obs::writeTrace output — one event object per
 * line — not arbitrary JSON.
 */

#ifndef OPTIMUS_OBS_TRACESUM_HH
#define OPTIMUS_OBS_TRACESUM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace optimus
{
namespace obs
{

/** One serving scheduler round (cat="serve" spans of one wave). */
struct ServeWave
{
    int64_t id = 0;             // scheduler iteration (span id)
    double stepSeconds = 0.0;   // serve.step wall time
    double prefillSeconds = 0.0; // serve.prefill wall time
    double decodeSeconds = 0.0; // serve.decode wall time
    int64_t prefills = 0;       // prompts admitted (prefill "seqs")
    int64_t decodeRows = 0;     // sequences decoded this wave
};

/** Per-(phase, verb) rollup of the transport spans. */
struct CommRollup
{
    int64_t spans = 0;
    double seconds = 0.0;
    double exactBytes = 0.0;
    double wireBytes = 0.0;
};

struct TraceSummary
{
    bool valid = false;       // file read + at least one span parsed
    int64_t spans = 0;        // complete ('X') events parsed
    int64_t steps = 0;        // distinct trainer step ids seen

    // Seconds summed over all steps, from cat="phase" spans...
    double forwardBackward = 0.0; // compute (fwd+bwd replica loop)
    double dpReduce = 0.0;        // exposed reduce wait in the step
    double embSync = 0.0;
    double optimizer = 0.0;
    double total = 0.0;           // "step" spans

    // ...and from cat="reduce" bucket spans:
    double dpReduceBusy = 0.0;    // summed bucket work

    double other = 0.0;           // total minus the named phases

    // Serving-trace breakdown, from cat="serve" spans. serve.step,
    // serve.prefill and serve.decode each run at most once per
    // scheduler round and carry its iteration as their span id.
    int64_t serveWaves = 0;      // distinct serve.step ids
    double serveStep = 0.0;      // summed wave wall time
    double servePrefill = 0.0;
    double serveDecode = 0.0;
    std::vector<ServeWave> waves; // per-wave phase table, id order

    // Transport spans rolled up per "phase/verb" (categories
    // interStage/dpReduce/embSync/other; exactBytes/wireBytes from
    // the span args, reconciling with CommTrace volumes).
    std::map<std::string, CommRollup> commByVerb;

    // All spans grouped by category (seconds / count).
    std::map<std::string, double> categorySeconds;
    std::map<std::string, int64_t> categorySpans;
};

/** Summarize trace JSON text (obs::writeTrace format). */
TraceSummary summarizeTrace(const std::string &json_text);

/** Load a file and summarize it; valid=false if unreadable. */
TraceSummary summarizeTraceFile(const std::string &path);

/** Per-category table, one row per breakdown line. */
std::string renderTraceSummary(const TraceSummary &summary);

} // namespace obs
} // namespace optimus

#endif // OPTIMUS_OBS_TRACESUM_HH
