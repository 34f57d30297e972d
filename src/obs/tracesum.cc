#include "obs/tracesum.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace optimus
{
namespace obs
{

namespace
{

/** Extract the string value of "key":"..." from one event line. */
bool
jsonString(const std::string &line, const std::string &key,
           std::string &out)
{
    const std::string marker = "\"" + key + "\":\"";
    const size_t at = line.find(marker);
    if (at == std::string::npos)
        return false;
    const size_t begin = at + marker.size();
    const size_t end = line.find('"', begin);
    if (end == std::string::npos)
        return false;
    out = line.substr(begin, end - begin);
    return true;
}

/** Extract the numeric value of "key":N from one event line. */
bool
jsonNumber(const std::string &line, const std::string &key,
           double &out)
{
    const std::string marker = "\"" + key + "\":";
    const size_t at = line.find(marker);
    if (at == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + at + marker.size(), nullptr);
    return true;
}

struct StepAgg
{
    double forwardBackward = 0.0;
    double dpReduce = 0.0;
    double embSync = 0.0;
    double optimizer = 0.0;
    double total = 0.0;
    double busy = 0.0;
};

bool
isCommCategory(const std::string &cat)
{
    return cat == "interStage" || cat == "dpReduce" ||
           cat == "embSync" || cat == "other";
}

} // namespace

TraceSummary
summarizeTrace(const std::string &json_text)
{
    TraceSummary summary;
    std::map<long long, StepAgg> step_aggs;
    std::map<long long, ServeWave> waves;

    std::istringstream stream(json_text);
    std::string line;
    while (std::getline(stream, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        std::string cat, name;
        double dur_us = 0.0;
        if (!jsonString(line, "cat", cat) ||
            !jsonString(line, "name", name) ||
            !jsonNumber(line, "dur", dur_us)) {
            continue;
        }
        // Split the "name#id" label written for id-carrying spans.
        long long id = -1;
        const size_t hash = name.find('#');
        if (hash != std::string::npos) {
            id = std::strtoll(name.c_str() + hash + 1, nullptr, 10);
            name.resize(hash);
        }
        const double dur_s = dur_us * 1e-6;
        ++summary.spans;
        summary.categorySeconds[cat] += dur_s;
        ++summary.categorySpans[cat];

        if (cat == "phase" && id >= 0) {
            StepAgg &agg = step_aggs[id];
            if (name == "forwardBackward")
                agg.forwardBackward += dur_s;
            else if (name == "dpReduce")
                agg.dpReduce += dur_s;
            else if (name == "embSync")
                agg.embSync += dur_s;
            else if (name == "optimizer")
                agg.optimizer += dur_s;
            else if (name == "step")
                agg.total += dur_s;
        } else if (cat == "reduce") {
            double iter = -1.0;
            if (jsonNumber(line, "iter", iter) && iter >= 0.0)
                step_aggs[static_cast<long long>(iter)].busy += dur_s;
        } else if (cat == "serve" && id >= 0) {
            ServeWave &wave = waves[id];
            wave.id = id;
            double count = 0.0;
            if (name == "serve.step") {
                wave.stepSeconds += dur_s;
            } else if (name == "serve.decode") {
                wave.decodeSeconds += dur_s;
                if (jsonNumber(line, "rows", count))
                    wave.decodeRows += static_cast<int64_t>(count);
            } else if (name == "serve.prefill") {
                wave.prefillSeconds += dur_s;
                if (jsonNumber(line, "seqs", count))
                    wave.prefills += static_cast<int64_t>(count);
            }
        } else if (isCommCategory(cat)) {
            CommRollup &roll = summary.commByVerb[cat + "/" + name];
            ++roll.spans;
            roll.seconds += dur_s;
            double bytes = 0.0;
            // Event-derived folds: the span args being summed were
            // written from transport CommEvents at record time.
            if (jsonNumber(line, "exactBytes", bytes))
                roll.exactBytes += bytes; // optlint:allow(COM01)
            if (jsonNumber(line, "wireBytes", bytes))
                roll.wireBytes += bytes; // optlint:allow(COM01)
        }
    }

    summary.serveWaves = static_cast<int64_t>(waves.size());
    for (const auto &[wave_id, wave] : waves) {
        summary.serveStep += wave.stepSeconds;
        summary.servePrefill += wave.prefillSeconds;
        summary.serveDecode += wave.decodeSeconds;
        summary.waves.push_back(wave);
    }

    summary.steps = static_cast<int64_t>(step_aggs.size());
    for (const auto &[id, agg] : step_aggs) {
        summary.forwardBackward += agg.forwardBackward;
        summary.dpReduce += agg.dpReduce;
        summary.embSync += agg.embSync;
        summary.optimizer += agg.optimizer;
        summary.total += agg.total;
        summary.dpReduceBusy += agg.busy;
    }
    const double named = summary.forwardBackward + summary.dpReduce +
                         summary.embSync + summary.optimizer;
    summary.other = summary.total > named ? summary.total - named : 0.0;
    summary.valid = summary.spans > 0;
    return summary;
}

TraceSummary
summarizeTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        TraceSummary summary;
        return summary;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return summarizeTrace(text.str());
}

namespace
{

void
appendRow(std::string &out, const char *label, double seconds,
          double total)
{
    char buffer[128];
    const double share =
        total > 0.0 ? 100.0 * seconds / total : 0.0;
    std::snprintf(buffer, sizeof(buffer), "  %-16s %12.6f %9.2f%%\n",
                  label, seconds, share);
    out += buffer;
}

} // namespace

std::string
renderTraceSummary(const TraceSummary &summary)
{
    std::string out;
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "trace summary: %lld spans, %lld steps, "
                  "%lld serve waves\n",
                  static_cast<long long>(summary.spans),
                  static_cast<long long>(summary.steps),
                  static_cast<long long>(summary.serveWaves));
    out += buffer;
    if (summary.steps > 0 || summary.serveWaves == 0) {
        out += "  category              seconds   of step\n";
        appendRow(out, "compute", summary.forwardBackward,
                  summary.total);
        appendRow(out, "dpReduce", summary.dpReduce, summary.total);
        appendRow(out, "dpReduceBusy", summary.dpReduceBusy,
                  summary.total);
        appendRow(out, "embSync", summary.embSync, summary.total);
        appendRow(out, "optimizer", summary.optimizer,
                  summary.total);
        appendRow(out, "other", summary.other, summary.total);
        appendRow(out, "total(step)", summary.total, summary.total);
    }
    if (summary.serveWaves > 0) {
        out += "  serve phase           seconds   of wave\n";
        appendRow(out, "prefill", summary.servePrefill,
                  summary.serveStep);
        appendRow(out, "decode", summary.serveDecode,
                  summary.serveStep);
        const double serve_other =
            summary.serveStep >
                    summary.servePrefill + summary.serveDecode
                ? summary.serveStep - summary.servePrefill -
                      summary.serveDecode
                : 0.0;
        appendRow(out, "scheduler", serve_other, summary.serveStep);
        appendRow(out, "total(wave)", summary.serveStep,
                  summary.serveStep);
        out += "  per-wave phase table:\n";
        out += "    wave   step(s)    prefill(s)  decode(s)"
               "  prefills  rows\n";
        const size_t shown =
            summary.waves.size() > 24 ? 24 : summary.waves.size();
        for (size_t w = 0; w < shown; ++w) {
            const ServeWave &wave = summary.waves[w];
            std::snprintf(buffer, sizeof(buffer),
                          "    %4lld %9.6f %11.6f %10.6f %9lld "
                          "%5lld\n",
                          static_cast<long long>(wave.id),
                          wave.stepSeconds, wave.prefillSeconds,
                          wave.decodeSeconds,
                          static_cast<long long>(wave.prefills),
                          static_cast<long long>(wave.decodeRows));
            out += buffer;
        }
        if (shown < summary.waves.size()) {
            std::snprintf(buffer, sizeof(buffer),
                          "    ... %lld more wave(s)\n",
                          static_cast<long long>(
                              summary.waves.size() - shown));
            out += buffer;
        }
    }
    if (!summary.commByVerb.empty()) {
        out += "  comm by phase/verb:\n";
        out += "    phase/verb                    spans     "
               "seconds   exactMB     wireMB\n";
        for (const auto &[key, roll] : summary.commByVerb) {
            std::snprintf(
                buffer, sizeof(buffer),
                "    %-28s %6lld %11.6f %9.3f %10.3f\n", key.c_str(),
                static_cast<long long>(roll.spans), roll.seconds,
                roll.exactBytes / (1024.0 * 1024.0),
                roll.wireBytes / (1024.0 * 1024.0));
            out += buffer;
        }
    }
    out += "  spans by category:\n";
    for (const auto &[cat, seconds] : summary.categorySeconds) {
        std::snprintf(buffer, sizeof(buffer),
                      "    %-18s %8lld spans %12.6f s\n", cat.c_str(),
                      static_cast<long long>(
                          summary.categorySpans.at(cat)),
                      seconds);
        out += buffer;
    }
    return out;
}

} // namespace obs
} // namespace optimus
