#include "trace_read.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>

namespace perfbench
{

namespace
{

struct Span
{
    int track = 0;
    std::string key; // "category/name"
    int64_t id = -1;
    double begin = 0.0;
    double end = 0.0;
};

/** Value of "key":"..." in one event line. */
bool
stringField(const std::string &line, const char *key, std::string &out)
{
    const std::string marker = std::string("\"") + key + "\":\"";
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

/** Value of "key":N in one event line. */
bool
numberField(const std::string &line, const char *key, double &out)
{
    const std::string marker = std::string("\"") + key + "\":";
    const size_t at = line.find(marker);
    if (at == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + at + marker.size(), nullptr);
    return true;
}

/** Length of the union of [begin, end) intervals clipped to the
 *  sorted disjoint @p windows. */
double
coveredUs(std::vector<std::pair<double, double>> intervals,
          const std::vector<std::pair<double, double>> &windows)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = -1e300;
    for (const auto &[b0, e] : intervals) {
        const double b = std::max(b0, reach);
        if (e <= b)
            continue;
        for (const auto &[wb, we] : windows) {
            const double lo = std::max(b, wb);
            const double hi = std::min(e, we);
            if (hi > lo)
                covered += hi - lo;
        }
        reach = e;
    }
    return covered;
}

} // namespace

TraceScan
scanTrace(const std::string &path, const std::string &window_cat,
          const std::string &window_name, int64_t first_window_id)
{
    TraceScan scan;
    std::ifstream in(path);
    if (!in)
        return scan;
    const std::string window_key = window_cat + "/" + window_name;
    std::vector<Span> spans;
    std::vector<std::pair<double, double>> windows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        Span span;
        std::string cat, name;
        double tid = 0.0, ts = 0.0, dur = 0.0;
        if (!stringField(line, "cat", cat) ||
            !stringField(line, "name", name) ||
            !numberField(line, "tid", tid) ||
            !numberField(line, "ts", ts) || !numberField(line, "dur", dur))
            continue;
        const size_t hash = name.find('#');
        if (hash != std::string::npos) {
            span.id = std::strtoll(name.c_str() + hash + 1, nullptr, 10);
            name.resize(hash);
        }
        span.track = static_cast<int>(tid);
        span.key = cat + "/" + name;
        span.begin = ts;
        span.end = ts + dur;
        if (span.key == window_key && span.id >= first_window_id)
            windows.emplace_back(span.begin, span.end);
        spans.push_back(std::move(span));
    }
    std::sort(windows.begin(), windows.end());
    for (const auto &[b, e] : windows)
        scan.windowUs += e - b;

    std::map<int, std::vector<std::pair<double, double>>> by_track;
    for (const Span &span : spans) {
        // A span belongs to the window that contains its start.
        const auto it = std::upper_bound(
            windows.begin(), windows.end(),
            std::make_pair(span.begin, 1e300));
        if (it == windows.begin() || span.begin >= std::prev(it)->second)
            continue;
        ++scan.spans[span.key];
        scan.spanUs[span.key] += span.end - span.begin;
        by_track[span.track].emplace_back(span.begin, span.end);
    }
    for (auto &[track, intervals] : by_track)
        scan.busyUs[track] = coveredUs(std::move(intervals), windows);
    scan.windows = static_cast<int64_t>(windows.size());
    scan.valid = !windows.empty();
    return scan;
}

double
workerIdlePct(const TraceScan &scan, int threads)
{
    if (threads < 2 || scan.windowUs <= 0.0)
        return 0.0;
    double busy = 0.0;
    for (int track = 1; track < threads; ++track) {
        const auto it = scan.busyUs.find(track);
        if (it != scan.busyUs.end())
            busy += it->second;
    }
    return 100.0 * (1.0 - busy / (scan.windowUs * (threads - 1)));
}

double
msPerWindow(const TraceScan &scan, const std::string &prefix)
{
    double us = 0.0;
    for (const auto &[key, value] : scan.spanUs) {
        if (key.rfind(prefix, 0) == 0)
            us += value;
    }
    return scan.windows > 0 ? 1e-3 * us / static_cast<double>(scan.windows)
                            : 0.0;
}

double
countPerWindow(const TraceScan &scan, const std::string &key)
{
    const auto it = scan.spans.find(key);
    return it == scan.spans.end() || scan.windows == 0
               ? 0.0
               : static_cast<double>(it->second) /
                     static_cast<double>(scan.windows);
}

PhaseComm
phaseComm(const optimus::obs::TraceSummary &summary, int64_t units,
          const TraceScan &scan, const std::string &phase)
{
    PhaseComm out;
    const std::string prefix = phase + "/";
    const double per = static_cast<double>(std::max<int64_t>(1, units));
    for (const auto &[key, roll] : summary.commByVerb) {
        if (key.rfind(prefix, 0) == 0) {
            out.calls += static_cast<double>(roll.spans) / per;
            // Event-derived: the span args were written from the
            // transport's CommEvents.
            out.wireBytes += roll.wireBytes / per; // optlint:allow(COM01)
        }
    }
    out.ms = msPerWindow(scan, prefix);
    return out;
}

} // namespace perfbench
