#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

namespace optimus
{
namespace obs
{

std::atomic<bool> g_traceEnabled{false};

namespace
{

/** Per-thread append-only event log; owned by the registry so the
 * events survive thread exit. */
struct ThreadBuffer
{
    int track = 0;
    std::string name;
    std::vector<TraceEvent> events;
};

struct TracerState
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    int nextAnonTrack = 1000;
    int64_t epochNs = 0;
};

TracerState &
state()
{
    static TracerState s;
    return s;
}

thread_local ThreadBuffer *t_buffer = nullptr;

/** The calling thread's buffer, registering an anonymous track on
 * first use. Registration locks; subsequent appends do not. */
ThreadBuffer &
threadBuffer()
{
    if (t_buffer == nullptr) {
        TracerState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        auto buffer = std::make_unique<ThreadBuffer>();
        buffer->track = s.nextAnonTrack++;
        buffer->name = "thread";
        t_buffer = buffer.get();
        s.buffers.push_back(std::move(buffer));
    }
    return *t_buffer;
}

// optlint:coldfn — tracing buffer write; every caller is gated on
// tracingEnabled(), which steady-state runs leave off.
void
append(const TraceEvent &event)
{
    threadBuffer().events.push_back(event);
}

} // namespace

void
startTracing()
{
    TracerState &s = state();
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        for (auto &buffer : s.buffers)
            buffer->events.clear();
        s.epochNs = nowNs();
    }
    setThreadTrack(0, "main");
    g_traceEnabled.store(true, std::memory_order_relaxed);
}

void
stopTracing()
{
    g_traceEnabled.store(false, std::memory_order_relaxed);
}

void
clearTrace()
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (auto &buffer : s.buffers)
        buffer->events.clear();
}

void
setThreadTrack(int track, const char *name)
{
    ThreadBuffer &buffer = threadBuffer();
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    buffer.track = track;
    buffer.name = name;
}

void
emitSpan(const char *category, const char *name, int64_t begin_ns,
         int64_t end_ns, int64_t id, const char *arg_name0,
         int64_t arg_value0, const char *arg_name1, int64_t arg_value1)
{
    if (!tracingEnabled())
        return;
    TraceEvent event;
    event.phase = 'X';
    event.category = category;
    event.name = name;
    event.beginNs = begin_ns;
    event.endNs = end_ns;
    event.id = id;
    event.argName0 = arg_name0;
    event.argValue0 = arg_value0;
    event.argName1 = arg_name1;
    event.argValue1 = arg_value1;
    append(event);
}

void
emitInstant(const char *category, const char *name, int64_t id)
{
    if (!tracingEnabled())
        return;
    TraceEvent event;
    event.phase = 'i';
    event.category = category;
    event.name = name;
    const int64_t now = nowNs();
    event.beginNs = now;
    event.endNs = now;
    event.id = id;
    append(event);
}

void
emitCounter(const char *name, int64_t value)
{
    if (!tracingEnabled())
        return;
    TraceEvent event;
    event.phase = 'C';
    event.category = "counter";
    event.name = name;
    const int64_t now = nowNs();
    event.beginNs = now;
    event.endNs = now;
    event.argName0 = "value";
    event.argValue0 = value;
    append(event);
}

std::vector<TraceEvent>
traceEvents()
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<TraceEvent> all;
    for (const auto &buffer : s.buffers) {
        for (const TraceEvent &event : buffer->events) {
            TraceEvent copy = event;
            copy.track = buffer->track;
            all.push_back(copy);
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.track != b.track)
                             return a.track < b.track;
                         return a.beginNs < b.beginNs;
                     });
    return all;
}

namespace
{

/** "name" or "name#id" into a caller-provided scratch buffer. */
const char *
eventLabel(const TraceEvent &event, char *scratch, size_t scratch_len)
{
    if (event.id < 0)
        return event.name;
    std::snprintf(scratch, scratch_len, "%s#%lld", event.name,
                  static_cast<long long>(event.id));
    return scratch;
}

} // namespace

bool
writeTrace(const std::string &path)
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;

    const double epoch_us = static_cast<double>(s.epochNs) * 1e-3;
    std::fprintf(out, "{\"traceEvents\":[\n");
    bool first = true;

    // Track metadata: thread names and a stable sort order.
    for (const auto &buffer : s.buffers) {
        if (buffer->events.empty())
            continue;
        std::fprintf(out,
                     "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                     "\"name\":\"thread_name\",\"args\":{\"name\":"
                     "\"%s %d\"}},\n"
                     "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                     "\"name\":\"thread_sort_index\",\"args\":"
                     "{\"sort_index\":%d}}",
                     first ? "" : ",\n", buffer->track,
                     buffer->name.c_str(), buffer->track,
                     buffer->track, buffer->track);
        first = false;
    }

    char label[96];
    for (const auto &buffer : s.buffers) {
        for (const TraceEvent &event : buffer->events) {
            const double ts_us =
                static_cast<double>(event.beginNs) * 1e-3 - epoch_us;
            std::fprintf(out,
                         "%s{\"ph\":\"%c\",\"pid\":1,\"tid\":%d,"
                         "\"cat\":\"%s\",\"name\":\"%s\","
                         "\"ts\":%.3f",
                         first ? "" : ",\n", event.phase,
                         buffer->track, event.category,
                         eventLabel(event, label, sizeof(label)),
                         ts_us);
            first = false;
            if (event.phase == 'X') {
                const double dur_us =
                    static_cast<double>(event.endNs - event.beginNs) *
                    1e-3;
                std::fprintf(out, ",\"dur\":%.3f", dur_us);
            }
            if (event.phase == 'i')
                std::fprintf(out, ",\"s\":\"t\"");
            if (event.argName0 != nullptr || event.id >= 0) {
                std::fprintf(out, ",\"args\":{");
                bool first_arg = true;
                if (event.argName0 != nullptr) {
                    std::fprintf(out, "\"%s\":%lld", event.argName0,
                                 static_cast<long long>(
                                     event.argValue0));
                    first_arg = false;
                }
                if (event.argName1 != nullptr) {
                    std::fprintf(out, "%s\"%s\":%lld",
                                 first_arg ? "" : ",",
                                 event.argName1,
                                 static_cast<long long>(
                                     event.argValue1));
                    first_arg = false;
                }
                if (event.id >= 0) {
                    std::fprintf(out, "%s\"id\":%lld",
                                 first_arg ? "" : ",",
                                 static_cast<long long>(event.id));
                }
                std::fprintf(out, "}");
            }
            std::fprintf(out, "}");
        }
    }
    std::fprintf(out, "\n]}\n");
    const bool ok = std::fclose(out) == 0;
    return ok;
}

} // namespace obs
} // namespace optimus
