/**
 * @file
 * Continuous-batching serving benchmark: a closed-loop load
 * generator submits a fixed request mix to the ServeEngine twice —
 * once serialized (maxSequences = 1: every request decoded alone)
 * and once continuously batched on a 2-stage pipeline — and
 * reports tokens/s for both plus per-request latency percentiles
 * (p50/p95/p99 via the engine's always-on Log2Histogram). Both are
 * measured at the pool width (OPTIMUS_THREADS) and, when that is
 * above one, again at one thread inside a SerialRegion, so one run
 * records the 1-thread and the pooled numbers side by side. A
 * traced wave is recorded to BENCH_serve_trace.json for Perfetto /
 * tracesum, and the results land in BENCH_serve.json.
 *
 * --smoke shrinks the run for ctest (best of 10 sub-millisecond
 * waves, so one preempted wave cannot decide the throughput gate)
 * and turns on the validation gates: every request must complete
 * with its full token budget, every batched output must be bitwise
 * identical to the single-request full-recompute oracle
 * (referenceGreedyDecode), the recorded trace must contain
 * serve.step/serve.decode spans, and batched throughput must be
 * strictly higher than unbatched at every measured width (each
 * stacked pass runs every row-wise layer as one GEMM, so batching
 * wins even on one thread).
 *
 * BENCH_serve.json records the host, nproc, pool threads, SIMD tier
 * and git sha next to the numbers, so runs on different boxes or
 * commits are never compared by accident.
 *
 * Usage: bench_serve [--requests 24] [--max-new 32] [--reps 3]
 *        [--smoke]
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/clock.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"
#include "serve/engine.hh"
#include "tensor/simd.hh"
#include "util/cli.hh"

using namespace optimus;

namespace
{

const char *kTracePath = "BENCH_serve_trace.json";

GptConfig
benchModel(bool smoke)
{
    GptConfig model;
    if (smoke) {
        model.vocab = 24;
        model.hidden = 16;
        model.layers = 4;
        model.heads = 2;
        model.seqLen = 16;
    } else {
        model.vocab = 64;
        model.hidden = 64;
        model.layers = 8;
        model.heads = 4;
        model.seqLen = 64;
    }
    model.seed = 77;
    return model;
}

/** Deterministic request mix with prompt lengths 3..6. */
std::vector<std::vector<int32_t>>
benchPrompts(int count, int64_t vocab)
{
    std::vector<std::vector<int32_t>> prompts;
    for (int r = 0; r < count; ++r) {
        std::vector<int32_t> prompt;
        for (int t = 0; t < 3 + r % 4; ++t)
            prompt.push_back(static_cast<int32_t>(
                (7 * r + 3 * t + 1) % vocab));
        prompts.push_back(std::move(prompt));
    }
    return prompts;
}

serve::ServeConfig
makeConfig(const GptConfig &model, bool batched)
{
    serve::ServeConfig config;
    config.model = model;
    config.pipelineStages = 2;
    config.maxSequences = batched ? 8 : 1;
    config.maxBatchTokens = batched ? 64 : model.seqLen;
    return config;
}

struct RunResult
{
    double bestSeconds = 1e30;
    int64_t tokensPerWave = 0;
    int64_t p50Us = 0;
    int64_t p95Us = 0;
    int64_t p99Us = 0;

    double tokensPerS() const { return tokensPerWave / bestSeconds; }
};

using Outputs = std::map<int64_t, std::vector<int32_t>>;

/**
 * Closed-loop load: submit the whole mix, drain, repeat. One
 * untimed warmup wave sizes the slot arenas and capacities; the
 * best of @p reps timed waves is the noise floor.
 */
RunResult
measure(serve::ServeEngine &engine,
        const std::vector<std::vector<int32_t>> &prompts,
        int64_t max_new, int reps)
{
    RunResult result;
    const auto wave = [&]() {
        const int64_t before = engine.tokensGenerated();
        for (const auto &prompt : prompts)
            engine.submit(prompt, max_new);
        engine.drain();
        return engine.tokensGenerated() - before;
    };
    wave(); // warmup: arenas, ring/vector capacities, pool spin-up
    for (int rep = 0; rep < reps; ++rep) {
        const int64_t t0 = obs::nowNs();
        result.tokensPerWave = wave();
        const double s = obs::secondsBetween(t0, obs::nowNs());
        if (s < result.bestSeconds)
            result.bestSeconds = s;
    }
    result.p50Us = engine.latencyUs().percentile(50);
    result.p95Us = engine.latencyUs().percentile(95);
    result.p99Us = engine.latencyUs().percentile(99);
    return result;
}

/** Serialized and batched results at one pool width. */
struct WidthResult
{
    int threads = 1;
    RunResult serial;
    RunResult cont;
    /** Every batched request's generated tokens, by request id. */
    Outputs outputs;
};

/**
 * Measure both engines at @p threads: the pool width, or 1 inside a
 * SerialRegion (every parallel region inline, bitwise identical).
 * The batched engine is returned in @p batched for the traced wave.
 */
WidthResult
measureWidth(const GptConfig &model,
             const std::vector<std::vector<int32_t>> &prompts,
             int64_t max_new, int reps, int threads,
             std::optional<serve::ServeEngine> &batched)
{
    std::optional<SerialRegion> serial_region;
    if (threads == 1)
        serial_region.emplace();
    WidthResult result;
    result.threads = threads;

    // Serialized baseline: one slot, so every request is decoded
    // alone (no cross-sequence batching).
    serve::ServeEngine unbatched(makeConfig(model, false));
    result.serial = measure(unbatched, prompts, max_new, reps);

    // Continuous batching over the 2-stage pipeline.
    batched.emplace(makeConfig(model, true));
    Outputs *outputs = &result.outputs;
    batched->setFinishCallback(
        [outputs](const serve::FinishedRequest &done) {
            (*outputs)[done.id] = std::vector<int32_t>(
                done.tokens.begin() + done.promptLen,
                done.tokens.end());
        });
    result.cont = measure(*batched, prompts, max_new, reps);
    batched->setFinishCallback(nullptr); // outputs is local
    return result;
}

/** HEAD of the git checkout in the working directory, suffixed
 *  "-dirty" when the tree has uncommitted changes, or "unknown"
 *  outside a checkout. */
std::string
gitSha()
{
    std::string sha = "unknown";
    FILE *pipe =
        popen("git describe --always --dirty --abbrev=40 2>/dev/null",
              "r");
    if (pipe == nullptr)
        return sha;
    char line[96] = {};
    if (std::fgets(line, sizeof(line), pipe) != nullptr) {
        std::string out(line);
        while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
            out.pop_back();
        if (!out.empty())
            sha = out;
    }
    pclose(pipe);
    return sha;
}

/** The smoke trace must contain serving spans of both kinds. */
bool
hasServeSpans(const std::vector<obs::TraceEvent> &events)
{
    bool step = false, decode = false;
    for (const auto &e : events) {
        if (e.phase != 'X' ||
            std::strcmp(e.category, "serve") != 0)
            continue;
        if (std::strcmp(e.name, "serve.step") == 0)
            step = true;
        else if (std::strcmp(e.name, "serve.decode") == 0)
            decode = true;
    }
    return step && decode;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const bool smoke = args.getBool("smoke", false);
    const int requests =
        static_cast<int>(args.getInt("requests", smoke ? 6 : 24));
    const int reps =
        static_cast<int>(args.getInt("reps", smoke ? 10 : 3));
    const GptConfig model = benchModel(smoke);
    const int64_t max_new = args.getInt("max-new", smoke ? 8 : 32);

    const auto prompts = benchPrompts(requests, model.vocab);

    std::printf("=== continuous-batching serving benchmark ===\n");
    std::printf("pool threads: %d  requests: %d  max-new: %lld  "
                "reps: %d%s\n\n",
                runtimeThreads(), requests,
                static_cast<long long>(max_new), reps,
                smoke ? "  [smoke]" : "");

    // One thread first, then the pool width (when wider); the
    // pooled batched engine records the traced wave.
    std::vector<WidthResult> widths;
    std::optional<serve::ServeEngine> batched;
    for (int threads : {1, runtimeThreads()}) {
        if (!widths.empty() && threads == widths.back().threads)
            continue;
        widths.push_back(measureWidth(model, prompts, max_new, reps,
                                      threads, batched));
    }

    // One traced wave for the artifact (outside the timed runs:
    // tracing reads the clock per span).
    obs::startTracing();
    for (const auto &prompt : prompts)
        batched->submit(prompt, max_new);
    batched->drain();
    obs::stopTracing();
    const bool trace_written = obs::writeTrace(kTracePath);
    const std::vector<obs::TraceEvent> events = obs::traceEvents();

    for (const WidthResult &w : widths) {
        std::printf("threads %d\n", w.threads);
        std::printf("  unbatched: %8.3f ms/wave  %10.0f tok/s\n",
                    1e3 * w.serial.bestSeconds, w.serial.tokensPerS());
        std::printf("  batched:   %8.3f ms/wave  %10.0f tok/s  "
                    "(%.2fx)\n",
                    1e3 * w.cont.bestSeconds, w.cont.tokensPerS(),
                    w.cont.tokensPerS() / w.serial.tokensPerS());
        std::printf("  batched request latency: p50 %lld us  p95 %lld "
                    "us  p99 %lld us\n",
                    static_cast<long long>(w.cont.p50Us),
                    static_cast<long long>(w.cont.p95Us),
                    static_cast<long long>(w.cont.p99Us));
    }
    std::printf("\n");

    bool ok = true;
    const int64_t expected_tokens =
        static_cast<int64_t>(requests) * max_new;
    for (const WidthResult &w : widths) {
        if (w.serial.tokensPerWave != expected_tokens ||
            w.cont.tokensPerWave != expected_tokens) {
            ok = false;
            std::fprintf(stderr,
                         "FAILED: threads %d wave produced %lld/%lld "
                         "tokens, expected %lld\n",
                         w.threads,
                         static_cast<long long>(w.serial.tokensPerWave),
                         static_cast<long long>(w.cont.tokensPerWave),
                         static_cast<long long>(expected_tokens));
        }
    }

    if (smoke) {
        // Bitwise gate: continuous batching must reproduce the
        // single-request full-recompute oracle for every request
        // of every wave at every width. Ids ascend in submission
        // order and the map iterates in id order, so entry
        // k * requests + r is wave k's instance of prompt r.
        std::vector<std::vector<int32_t>> expect;
        for (const auto &prompt : prompts)
            expect.push_back(serve::referenceGreedyDecode(
                model, prompt, max_new));
        for (const WidthResult &w : widths) {
            std::vector<const std::vector<int32_t> *> all_waves;
            for (const auto &entry : w.outputs)
                all_waves.push_back(&entry.second);
            const size_t waves = all_waves.size() / prompts.size();
            for (size_t k = 0; k < waves; ++k) {
                for (size_t r = 0; r < prompts.size(); ++r) {
                    if (*all_waves[k * prompts.size() + r] == expect[r])
                        continue;
                    ok = false;
                    std::fprintf(stderr,
                                 "FAILED: threads %d request %zu wave "
                                 "%zu diverges from the full-recompute "
                                 "oracle\n",
                                 w.threads, r, k);
                }
            }
        }

        if (!trace_written || !hasServeSpans(events)) {
            ok = false;
            std::fprintf(stderr,
                         "FAILED: %s missing or lacks serve.step/"
                         "serve.decode spans\n",
                         kTracePath);
        }

        // Throughput gate: a stacked pass runs each row-wise layer
        // as one GEMM over every decoding sequence instead of one
        // GEMM per sequence, so the batched wave must win at every
        // width, one thread included.
        for (const WidthResult &w : widths) {
            if (w.cont.tokensPerS() > w.serial.tokensPerS())
                continue;
            ok = false;
            std::fprintf(stderr,
                         "FAILED: batched %.0f tok/s is not above "
                         "unbatched %.0f tok/s with %d threads\n",
                         w.cont.tokensPerS(), w.serial.tokensPerS(),
                         w.threads);
        }
    }

    FILE *f = std::fopen("BENCH_serve.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_serve.json\n");
        return 1;
    }
    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
    std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
    std::fprintf(f, "  \"host\": \"%s\",\n", host);
    std::fprintf(f, "  \"nproc\": %ld,\n",
                 sysconf(_SC_NPROCESSORS_ONLN));
    std::fprintf(f, "  \"threads\": %d,\n", runtimeThreads());
    std::fprintf(f, "  \"simd_tier\": \"%s\",\n",
                 simd::tierName(simd::tier()));
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", gitSha().c_str());
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"requests\": %d,\n", requests);
    std::fprintf(f, "  \"max_new_tokens\": %lld,\n",
                 static_cast<long long>(max_new));
    std::fprintf(f, "  \"pipeline_stages\": 2,\n");
    std::fprintf(f, "  \"tokens_per_wave\": %lld,\n",
                 static_cast<long long>(expected_tokens));
    std::fprintf(f, "  \"widths\": [\n");
    for (size_t i = 0; i < widths.size(); ++i) {
        const WidthResult &w = widths[i];
        std::fprintf(f, "    {\"threads\": %d,\n", w.threads);
        std::fprintf(f,
                     "     \"unbatched\": {\"seconds\": %.6f, "
                     "\"tokens_per_s\": %.1f},\n",
                     w.serial.bestSeconds, w.serial.tokensPerS());
        std::fprintf(f,
                     "     \"batched\": {\"seconds\": %.6f, "
                     "\"tokens_per_s\": %.1f},\n",
                     w.cont.bestSeconds, w.cont.tokensPerS());
        std::fprintf(f, "     \"speedup\": %.4f,\n",
                     w.cont.tokensPerS() / w.serial.tokensPerS());
        std::fprintf(f,
                     "     \"latency_us\": {\"p50\": %lld, "
                     "\"p95\": %lld, \"p99\": %lld}}%s\n",
                     static_cast<long long>(w.cont.p50Us),
                     static_cast<long long>(w.cont.p95Us),
                     static_cast<long long>(w.cont.p99Us),
                     i + 1 < widths.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"trace_path\": \"%s\",\n", kTracePath);
    std::fprintf(f, "  \"valid\": %s\n}\n", ok ? "true" : "false");
    std::fclose(f);

    std::printf("results written to BENCH_serve.json (trace: %s)\n",
                kTracePath);
    return ok ? 0 : 1;
}
