/**
 * @file
 * The serving workload: serve::ServeEngine at P=2 with an exact
 * boundary on a 1-thread pool, driven by a closed loop of more
 * clients than batch slots. Each client submits its next request as
 * soon as the previous one has completed, so batch composition is a
 * function of token counts alone and repeats exactly from run to
 * run. The model and the request mix are fixed; the prompt tokens and
 * the requests checked against the oracle are drawn from --seed.
 *
 * A pass serves the whole request list; a run repeats passes until
 * the requested seconds have passed. The schedule is read from
 * outside the engine: admission is FIFO, so after each step() the
 * admitted count is submitted minus pendingRequests(), and every
 * decoding sequence gains exactly one token per step(). Throughput,
 * TTFT and inter-token gaps come from the quiet pass (quietPass):
 * each step at its shortest time over the run's passes, replayed
 * through that schedule.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "comm/transport.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "layers.hh"
#include "nn/loss.hh"
#include "obs/trace.hh"
#include "obs/tracesum.hh"
#include "parallel/stage_module.hh"
#include "runtime/runtime.hh"
#include "serve/engine.hh"
#include "tensor/arena.hh"
#include "trace_read.hh"

using namespace optimus;

namespace perfbench
{

namespace
{

struct ServeSpec
{
    GptConfig model;
    int stages = 2;
    int64_t slots = 8;
    int clients = 16;
    int requests = 96;
    int64_t promptMin = 4, promptMax = 32;
    int64_t outputMin = 8, outputMax = 32;
    /** Requests whose outputs are checked against the oracle. */
    int oracleSamples = 4;
};

ServeSpec
serveSpec(bool smoke)
{
    ServeSpec spec;
    spec.model.vocab = smoke ? 24 : 64;
    spec.model.hidden = smoke ? 16 : 64;
    spec.model.layers = 4;
    spec.model.heads = smoke ? 2 : 4;
    spec.model.seqLen = 64;
    if (smoke) {
        spec.slots = 2;
        spec.clients = 4;
        spec.requests = 6;
        spec.promptMax = 8;
        spec.outputMin = 2;
        spec.outputMax = 8;
        spec.oracleSamples = 2;
    }
    return spec;
}

/** Seed of the fixed request order. */
constexpr uint64_t kOrderSeed = 17;

struct Request
{
    std::vector<int32_t> prompt;
    int64_t maxNew = 0;
};

/**
 * The request list of one pass. Lengths and arrival order are fixed:
 * prompt lengths evenly cover [promptMin, promptMax], output lengths
 * [outputMin, outputMax] in a scrambled pairing, in one fixed
 * shuffled order, so every seed offers the same work in the same
 * batches (a seeded order moved tokens_per_s by 12% between seeds).
 * @p seed draws the prompt tokens, and so the generated text.
 */
std::vector<Request>
makeRequests(const ServeSpec &spec, uint64_t seed)
{
    const int64_t n = spec.requests;
    const int64_t prompt_span = spec.promptMax - spec.promptMin + 1;
    const int64_t output_span = spec.outputMax - spec.outputMin + 1;
    std::vector<Request> requests(n);
    for (int64_t i = 0; i < n; ++i) {
        requests[i].prompt.resize(spec.promptMin + i * prompt_span / n);
        requests[i].maxNew =
            spec.outputMin + (i * 37 % n) * output_span / n;
    }
    Rng order(kOrderSeed);
    for (int64_t i = n - 1; i > 0; --i)
        std::swap(requests[i], requests[order.uniformInt(i + 1)]);
    Rng rng(seed);
    for (Request &r : requests) {
        for (int32_t &token : r.prompt)
            token =
                static_cast<int32_t>(rng.uniformInt(spec.model.vocab));
    }
    return requests;
}

serve::ServeConfig
engineConfig(const ServeSpec &spec, Transport *transport)
{
    serve::ServeConfig config;
    config.model = spec.model;
    config.pipelineStages = spec.stages;
    config.maxSequences = spec.slots;
    config.transport = transport;
    return config;
}

/**
 * Step-level record of a run's closed-loop passes. Every
 * pass runs the same schedule (the same requests admitted, and the
 * same number of tokens decoded, in each step()), so passes differ
 * only in their step times; runPass counts passes that break this.
 */
struct Passes
{
    /** Per step: tokens decoded by sequences admitted earlier. */
    std::vector<int64_t> decoded;
    /** Per request, in submission order: steps completed before it
     *  was submitted, and the index of the step that admitted it. */
    std::vector<std::pair<int, int>> admissions;
    /** Per pass on the shared schedule, per step: seconds from the
     *  end of the previous step (or from the pass start) to the end
     *  of this one. */
    std::vector<std::vector<double>> gaps;
    /** Raw submit-to-admission waits of every pass, in ms. */
    std::vector<double> queueMs;
    int64_t requests = 0;
    /** Requests that ended short of their token budget. */
    int64_t shortRequests = 0;
    /** Passes whose schedule differs from the first pass. */
    int64_t scheduleMismatches = 0;
    int64_t steps = 0;
};

/** Generated tokens of selected request indices (oracle check). */
using Outputs = std::vector<std::vector<int32_t>>;

/**
 * One closed-loop pass over @p requests with @p clients concurrent
 * clients, recorded into @p passes. Outputs of the request indices
 * in @p keep are stored into @p outputs when it is non-null.
 */
void
runPass(serve::ServeEngine &engine,
        const std::vector<Request> &requests, int clients,
        Passes &passes, const std::vector<int> &keep, Outputs *outputs)
{
    const int total = static_cast<int>(requests.size());
    std::vector<double> submitted_at(total, 0.0);
    std::vector<int> submit_step(total, 0);
    std::vector<int64_t> decoded_per_step;
    std::vector<std::pair<int, int>> admissions;
    std::vector<double> gaps;
    // Requests are submitted in list order and engine ids are
    // sequential, so id - first_id is the request's index.
    int submitted = 0;
    int64_t first_id = -1;
    std::vector<int> finished;
    engine.setFinishCallback([&](const serve::FinishedRequest &done) {
        const int index = static_cast<int>(done.id - first_id);
        const int64_t generated =
            static_cast<int64_t>(done.tokens.size()) - done.promptLen;
        if (generated != requests[index].maxNew)
            ++passes.shortRequests;
        if (outputs) {
            for (size_t k = 0; k < keep.size(); ++k) {
                if (keep[k] == index)
                    (*outputs)[k].assign(done.tokens.begin() +
                                             done.promptLen,
                                         done.tokens.end());
            }
        }
        finished.push_back(index);
    });
    const auto submit = [&] {
        const int64_t id = engine.submit(requests[submitted].prompt,
                                         requests[submitted].maxNew);
        if (first_id < 0)
            first_id = id;
        submitted_at[submitted] = now();
        submit_step[submitted] = static_cast<int>(gaps.size());
        ++submitted;
    };

    for (int c = 0; c < std::min(clients, total); ++c)
        submit();
    int64_t admitted = 0;
    int completed = 0;
    double last_end = now();
    while (completed < total) {
        const double t0 = now();
        const int64_t produced = engine.step();
        const double t1 = now();
        const int step = static_cast<int>(gaps.size());
        gaps.push_back(t1 - last_end);
        const int64_t now_admitted = submitted - engine.pendingRequests();
        for (int64_t a = admitted; a < now_admitted; ++a) {
            passes.queueMs.push_back(1e3 * (t0 - submitted_at[a]));
            admissions.emplace_back(submit_step[a], step);
        }
        decoded_per_step.push_back(produced - (now_admitted - admitted));
        admitted = now_admitted;
        last_end = t1;
        completed += static_cast<int>(finished.size());
        for (size_t f = 0; f < finished.size(); ++f) {
            if (submitted < total)
                submit();
        }
        finished.clear();
    }
    engine.setFinishCallback(nullptr);

    passes.steps += static_cast<int64_t>(gaps.size());
    passes.requests += total;
    if (passes.gaps.empty()) {
        passes.decoded = std::move(decoded_per_step);
        passes.admissions = std::move(admissions);
    } else if (decoded_per_step != passes.decoded ||
               admissions != passes.admissions) {
        ++passes.scheduleMismatches;
        return;
    }
    passes.gaps.push_back(std::move(gaps));
}

/** Timing of the quiet pass (see quietPass). */
struct QuietPass
{
    double seconds = 0.0;
    /** One sample per request. */
    std::vector<double> ttftMs;
    /** One sample per decoding sequence per step. */
    std::vector<double> itlMs;
};

/**
 * The quiet pass: every step at its shortest time over all passes,
 * with TTFT and inter-token samples replayed from the shared
 * schedule. On a shared host a step's time is its own cost plus
 * whatever else ran on the core; the minimum over passes spread
 * across the whole run keeps the cost, while a median of whole
 * passes follows the share of the run the host was busy (NOTES.md).
 */
QuietPass
quietPass(const Passes &passes)
{
    const size_t steps = passes.decoded.size();
    std::vector<double> end(steps, 0.0);
    QuietPass quiet;
    for (size_t k = 0; k < steps; ++k) {
        double best = passes.gaps[0][k];
        for (const std::vector<double> &pass : passes.gaps)
            best = std::min(best, pass[k]);
        quiet.seconds += best;
        end[k] = quiet.seconds;
        for (int64_t r = 0; r < passes.decoded[k]; ++r)
            quiet.itlMs.push_back(1e3 * best);
    }
    for (const auto &[submit_step, admit_step] : passes.admissions) {
        const double from = submit_step > 0 ? end[submit_step - 1] : 0.0;
        quiet.ttftMs.push_back(1e3 * (end[admit_step] - from));
    }
    return quiet;
}

/**
 * Warm-up waves until one wave leaves the heap-allocation tally
 * unchanged (2 to 8 waves). A wave is one request per client spread
 * evenly over the mix, with prompt tokens that do not depend on the
 * seed.
 */
void
warmUp(serve::ServeEngine &engine, const ServeSpec &spec)
{
    const std::vector<Request> canonical = makeRequests(spec, 0);
    const int stride = std::max(1, spec.requests / spec.clients);
    for (int w = 0; w < 8; ++w) {
        const int64_t before = mem::heapAllocs();
        for (int r = 0; r < spec.requests; r += stride)
            engine.submit(canonical[r].prompt, canonical[r].maxNew);
        engine.drain();
        if (w >= 1 && mem::heapAllocs() == before)
            return;
    }
}

/** Indices of the requests checked against the oracle. */
std::vector<int>
oracleIndices(const ServeSpec &spec, uint64_t seed)
{
    Rng rng(seed ^ 0x5eedULL);
    std::vector<int> keep;
    while (static_cast<int>(keep.size()) < spec.oracleSamples) {
        const int index =
            static_cast<int>(rng.uniformInt(spec.requests));
        if (std::find(keep.begin(), keep.end(), index) == keep.end())
            keep.push_back(index);
    }
    return keep;
}

/** Requests whose stored output differs from the full-recompute
 *  greedy oracle (run outside every timed region). */
int64_t
oracleMismatches(const ServeSpec &spec,
                 const std::vector<Request> &requests,
                 const std::vector<int> &keep, const Outputs &outputs)
{
    int64_t mismatches = 0;
    for (size_t k = 0; k < keep.size(); ++k) {
        const Request &r = requests[keep[k]];
        if (serve::referenceGreedyDecode(spec.model, r.prompt,
                                         r.maxNew) != outputs[k])
            ++mismatches;
    }
    return mismatches;
}

/**
 * Validation perplexity of the served model through the serving
 * path's Infer entries (inferEmbed / inferBlocks / inferLogits over
 * KV caches), on held-out windows of a fixed corpus. The model is
 * freshly initialised, so this guards the inference numerics, not
 * learning.
 */
double
inferPpl(const ServeSpec &spec)
{
    const GptConfig &model = spec.model;
    CorpusConfig cc;
    cc.vocab = model.vocab;
    cc.totalTokens = 40000;
    cc.seed = kCorpusSeed;
    const SyntheticCorpus corpus(cc);
    const LmDataset val(corpus.validation(), model.seqLen);
    const std::vector<LmBatch> windows = val.evalBatches(1);

    Workspace arena("perfbench.ppl");
    WorkspaceScope scope(&arena);
    StageModule stage(model, 0, 1);
    stage.setMode(Mode::Infer);
    std::vector<KvCache> caches(stage.numBlocks());
    double nll = 0.0;
    const size_t count = std::min<size_t>(windows.size(), 16);
    for (size_t w = 0; w < count; ++w) {
        for (KvCache &cache : caches) {
            cache.ensure(model.seqLen, model.hidden);
            cache.clear();
        }
        const Tensor h = stage.inferBlocks(
            stage.inferEmbed(windows[w].tokens.data(), model.seqLen, 0),
            caches.data());
        nll += SoftmaxCrossEntropy::evaluate(stage.inferLogits(h),
                                             windows[w].targets);
    }
    return SoftmaxCrossEntropy::perplexity(nll /
                                           static_cast<double>(count));
}

int64_t
passTokens(const std::vector<Request> &requests)
{
    int64_t tokens = 0;
    for (const Request &r : requests)
        tokens += r.maxNew;
    return tokens;
}

void
checkPasses(Report &report, const Passes &passes)
{
    report.attempted += passes.requests;
    report.failed += passes.shortRequests;
    report.check(passes.scheduleMismatches == 0,
                 std::to_string(passes.scheduleMismatches) +
                     " pass(es) ran a different schedule");
}

Report
endToEnd(const ServeSpec &spec, const Options &options)
{
    Report report;
    const std::vector<Request> requests =
        makeRequests(spec, options.seed);
    // kSetups set-ups, spread over the run so that their median
    // samples the host over the whole run and not over its first
    // seconds. Each one replaces the engine; passes continue on the
    // new one with the same schedule.
    std::vector<double> setups;
    std::unique_ptr<serve::ServeEngine> engine;
    const auto set_up = [&] {
        engine.reset();
        const double t0 = now();
        engine = std::make_unique<serve::ServeEngine>(
            engineConfig(spec, nullptr));
        warmUp(*engine, spec);
        setups.push_back(now() - t0);
    };

    const std::vector<int> keep = oracleIndices(spec, options.seed);
    Outputs outputs(keep.size());
    Passes passes;
    const double start = now();
    set_up();
    const int64_t wire0 = engine->boundaryHealth().wireBytes;
    runPass(*engine, requests, spec.clients, passes, keep, &outputs);
    const int64_t pass_wire = engine->boundaryHealth().wireBytes - wire0;
    const double stop = options.smoke ? start : start + options.seconds;
    const auto due = [&](size_t k) {
        return start + (stop - start) * static_cast<double>(k) / kSetups;
    };
    while (static_cast<int>(setups.size()) < kSetups || now() < stop) {
        if (static_cast<int>(setups.size()) < kSetups &&
            now() >= due(setups.size()))
            set_up();
        else
            runPass(*engine, requests, spec.clients, passes, {}, nullptr);
    }
    checkPasses(report, passes);
    const int64_t mismatches =
        oracleMismatches(spec, requests, keep, outputs);
    report.failed += mismatches;
    report.check(mismatches == 0,
                 std::to_string(mismatches) +
                     " request(s) differ from referenceGreedyDecode");

    const double tokens = static_cast<double>(passTokens(requests));
    const QuietPass quiet = quietPass(passes);
    report.add("tokens_per_s", tokens / quiet.seconds, "tok/s");
    report.add("val_ppl", inferPpl(spec), "ppl");
    report.add("wire_bytes_per_token",
               static_cast<double>(pass_wire) / tokens, "B/tok");
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
    report.add("ttft_ms_p50",
               percentileNoted(report, "ttft", quiet.ttftMs, 50), "ms");
    report.add("ttft_ms_p95",
               percentileNoted(report, "ttft", quiet.ttftMs, 95), "ms");
    report.add("itl_ms_p50",
               percentileNoted(report, "itl", quiet.itlMs, 50), "ms");
    report.add("itl_ms_p99",
               percentileNoted(report, "itl", quiet.itlMs, 99), "ms");

    report.info.emplace_back("passes",
                             std::to_string(passes.gaps.size()));
    report.info.emplace_back("setup_s_samples", jsonList(setups));
    return report;
}

/** Passes on @p engine until @p seconds passed (at least one);
 *  @return generated tokens per second of the quiet pass. */
double
timedTokensPerS(serve::ServeEngine &engine, const ServeSpec &spec,
                const std::vector<Request> &requests, double seconds,
                Passes &passes)
{
    const double start = now();
    do {
        runPass(engine, requests, spec.clients, passes, {}, nullptr);
    } while (now() - start < seconds);
    return static_cast<double>(passTokens(requests)) /
           quietPass(passes).seconds;
}

Report
perLayer(const ServeSpec &spec, const Options &options)
{
    Report report;
    const std::vector<Request> requests =
        makeRequests(spec, options.seed);
    const double budget = options.smoke ? 0.0 : 0.3 * options.seconds;

    double untraced_tps = 0.0;
    {
        serve::ServeEngine engine(engineConfig(spec, nullptr));
        warmUp(engine, spec);
        Passes passes;
        untraced_tps =
            timedTokensPerS(engine, spec, requests, budget, passes);
        checkPasses(report, passes);
    }

    // Traced engine: the serving engine owns no trace file, so the
    // span trace is started and written here, around timed passes
    // only. A recording transport keeps the boundary events.
    const std::string trace_path =
        options.outDir + "/trace-serve.json";
    RecordingTransport recorder(defaultTransport());
    serve::ServeEngine engine(engineConfig(spec, &recorder));
    warmUp(engine, spec);
    Passes traced;
    const int64_t first_round = engine.iterations();
    const int64_t heap0 = mem::heapAllocs();
    obs::startTracing();
    const double traced_tps =
        timedTokensPerS(engine, spec, requests, budget, traced);
    obs::stopTracing();
    const int64_t heap_allocs = mem::heapAllocs() - heap0;
    report.check(obs::writeTrace(trace_path),
                 "cannot write " + trace_path);
    checkPasses(report, traced);
    const obs::CompressionHealth boundary = engine.boundaryHealth();
    report.check(
        recorder.trace().volume(CommPhase::InterStage).wireBytes ==
            boundary.wireBytes,
        "boundary wire bytes differ from CommTrace");

    const obs::TraceSummary summary =
        obs::summarizeTraceFile(trace_path);
    const TraceScan scan =
        scanTrace(trace_path, "serve", "serve.step", first_round);
    report.check(summary.valid && scan.valid && summary.serveWaves > 0,
                 "trace " + trace_path + " missing serve waves");
    const double waves =
        static_cast<double>(std::max<int64_t>(1, summary.serveWaves));
    int64_t decode_rows = 0;
    double decode_s = 0.0;
    for (const obs::ServeWave &wave : summary.waves) {
        decode_rows += wave.decodeRows;
        decode_s += wave.decodeSeconds;
    }

    const int64_t h = spec.model.hidden;
    const GemmRate gemm = timeGemm(spec.slots, h, 4 * h);
    report.add("tensor.gemm_gflops", gemm.gflops, "GFLOP/s");
    report.add("tensor.gemm_ms", 1e3 * gemm.seconds, "ms");
    report.add("tensor.heap_allocs_per_step",
               static_cast<double>(heap_allocs) /
                   static_cast<double>(traced.steps),
               "count");
    report.add("tensor.arena_peak_mb",
               static_cast<double>(mem::peakBytes()) / (1024.0 * 1024.0),
               "MiB");

    // Decode rows see, on average, the prompt plus half the output.
    double context = 0.0;
    for (const Request &r : requests)
        context += static_cast<double>(r.prompt.size()) + 0.5 * r.maxNew;
    context /= static_cast<double>(requests.size());
    const NnTimes nn =
        timeDecodeLayers(spec.model, static_cast<int64_t>(context));
    report.add("nn.embedding_ms", 1e3 * nn.embedding, "ms");
    report.add("nn.layernorm_ms", 1e3 * nn.layernorm, "ms");
    report.add("nn.qkv_ms", 1e3 * nn.qkv, "ms");
    report.add("nn.attention_core_ms", 1e3 * nn.attentionCore, "ms");
    report.add("nn.proj_ms", 1e3 * nn.proj, "ms");
    report.add("nn.mlp_ms", 1e3 * nn.mlp, "ms");
    report.add("nn.head_loss_ms", 1e3 * nn.headLoss, "ms");
    report.add("nn.optimizer_ms", 0.0, "ms");
    const double explained_s = static_cast<double>(decode_rows) *
                               nn.modelPass(spec.model.layers);
    report.add("nn.unattributed_pct",
               decode_s > 0.0
                   ? 100.0 * (decode_s - explained_s) / decode_s
                   : 0.0,
               "%");

    report.add("compress.powersgd_melem_s",
               powerSgdMelemPerS({{spec.slots, h, 4}}), "Melem/s");
    report.add("compress.ms_per_step", msPerWindow(scan, "compress/"),
               "ms");
    report.add("compress.ratio",
               boundary.exactBytes > 0
                   ? static_cast<double>(boundary.wireBytes) /
                         static_cast<double>(boundary.exactBytes)
                   : 1.0,
               "ratio");

    for (const char *phase : {"interStage", "dpReduce", "embSync"}) {
        const PhaseComm comm =
            phaseComm(summary, summary.serveWaves, scan, phase);
        const std::string base = std::string("comm.") + phase;
        report.add(base + ".calls_per_step", comm.calls, "count");
        report.add(base + ".wire_bytes_per_step", comm.wireBytes, "B");
        report.add(base + ".ms_per_step", comm.ms, "ms");
    }

    for (const char *name :
         {"parallel.forward_backward_ms", "parallel.dp_reduce_exposed_ms",
          "parallel.dp_reduce_busy_ms", "parallel.emb_sync_ms",
          "parallel.optimizer_ms"})
        report.add(name, 0.0, "ms");
    report.add("parallel.unattributed_pct", 0.0, "%");

    report.add("runtime.parallel_for_per_step",
               countPerWindow(scan, "runtime/parallelFor"), "count");
    report.add("runtime.tasks_per_step",
               countPerWindow(scan, "runtime/task"), "count");
    report.add("runtime.worker_idle_pct",
               workerIdlePct(scan, runtimeThreads()), "%");
    report.add("runtime.dispatch_us", dispatchMicros(), "us");

    report.add("serve.prefill_ms_per_round",
               1e3 * summary.servePrefill / waves, "ms");
    report.add("serve.decode_ms_per_round",
               1e3 * summary.serveDecode / waves, "ms");
    report.add("serve.decode_rows_mean",
               static_cast<double>(decode_rows) / waves, "rows");
    report.add("serve.queue_wait_ms_p50",
               percentileNoted(report, "queue_wait", traced.queueMs, 50),
               "ms");

    report.add("data.sample_ms_per_step", 0.0, "ms");
    report.add("obs.trace_overhead_pct",
               100.0 * (untraced_tps - traced_tps) / untraced_tps, "%");
    // Forward-only: 2 FLOPs per parameter per generated token.
    const double model_gflops =
        2.0 * static_cast<double>(spec.model.paramCount()) *
        untraced_tps * 1e-9;
    report.add("train.model_gflops", model_gflops, "GFLOP/s");
    report.add("train.mfu_pct", 100.0 * model_gflops / gemm.gflops, "%");

    report.info.emplace_back("traced_rounds",
                             std::to_string(traced.steps));
    report.info.emplace_back("trace_path", "\"" + trace_path + "\"");
    return report;
}

} // namespace

Report
runServe(const Options &options)
{
    const ServeSpec spec = serveSpec(options.smoke);
    Report report = options.trace ? perLayer(spec, options)
                                  : endToEnd(spec, options);
    report.info.emplace_back("pp", std::to_string(spec.stages));
    report.info.emplace_back("slots", std::to_string(spec.slots));
    report.info.emplace_back("clients", std::to_string(spec.clients));
    report.info.emplace_back("requests_per_pass",
                             std::to_string(spec.requests));
    report.info.emplace_back("params",
                             std::to_string(spec.model.paramCount()));
    return report;
}

} // namespace perfbench
