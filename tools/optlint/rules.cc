#include "rules.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace optlint
{

const RuleInfo kRules[] = {
    {"DET01", "call to rand()/srand()/rand_r() — all randomness must "
              "flow through optimus::Rng (src/util/random)"},
    {"DET02", "std::random_device — nondeterministic hardware entropy "
              "breaks reproducible reruns"},
    {"DET03", "wall-clock seed source (time(), chrono::system_clock) — "
              "results must not depend on when they run"},
    {"DET04", "std::unordered_map/unordered_set — iteration order "
              "varies across standard libraries; use ordered "
              "containers or justify membership-only use"},
    {"DET05", "std:: random engine (mt19937 etc.) — the generated "
              "stream is not stable across standard libraries; use "
              "optimus::Rng"},
    {"DET06", "floating-point accumulation into a by-reference "
              "capture inside a parallelReduceSum/TaskGroup body — "
              "reduction order then depends on the schedule; return "
              "chunk partials or use parallelReduceSum's combiner"},
    {"THR01", "compound assignment to shared (non-chunk-local) state "
              "inside a parallelFor body — order-dependent "
              "accumulation; route reductions through "
              "parallelReduceSum"},
    {"THR02", "function reachable from a parallelFor/TaskGroup body "
              "transitively writes non-chunk-local shared state — "
              "the interprocedural THR01 (effect summaries "
              "propagated over the call graph)"},
    {"LIFE01", "lambda capturing locals by reference escapes into a "
               "deferred TaskGroup submit or a stored callback — the "
               "captures dangle once the frame returns"},
    {"ALLOC01", "transitive heap allocation inside a hot-path "
                "function (SIMD/GEMM kernel TUs plus optlint:hot "
                "annotations) — steady-state kernels must be "
                "allocation-free"},
    {"HYG01", "banned unsafe/locale-dependent libc function "
              "(strcpy/strcat/sprintf/gets/atoi/atol/atof) — use "
              "bounded/checked alternatives"},
    {"HYG02", "header without include guard or #pragma once"},
    {"HYG03", "float accumulator in a loop — accumulate in double "
              "(chunk-order-stable precision), cast once at the end"},
    {"COM01", "direct mutation of a byte counter outside the comm "
              "transport layer — every reported byte must come from "
              "the comm ledger the Transport folds from the "
              "CommEvents (read it via Transport::volume); see "
              "DESIGN.md section 4d"},
    {"OBS01", "direct std::chrono / clock_gettime timing outside "
              "src/obs and src/util — all timestamps must flow "
              "through obs::nowNs() so spans, counters, and phase "
              "timers share one clock (see DESIGN.md section 4e)"},
    {"OBS02", "direct printf/std::cout/std::cerr telemetry emission "
              "from library code — metrics and health signals must "
              "flow through the obs registries (rings, counters, "
              "alerts) so the exporter and dashboards see them; "
              "text output belongs to util/logging and the CLIs "
              "(see DESIGN.md section 11)"},
    {"SIM01", "raw SIMD intrinsic (_mm*/__m*/__mmask*) outside the "
              "sanctioned kernel files — vector code must live in "
              "src/tensor/simd* or src/tensor/gemm_kernels* behind "
              "the dispatch API so every call site honors the "
              "OPTIMUS_SIMD tier (see DESIGN.md section 8)"},
    {"SUP01", "stale optlint:allow comment — the named rule no "
              "longer fires on any line the suppression covers; "
              "delete it (found by --audit-suppressions)"},
};

const size_t kRuleCount = std::size(kRules);

namespace
{

/** Paths (substring match) exempt from the DET family. */
const char *kDetExemptPaths[] = {"util/random."};

/**
 * Paths (substring match) exempt from COM01: the transport layer
 * itself (where byte math is supposed to live) and the trace
 * replayer (which folds recorded events into its categories).
 */
const char *kComExemptPaths[] = {"comm/", "pipesim/trace_replay."};

bool
pathDetExempt(const std::string &path)
{
    for (const char *p : kDetExemptPaths) {
        if (path.find(p) != std::string::npos)
            return true;
    }
    return false;
}

bool
pathComExempt(const std::string &path)
{
    for (const char *p : kComExemptPaths) {
        if (path.find(p) != std::string::npos)
            return true;
    }
    return false;
}

/**
 * Paths (substring match) exempt from SIM01: the dispatch layer's
 * kernel files — the only translation units allowed to spell raw
 * intrinsics. Everything else goes through the simd:: wrappers or
 * the GEMM panel descriptors.
 */
const char *kSimExemptPaths[] = {"tensor/simd.",
                                 "tensor/simd_internal.",
                                 "tensor/gemm_kernels."};

bool
pathSimExempt(const std::string &path)
{
    for (const char *p : kSimExemptPaths) {
        if (path.find(p) != std::string::npos)
            return true;
    }
    return false;
}

/**
 * Paths (substring match) exempt from OBS01: the clock's home
 * (src/obs), the utility layer beneath it, and the measurement
 * harnesses (benches/tests/examples time whatever they like).
 */
const char *kObsExemptPaths[] = {"obs/", "util/", "bench", "tests",
                                 "examples"};

bool
pathObsExempt(const std::string &path)
{
    for (const char *p : kObsExemptPaths) {
        if (path.find(p) != std::string::npos)
            return true;
    }
    return false;
}

/**
 * Paths (substring match) exempt from OBS02: the obs layer itself
 * (the exporter and the step-summary sink print by design), the
 * logging sink, and every human-facing surface — CLIs, benches,
 * tests, examples.
 */
const char *kObs02ExemptPaths[] = {"obs/",  "util/logging.", "tools",
                                   "bench", "tests",         "examples"};

bool
pathObs02Exempt(const std::string &path)
{
    for (const char *p : kObs02ExemptPaths) {
        if (path.find(p) != std::string::npos)
            return true;
    }
    return false;
}

void
addViolation(std::vector<Violation> &out, const LexedFile &f, int line,
             const char *rule, std::string message)
{
    out.push_back({f.path, line, rule, std::move(message)});
}

/**
 * SIM01 target: an x86 vector intrinsic or vector-register type.
 * Matches `_mm...` calls (`_mm_`, `_mm256_`, `_mm512_`), `__m128`/
 * `__m256`/`__m512` (with d/i suffixes) and `__mmask*`.
 */
bool
isSimdIntrinsicIdent(const std::string &id)
{
    if (id.size() > 3 && id.compare(0, 3, "_mm") == 0 &&
        (id[3] == '_' || (id[3] >= '0' && id[3] <= '9')))
        return true;
    if (id.size() > 3 && id.compare(0, 3, "__m") == 0 &&
        (id[3] >= '0' && id[3] <= '9'))
        return true;
    if (id.rfind("__mmask", 0) == 0)
        return true;
    return false;
}

/** DET01..DET05 + HYG01 + OBS01 + SIM01: single-token patterns. */
void
checkTokenBans(const LexedFile &f, std::vector<Violation> &out)
{
    static const std::set<std::string> kLibcRand = {"rand", "srand",
                                                    "rand_r"};
    static const std::set<std::string> kEngines = {
        "mt19937",      "mt19937_64",  "minstd_rand",
        "minstd_rand0", "ranlux24",    "ranlux48",
        "knuth_b",      "default_random_engine"};
    static const std::set<std::string> kBannedFns = {
        "strcpy", "strcat", "sprintf", "vsprintf",
        "gets",   "atoi",   "atol",    "atoll",
        "atof"};

    static const std::set<std::string> kEmitFns = {
        "printf", "fprintf", "vfprintf", "fputs", "puts", "putchar"};
    static const std::set<std::string> kEmitStreams = {"cout", "cerr",
                                                       "clog"};

    const bool det_exempt = pathDetExempt(f.path);
    const bool obs_exempt = pathObsExempt(f.path);
    const bool obs02_exempt = pathObs02Exempt(f.path);
    const bool sim_exempt = pathSimExempt(f.path);
    const auto &t = f.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string &id = t[i].text;
        if (isMemberAccess(t, i))
            continue;
        if (!det_exempt) {
            if (kLibcRand.count(id) && nextIs(t, i, "(")) {
                addViolation(out, f, t[i].line, "DET01",
                             "call to " + id + "()");
            } else if (id == "random_device") {
                addViolation(out, f, t[i].line, "DET02",
                             "std::random_device");
            } else if (id == "system_clock") {
                addViolation(out, f, t[i].line, "DET03",
                             "chrono::system_clock (use steady_clock "
                             "for intervals; never seed from it)");
            } else if (id == "time" && nextIs(t, i, "(")) {
                addViolation(out, f, t[i].line, "DET03",
                             "call to time()");
            } else if (id == "unordered_map" ||
                       id == "unordered_set") {
                addViolation(out, f, t[i].line, "DET04",
                             "std::" + id);
            } else if (kEngines.count(id)) {
                addViolation(out, f, t[i].line, "DET05",
                             "std::" + id);
            }
        }
        if (kBannedFns.count(id) && nextIs(t, i, "(")) {
            addViolation(out, f, t[i].line, "HYG01",
                         "banned function " + id + "()");
        }
        if (!obs_exempt) {
            // std::chrono is always used as a namespace qualifier,
            // so requiring `::` skips declarations of identifiers
            // that merely share the name.
            if (id == "chrono" && nextIs(t, i, "::")) {
                addViolation(out, f, t[i].line, "OBS01",
                             "std::chrono (use obs::nowNs())");
            } else if ((id == "clock_gettime" ||
                        id == "gettimeofday") &&
                       nextIs(t, i, "(")) {
                addViolation(out, f, t[i].line, "OBS01",
                             "call to " + id + "() (use "
                             "obs::nowNs())");
            }
        }
        if (!obs02_exempt) {
            if (kEmitFns.count(id) && nextIs(t, i, "(")) {
                addViolation(out, f, t[i].line, "OBS02",
                             "call to " + id + "() (route telemetry "
                             "through obs:: or text through "
                             "util/logging)");
            } else if (kEmitStreams.count(id) &&
                       ((i > 0 && t[i - 1].kind == TokKind::Punct &&
                         t[i - 1].text == "::") ||
                        nextIs(t, i, "<<"))) {
                // `std::cout`/`cout <<` are stream uses; a local
                // that merely shares the name is not.
                addViolation(out, f, t[i].line, "OBS02",
                             "std::" + id + " stream emission (route "
                             "telemetry through obs:: or text "
                             "through util/logging)");
            }
        }
        if (!sim_exempt && isSimdIntrinsicIdent(id)) {
            addViolation(out, f, t[i].line, "SIM01",
                         "raw intrinsic " + id +
                             " (route through tensor/simd.hh)");
        }
    }
}

/** HYG02: headers need `#pragma once` or an #ifndef/#define guard. */
void
checkIncludeGuard(const LexedFile &f, std::vector<Violation> &out)
{
    if (!f.isHeader)
        return;
    std::string prev_ifndef;
    for (const PpLine &pp : f.pp) {
        std::stringstream ss(pp.text.substr(1));
        std::string directive, arg;
        ss >> directive >> arg;
        if (directive == "pragma" && arg == "once")
            return;
        if (directive == "ifndef") {
            prev_ifndef = arg;
        } else if (directive == "define" && !prev_ifndef.empty() &&
                   arg == prev_ifndef) {
            return;
        }
    }
    addViolation(out, f, 1, "HYG02",
                 "header has no include guard or #pragma once");
}

/**
 * THR01: inside a `parallelFor` lambda, compound assignment or
 * increment of an identifier that is neither a lambda parameter nor
 * declared inside the lambda is an order-dependent write to shared
 * state. Indexed stores (`c[i] += ...`) are exempt: disjoint-output
 * indexing is the pool's documented contract and cannot be validated
 * lexically. `parallelReduceSum` bodies are exempt by design — their
 * local partial sums are the sanctioned accumulation pattern (DET06
 * covers the captured-accumulator hazard there).
 */
void
checkParallelForWrites(const LexedFile &f, const Program &program,
                       std::vector<Violation> &out)
{
    const auto &t = f.tokens;
    for (const LambdaSite &site : program.parallelSites) {
        if (&program.fileOf(site) != &f ||
            site.kind != LambdaSite::Kind::ParallelFor)
            continue;
        for (size_t k = site.bodyBegin + 1; k < site.bodyEnd; ++k) {
            std::string target;
            if (isCompoundAssign(t[k])) {
                if (t[k - 1].kind == TokKind::Ident)
                    target = t[k - 1].text;
                else
                    continue; // indexed / parenthesized store
            } else if (t[k].kind == TokKind::Punct &&
                       (t[k].text == "++" || t[k].text == "--")) {
                if (t[k - 1].kind == TokKind::Ident)
                    target = t[k - 1].text;
                else if (t[k + 1].kind == TokKind::Ident)
                    target = t[k + 1].text;
                else
                    continue;
            } else {
                continue;
            }
            if (site.locals.count(target) || isMemberAccess(t, k - 1))
                continue;
            addViolation(out, f, t[k].line, "THR01",
                         "write to shared '" + target +
                             "' inside parallelFor body (use "
                             "parallelReduceSum or chunk-local "
                             "state)");
        }
    }
}

/**
 * HYG03: a `float` (not double) scalar that receives `+=`/`-=`
 * inside a loop accumulates rounding error linearly and, worse,
 * makes the result depend on summation order. The project-wide rule
 * is: accumulate in double, convert once.
 */
void
checkFloatAccumulators(const LexedFile &f, std::vector<Violation> &out)
{
    const auto &t = f.tokens;
    // Pass 1: scalar float/double declarations, in token order. The
    // accumulator check below resolves a name to its *nearest
    // preceding* declaration, which approximates lexical scoping
    // well enough to keep same-named variables in sibling functions
    // from cross-contaminating.
    std::map<std::string, std::vector<std::pair<size_t, bool>>> decls;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident ||
            (t[i].text != "float" && t[i].text != "double"))
            continue;
        const bool is_float = t[i].text == "float";
        size_t j = i + 1;
        bool pointer = false;
        while (j < t.size() && t[j].kind == TokKind::Punct &&
               (t[j].text == "*" || t[j].text == "&")) {
            pointer = pointer || t[j].text == "*";
            ++j;
        }
        if (!pointer && j < t.size() && t[j].kind == TokKind::Ident &&
            (nextIs(t, j, "=") || nextIs(t, j, ";")))
            decls[t[j].text].emplace_back(j, is_float);
    }
    if (decls.empty())
        return;

    // Pass 2: loop body ranges (brace-delimited for/while bodies and
    // single-statement bodies up to ';').
    std::vector<std::pair<size_t, size_t>> loops;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident ||
            (t[i].text != "for" && t[i].text != "while") ||
            !nextIs(t, i, "("))
            continue;
        const size_t close = matchBracket(t, i + 1, "(", ")");
        if (close >= t.size())
            continue;
        size_t body_begin = close + 1;
        size_t body_end;
        if (body_begin < t.size() && t[body_begin].text == "{") {
            body_end = matchBracket(t, body_begin, "{", "}");
        } else {
            body_end = body_begin;
            while (body_end < t.size() && t[body_end].text != ";")
                ++body_end;
        }
        loops.emplace_back(body_begin, body_end);
    }

    // Pass 3: += / -= on a float-declared var inside any loop range.
    for (size_t k = 0; k < t.size(); ++k) {
        if (!(t[k].kind == TokKind::Punct &&
              (t[k].text == "+=" || t[k].text == "-=")))
            continue;
        if (k == 0 || t[k - 1].kind != TokKind::Ident)
            continue;
        const auto d = decls.find(t[k - 1].text);
        if (d == decls.end())
            continue;
        // Nearest declaration before this use decides the type.
        bool declared_float = false;
        bool found = false;
        for (const auto &[idx, is_float] : d->second) {
            if (idx < k) {
                declared_float = is_float;
                found = true;
            }
        }
        if (!found || !declared_float)
            continue;
        if (isMemberAccess(t, k - 1))
            continue;
        const bool in_loop =
            std::any_of(loops.begin(), loops.end(),
                        [k](const std::pair<size_t, size_t> &r) {
                            return k > r.first && k < r.second;
                        });
        if (in_loop) {
            addViolation(out, f, t[k].line, "HYG03",
                         "float accumulator '" + t[k - 1].text +
                             "' in loop (accumulate in double)");
        }
    }
}

/**
 * COM01: compound assignment or increment of an identifier whose
 * name contains "bytes" is hand-maintained byte bookkeeping, which
 * the comm transport layer made obsolete: the Transport folds
 * every CommEvent into one per-phase ledger, and every reported
 * byte is read from it. Unlike THR01, member-access targets *are*
 * flagged — `stats.fooBytes += x` is exactly the pattern the rule
 * exists to catch. The transport
 * layer and the trace replayer are exempt by path; the few
 * sanctioned view-fold sites carry `optlint:allow(COM01)` with a
 * justification.
 */
void
checkByteCounterWrites(const LexedFile &f, std::vector<Violation> &out)
{
    if (pathComExempt(f.path))
        return;
    const auto &t = f.tokens;
    for (size_t k = 0; k < t.size(); ++k) {
        std::string target;
        if (isCompoundAssign(t[k])) {
            if (k > 0 && t[k - 1].kind == TokKind::Ident)
                target = t[k - 1].text;
        } else if (t[k].kind == TokKind::Punct &&
                   (t[k].text == "++" || t[k].text == "--")) {
            if (k > 0 && t[k - 1].kind == TokKind::Ident)
                target = t[k - 1].text;
            else if (k + 1 < t.size() &&
                     t[k + 1].kind == TokKind::Ident)
                target = t[k + 1].text;
        }
        if (target.empty())
            continue;
        std::string lower = target;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(std::tolower(c));
                       });
        if (lower.find("bytes") == std::string::npos)
            continue;
        addViolation(out, f, t[k].line, "COM01",
                     "byte counter '" + target +
                         "' mutated outside the comm transport "
                         "layer (read the comm ledger via "
                         "Transport::volume instead)");
    }
}

// -----------------------------------------------------------------
// Semantic rules (consume the linked IR).
// -----------------------------------------------------------------

/**
 * THR02: a call inside a parallel-region body to a function whose
 * transitive effect summary writes shared state — either an
 * unsynchronized non-local write anywhere in its call closure, or a
 * write through a by-reference parameter that this call site binds
 * to a non-chunk-local identifier.
 */
void
checkTransitiveParallelWrites(const Program &program,
                              std::vector<Violation> &out)
{
    std::set<std::string> reported; // file:line:callee dedup
    for (const LambdaSite &site : program.parallelSites) {
        const LexedFile &f = program.fileOf(site);
        const std::vector<CallSite> calls =
            scanCalls(f.tokens, site.bodyBegin + 1, site.bodyEnd);
        for (const CallSite &c : calls) {
            auto range = program.byName.equal_range(c.callee);
            for (auto it = range.first; it != range.second; ++it) {
                const FunctionDef &g = program.functions[it->second];
                const std::string key = f.path + ":" +
                                        std::to_string(c.line) + ":" +
                                        c.callee;
                if (g.total.writesGlobal) {
                    if (reported.insert(key).second)
                        addViolation(
                            out, f, c.line, "THR02",
                            "call to '" + g.qualName +
                                "' inside a parallel body "
                                "transitively writes shared state "
                                "(" + g.total.globalEvidence + ")");
                    break;
                }
                bool flagged = false;
                for (int wp : g.total.writesParams) {
                    const size_t ai = static_cast<size_t>(wp);
                    if (ai >= c.argIdents.size())
                        continue;
                    const std::string &a = c.argIdents[ai];
                    if (a.empty() || site.locals.count(a))
                        continue;
                    if (!a.empty() && a.back() == '_')
                        continue; // member: disjoint-object pattern
                    if (!(site.byRefDefault ||
                          site.refCaptures.count(a)))
                        continue; // copied capture — writes the copy
                    if (reported.insert(key).second) {
                        addViolation(
                            out, f, c.line, "THR02",
                            "'" + g.qualName +
                                "' writes through parameter '" +
                                (ai < g.paramNames.size()
                                     ? g.paramNames[ai]
                                     : "?") +
                                "' bound to captured '" + a +
                                "' inside a parallel body");
                        flagged = true;
                    }
                    break;
                }
                if (flagged)
                    break;
            }
        }
    }
}

/**
 * DET06: `+=`/`-=` on a by-reference-captured float/double inside a
 * parallelReduceSum or TaskGroup-submitted lambda. parallelFor
 * bodies are THR01's territory; the reduce/submit bodies were the
 * blind spot — a captured accumulator there races AND makes the
 * reduction order schedule-dependent.
 */
void
checkCapturedFpAccumulation(const Program &program,
                            std::vector<Violation> &out)
{
    for (const LambdaSite &site : program.parallelSites) {
        if (site.kind == LambdaSite::Kind::ParallelFor ||
            !site.capturesByRef())
            continue;
        const LexedFile &f = program.fileOf(site);
        const auto &t = f.tokens;
        // Scalar fp declarations before the lambda (HYG03-style
        // nearest-preceding resolution).
        std::set<std::string> fp_names;
        for (size_t i = 0; i + 1 < site.capBegin; ++i) {
            if (t[i].kind != TokKind::Ident ||
                (t[i].text != "float" && t[i].text != "double"))
                continue;
            size_t j = i + 1;
            bool pointer = false;
            while (j < t.size() && t[j].kind == TokKind::Punct &&
                   (t[j].text == "*" || t[j].text == "&")) {
                pointer = pointer || t[j].text == "*";
                ++j;
            }
            if (!pointer && j < site.capBegin &&
                t[j].kind == TokKind::Ident &&
                (nextIs(t, j, "=") || nextIs(t, j, ";")))
                fp_names.insert(t[j].text);
        }
        if (fp_names.empty())
            continue;
        for (size_t k = site.bodyBegin + 1; k < site.bodyEnd; ++k) {
            if (!(t[k].kind == TokKind::Punct &&
                  (t[k].text == "+=" || t[k].text == "-=")))
                continue;
            if (t[k - 1].kind != TokKind::Ident ||
                isMemberAccess(t, k - 1))
                continue;
            const std::string &target = t[k - 1].text;
            if (site.locals.count(target) || !fp_names.count(target))
                continue;
            if (!(site.byRefDefault || site.refCaptures.count(target)))
                continue;
            const char *where =
                site.kind == LambdaSite::Kind::ParallelReduce
                    ? "parallelReduceSum"
                    : "TaskGroup submit";
            addViolation(out, f, t[k].line, "DET06",
                         "floating-point accumulation into captured "
                         "'" + target + "' inside a " + where +
                             " body — reduction order depends on "
                             "the schedule");
        }
    }
}

/**
 * LIFE01 part 1: a by-reference lambda submitted to a TaskGroup in
 * a function that never wait()s afterwards — the task can outlive
 * every captured local.
 */
void
checkEscapingSubmits(const Program &program,
                     std::vector<Violation> &out)
{
    for (const LambdaSite &site : program.parallelSites) {
        if (site.kind != LambdaSite::Kind::Submit ||
            !site.capturesByRef())
            continue;
        const LexedFile &f = program.fileOf(site);
        // Locate the enclosing function definition.
        const FunctionDef *host = nullptr;
        for (const FunctionDef &fn : program.functions) {
            if (&program.fileOf(fn) != &f)
                continue;
            if (fn.bodyBegin < site.capBegin &&
                site.bodyEnd < fn.bodyEnd &&
                (!host || fn.bodyBegin > host->bodyBegin))
                host = &fn;
        }
        if (!host)
            continue; // parse blind spot — do not guess
        const auto &t = f.tokens;
        bool waited = false;
        for (size_t k = site.bodyEnd; k < host->bodyEnd; ++k) {
            if (t[k].kind == TokKind::Ident && t[k].text == "wait" &&
                nextIs(t, k, "(")) {
                waited = true;
                break;
            }
        }
        if (!waited) {
            addViolation(out, f, site.line, "LIFE01",
                         "by-reference lambda submitted to a "
                         "TaskGroup with no wait() before '" +
                             host->qualName +
                             "' returns — captured locals dangle");
        }
    }
}

/**
 * LIFE01 part 2: a by-reference lambda stored into a non-local
 * callback slot (member/global assignment, or push_back into a
 * non-local container) — deferred invocation outlives the frame.
 */
void
checkStoredCallbacks(const Program &program,
                     std::vector<Violation> &out)
{
    for (const FunctionDef &fn : program.functions) {
        const LexedFile &f = program.fileOf(fn);
        const auto &t = f.tokens;
        for (size_t k = fn.bodyBegin + 1; k + 1 < fn.bodyEnd; ++k) {
            if (!(t[k].kind == TokKind::Punct &&
                  (t[k].text == "=" || t[k].text == "(")) ||
                !(t[k + 1].kind == TokKind::Punct &&
                  t[k + 1].text == "["))
                continue;
            const size_t cap = k + 1;
            const size_t cap_end = matchBracket(t, cap, "[", "]");
            if (cap_end >= fn.bodyEnd)
                continue;
            bool by_ref = false;
            for (size_t m = cap + 1; m < cap_end; ++m) {
                if (t[m].kind == TokKind::Punct && t[m].text == "&")
                    by_ref = true;
            }
            if (!by_ref)
                continue;
            std::string sink;
            bool escapes = false;
            if (t[k].text == "=") {
                // `slot = [&]...` — escaping when `slot` is a
                // member (trailing underscore or member access) or
                // an identifier that is not function-local.
                if (t[k - 1].kind != TokKind::Ident)
                    continue;
                sink = t[k - 1].text;
                const bool member = isMemberAccess(t, k - 1) ||
                                    (!sink.empty() &&
                                     sink.back() == '_');
                escapes = member || !fn.locals.count(sink);
            } else {
                // `sink.push_back([&]...)` — escaping when the
                // receiver is a member or not function-local.
                if (k < 3 || t[k - 1].kind != TokKind::Ident ||
                    (t[k - 1].text != "push_back" &&
                     t[k - 1].text != "emplace_back"))
                    continue;
                if (!isMemberAccess(t, k - 2) ||
                    t[k - 3].kind != TokKind::Ident)
                    continue;
                sink = t[k - 3].text;
                const bool member = !sink.empty() &&
                                    sink.back() == '_';
                escapes = member || !fn.locals.count(sink);
            }
            if (escapes) {
                addViolation(out, f, t[cap].line, "LIFE01",
                             "by-reference lambda stored into "
                             "non-local '" + sink +
                                 "' — captured locals dangle after "
                                 "'" + fn.qualName + "' returns");
            }
        }
    }
}

/**
 * ALLOC01: a hot-path function (SIMD/GEMM kernel TUs by default,
 * plus `optlint:hot` annotations) that allocates on some path —
 * directly or through any callee. Reported at the definition.
 */
void
checkHotPathAllocations(const Program &program,
                        std::vector<Violation> &out)
{
    for (const FunctionDef &fn : program.functions) {
        if (!fn.isHot || fn.isColdSetup || !fn.total.allocates)
            continue;
        const LexedFile &f = program.fileOf(fn);
        addViolation(out, f, fn.line, "ALLOC01",
                     "hot-path function '" + fn.qualName +
                         "' allocates on a steady-state path (" +
                         fn.total.allocEvidence + ")");
    }
}

} // namespace

std::vector<Violation>
runAllRules(const Program &program)
{
    std::vector<Violation> out;
    for (const LexedFile *f : program.files) {
        checkTokenBans(*f, out);
        checkIncludeGuard(*f, out);
        checkParallelForWrites(*f, program, out);
        checkFloatAccumulators(*f, out);
        checkByteCounterWrites(*f, out);
    }
    checkTransitiveParallelWrites(program, out);
    checkCapturedFpAccumulation(program, out);
    checkEscapingSubmits(program, out);
    checkStoredCallbacks(program, out);
    checkHotPathAllocations(program, out);

    std::sort(out.begin(), out.end(),
              [](const Violation &a, const Violation &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Violation &a, const Violation &b) {
                              return a.file == b.file &&
                                     a.line == b.line &&
                                     a.rule == b.rule &&
                                     a.message == b.message;
                          }),
              out.end());
    return out;
}

std::vector<Violation>
filterSuppressed(const std::vector<Violation> &raw,
                 const Program &program)
{
    std::map<std::string, const LexedFile *> by_path;
    for (const LexedFile *f : program.files)
        by_path[f->path] = f;
    std::vector<Violation> out;
    for (const Violation &v : raw) {
        const auto f = by_path.find(v.file);
        if (f != by_path.end()) {
            const auto it = f->second->allow.find(v.line);
            if (it != f->second->allow.end() &&
                it->second.count(v.rule))
                continue;
        }
        out.push_back(v);
    }
    return out;
}

std::vector<Violation>
auditSuppressions(const std::vector<Violation> &raw,
                  const Program &program)
{
    std::set<std::pair<std::string, std::pair<int, std::string>>> live;
    for (const Violation &v : raw)
        live.insert({v.file, {v.line, v.rule}});
    std::vector<Violation> out;
    for (const LexedFile *f : program.files) {
        for (const AllowRecord &rec : f->allowRecords) {
            bool fires = live.count({f->path, {rec.line, rec.rule}});
            if (!fires && rec.ownLine)
                fires = live.count(
                    {f->path, {rec.line + 1, rec.rule}});
            if (fires)
                continue;
            out.push_back(
                {f->path, rec.line, "SUP01",
                 "stale suppression: optlint:allow(" + rec.rule +
                     ") matches no " + rec.rule +
                     " finding on the line(s) it covers"});
        }
    }
    return out;
}

} // namespace optlint
