#include "tensor/arena.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include <sys/mman.h>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/** Smallest class: one cache line of floats. */
constexpr int64_t kMinClassBytes = 64;
/** Classes kMinClassBytes << 0 .. << (kNumClasses-1): 64B .. 2GB. */
constexpr int kNumClasses = 26;
/** Default slab; classes larger than this get a dedicated slab. */
constexpr int64_t kSlabBytes = int64_t(1) << 20;

// Process-wide tallies — always on, so they are plain relaxed
// atomics here instead of obs::metrics counters (which sit behind
// the metricsEnabled() gate and may be reset by tests).
std::atomic<int64_t> g_heapAllocs{0};
std::atomic<int64_t> g_arenaHits{0};
std::atomic<int64_t> g_heapFallbacks{0};
std::atomic<int64_t> g_liveBytes{0};
std::atomic<int64_t> g_peakBytes{0};

int64_t
classBytes(int cls)
{
    return kMinClassBytes << cls;
}

} // namespace

int
Workspace::classOf(int64_t bytes)
{
    int cls = 0;
    while (classBytes(cls) < bytes)
        ++cls;
    OPTIMUS_ASSERT(cls < kNumClasses);
    return cls;
}

Workspace::Workspace(const char *name)
    : name_(name), freeHeads_(kNumClasses, nullptr)
{
    static_assert(kMinClassBytes >= sizeof(float *),
                  "free blocks must fit their intrusive link");
}

Workspace::~Workspace()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (stats_.outstanding != 0) {
        // Tensors still holding blocks would release into freed
        // memory; leaking the slabs is the survivable failure mode,
        // but it is always an ownership bug worth reporting.
        warn("workspace '%s' destroyed with %lld blocks outstanding",
             name_, static_cast<long long>(stats_.outstanding));
        return;
    }
    for (Slab &s : slabs_)
        munmap(s.base, static_cast<size_t>(s.cap));
}

// The arena's own heap growth is warmup-only and audited
// (stats_.heapFallbacks / mem.heapAllocs); steady-state calls are
// served from free lists and bump carving. The runtime alloc_gate
// enforces what the static declaration asserts.
// optlint:coldfn — warmup-audited arena growth (see above).
float *
Workspace::allocate(int64_t min_elems, int64_t &cap_elems)
{
    const int64_t bytes =
        min_elems > 0 ? min_elems * int64_t(sizeof(float)) : 1;
    const int cls = classOf(bytes);
    const int64_t want = classBytes(cls);
    cap_elems = want / int64_t(sizeof(float));

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.outstanding;

    if (float *p = freeHeads_[cls]) {
        // Pop the intrusive LIFO head (same recycling order as the
        // old vector's pop_back).
        std::memcpy(&freeHeads_[cls], p, sizeof(float *));
        ++stats_.arenaHits;
        mem::noteArenaHit();
        return p;
    }

    // Carve from the slabs already acquired (still heap-free).
    for (; activeSlab_ < static_cast<int64_t>(slabs_.size());
         ++activeSlab_) {
        Slab &s = slabs_[activeSlab_];
        if (s.used + want <= s.cap) {
            float *p = reinterpret_cast<float *>(s.base + s.used);
            s.used += want;
            ++stats_.arenaHits;
            mem::noteArenaHit();
            return p;
        }
    }

    // Grow: one heap call, the event the steady-state contract
    // forbids. optlint:coldalloc — this is the audited warmup path
    // the workspace layer exists to confine. Slabs are mapped
    // directly (page-aligned, so 64-byte blocks stay aligned) and
    // unmapped when the workspace dies, so peak RSS follows arena
    // use: from malloc, a slab's placement (fresh mapping, brk heap
    // or a pool worker's malloc arena) would follow glibc's adaptive
    // mmap threshold and the thread that grew the workspace.
    const int64_t slab_cap = want > kSlabBytes ? want : kSlabBytes;
    Slab s;
    void *const base = mmap(nullptr, static_cast<size_t>(slab_cap),
                            PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    OPTIMUS_ASSERT(base != MAP_FAILED);
    s.base = static_cast<char *>(base);
    s.cap = slab_cap;
    s.used = want;
    slabs_.push_back(s);
    activeSlab_ = static_cast<int64_t>(slabs_.size()) - 1;
    ++stats_.heapFallbacks;
    // optlint:allow(COM01) memory-footprint tally, not comm traffic.
    stats_.slabBytes += slab_cap;
    mem::noteFallback(slab_cap);
    return reinterpret_cast<float *>(s.base);
}

void
Workspace::release(float *p, int64_t cap_elems)
{
    const int cls = classOf(cap_elems * int64_t(sizeof(float)));
    std::lock_guard<std::mutex> lock(mutex_);
    OPTIMUS_ASSERT(stats_.outstanding > 0);
    --stats_.outstanding;
    // Intrusive push: the released block stores the old head in its
    // first bytes. No container, no possible allocation.
    std::memcpy(p, &freeHeads_[cls], sizeof(float *));
    freeHeads_[cls] = p;
}

bool
Workspace::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (stats_.outstanding != 0)
        return false;
    for (float *&head : freeHeads_)
        head = nullptr;
    for (Slab &s : slabs_)
        s.used = 0;
    activeSlab_ = 0;
    return true;
}

WorkspaceStats
Workspace::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

WorkspaceScope::WorkspaceScope(Workspace *ws)
    : saved_(exchangeCurrentWorkspaceSlot(ws))
{}

WorkspaceScope::~WorkspaceScope()
{
    exchangeCurrentWorkspaceSlot(saved_);
}

Workspace *
currentWorkspace()
{
    return arenaEnabled() ? currentWorkspaceSlot() : nullptr;
}

bool
arenaEnabled()
{
    static const bool enabled = [] {
        if (const char *env = std::getenv("OPTIMUS_ARENA")) {
            if (env[0] == '0' && env[1] == '\0')
                return false;
            if (env[0] != '1' || env[1] != '\0')
                warn("ignoring invalid OPTIMUS_ARENA='%s'", env);
        }
        return true;
    }();
    return enabled;
}

namespace mem
{

int64_t
heapAllocs()
{
    return g_heapAllocs.load(std::memory_order_relaxed);
}

int64_t
arenaHits()
{
    return g_arenaHits.load(std::memory_order_relaxed);
}

int64_t
heapFallbacks()
{
    return g_heapFallbacks.load(std::memory_order_relaxed);
}

int64_t
peakBytes()
{
    return g_peakBytes.load(std::memory_order_relaxed);
}

void
noteLive(int64_t delta_bytes)
{
    const int64_t live =
        g_liveBytes.fetch_add(delta_bytes,
                              std::memory_order_relaxed) +
        delta_bytes;
    int64_t peak = g_peakBytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peakBytes.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
}

void
noteHeapAlloc(int64_t bytes)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    noteLive(bytes);
}

void
noteHeapFree(int64_t bytes)
{
    noteLive(-bytes);
}

void
noteArenaHit()
{
    g_arenaHits.fetch_add(1, std::memory_order_relaxed);
}

void
noteFallback(int64_t slab_bytes)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    g_heapFallbacks.fetch_add(1, std::memory_order_relaxed);
    noteLive(slab_bytes);
}

void
publishMetrics()
{
    if (obs::metricsEnabled()) {
        // Registry references are stable (resetValues() only zeroes
        // slots), so resolve the handles once: the name lookups
        // build std::string temporaries whose longest key exceeds
        // small-string capacity — a per-step heap allocation the
        // publish call itself must not make.
        struct Handles
        {
            obs::Gauge *hits;
            obs::Gauge *fallbacks;
            obs::Gauge *allocs;
            obs::Gauge *peak;
        };
        static Handles h = [] {
            obs::MetricsRegistry &reg =
                obs::MetricsRegistry::instance();
            return Handles{&reg.gauge("mem.arenaHits"),
                           &reg.gauge("mem.heapFallbacks"),
                           &reg.gauge("mem.heapAllocs"),
                           &reg.gauge("mem.peakBytes")};
        }();
        h.hits->set(arenaHits());
        h.fallbacks->set(heapFallbacks());
        h.allocs->set(heapAllocs());
        h.peak->set(peakBytes());
    }
    if (obs::tracingEnabled())
        obs::emitCounter("mem.heapAllocs", heapAllocs());
}

} // namespace mem

} // namespace optimus
