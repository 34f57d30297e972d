/**
 * @file
 * Workspace arenas: the steady-state memory plan for the training
 * step. A `Workspace` is a size-class recycling arena that Tensor
 * storage is drawn from whenever a `WorkspaceScope` is active on the
 * allocating thread, instead of the global heap.
 *
 * Lifecycle (DESIGN.md section 9): allocation requests round up to a
 * power-of-two size class. A request is served, in order, from
 *
 *   1. the class free list (a block released by a destroyed or
 *      reassigned tensor of the same class) — an *arena hit*;
 *   2. the bump pointer of the current slab — also a hit, since no
 *      heap call is made;
 *   3. a fresh slab mapped from the OS (`mmap`, unmapped when the
 *      workspace dies) — a *heap fallback*, the event the
 *      zero-allocation contract counts. Warmup (step 1) is all
 *      fallbacks; steady state must have none.
 *
 * Released blocks go back to their class free list and are never
 * returned to the heap until the workspace dies, so a workspace's
 * footprint is the high-water mark of the step that owns it —
 * exactly the statically-planned activation memory treatment the
 * Megatron line of work applies, in recycling form. `reset()`
 * rewinds the slabs only when no block is outstanding; with live
 * tensors (persistent compressor state, parked activations) it
 * degrades to pure free-list recycling, which is still heap-free.
 *
 * Scoping: `WorkspaceScope` installs a workspace in the runtime's
 * thread-local workspace slot (runtime.hh,
 * exchangeCurrentWorkspaceSlot), which Tensor's storage path reads
 * through currentWorkspace(). The runtime propagates the
 * installing thread's scope to pool workers for the duration of a
 * parallelFor job or queued task, so tensors constructed inside
 * parallel bodies land in the caller's arena. `OPTIMUS_ARENA=0`
 * makes every scope a no-op (all tensors heap-backed) — the A/B
 * switch the bitwise-identity tests flip.
 *
 * Observability is always on (plain relaxed atomics, no lock): the
 * process-wide tallies behind `mem::heapAllocs()` etc. feed the
 * obs::metrics registry and the `mem.heapAllocs` trace counter track
 * via `mem::publishMetrics()` at step boundaries, and the alloc_gate
 * test enforces the steady-state zero directly.
 */

#ifndef OPTIMUS_TENSOR_ARENA_HH
#define OPTIMUS_TENSOR_ARENA_HH

#include <cstdint>
#include <mutex>
#include <vector>

namespace optimus
{

/** Point-in-time allocation tallies (see mem:: for the globals). */
struct WorkspaceStats
{
    /** Requests served without touching the heap. */
    int64_t arenaHits = 0;
    /** Requests that had to grow the workspace (slab mapping). */
    int64_t heapFallbacks = 0;
    /** Heap bytes ever acquired by this workspace. */
    int64_t slabBytes = 0;
    /** Blocks currently handed out (not yet released). */
    int64_t outstanding = 0;
};

/**
 * Size-class recycling arena. Thread-safe: one mutex guards the
 * free lists and bump pointer (tensor construction/destruction is
 * coarse next to the kernels that run between them). Blocks are
 * 64-byte aligned. The workspace must outlive every tensor holding
 * one of its blocks.
 */
class Workspace
{
  public:
    /** @p name tags diagnostics; must be a string literal. */
    explicit Workspace(const char *name = "ws");
    ~Workspace();

    Workspace(const Workspace &) = delete;
    Workspace &operator=(const Workspace &) = delete;

    /**
     * Hand out a block of at least @p min_elems floats. The class
     * capacity actually granted (>= min_elems) is written to
     * @p cap_elems; release() must be called with that capacity.
     */
    float *allocate(int64_t min_elems, int64_t &cap_elems);

    /** Return a block of class capacity @p cap_elems to its list. */
    void release(float *p, int64_t cap_elems);

    /**
     * Rewind to an empty arena (all slabs reusable from their bump
     * pointers, free lists cleared) — only possible when nothing is
     * outstanding. Otherwise keeps recycling through the free lists,
     * which is still allocation-free. @return true when rewound.
     */
    bool reset();

    WorkspaceStats stats() const;
    const char *name() const { return name_; }

  private:
    struct Slab
    {
        char *base = nullptr;
        int64_t cap = 0;
        int64_t used = 0;
    };

    /** Size class for a byte count: pow2, >= kMinClassBytes. */
    static int classOf(int64_t bytes);

    const char *name_;
    mutable std::mutex mutex_;
    std::vector<Slab> slabs_;
    /** Index of the slab currently being carved. */
    int64_t activeSlab_ = 0;
    /**
     * freeHeads_[c] heads an intrusive LIFO list of released blocks
     * of class c: the next pointer lives in the free block's first
     * bytes (every class holds at least a cache line). Intrusive on
     * purpose — recycling must never allocate, and a vector-backed
     * list would ratchet its capacity on whatever free-depth the
     * schedule happened to produce, a heap call the steady-state
     * contract forbids.
     */
    std::vector<float *> freeHeads_;
    WorkspaceStats stats_;
};

/**
 * RAII thread-local scope: while alive, Tensor storage on this
 * thread (and on pool workers executing this thread's parallel
 * bodies) is drawn from @p ws. Scopes nest; the innermost wins.
 */
class WorkspaceScope
{
  public:
    explicit WorkspaceScope(Workspace *ws);
    ~WorkspaceScope();

    WorkspaceScope(const WorkspaceScope &) = delete;
    WorkspaceScope &operator=(const WorkspaceScope &) = delete;

  private:
    Workspace *saved_;
};

/**
 * The workspace Tensor storage should use on this thread, or nullptr
 * for the heap (no scope active, or OPTIMUS_ARENA=0).
 */
Workspace *currentWorkspace();

/** True unless OPTIMUS_ARENA=0 disabled arenas (read once). */
bool arenaEnabled();

namespace mem
{

/**
 * Process-wide allocation tallies (always on; relaxed atomics).
 * heapAllocs counts every heap acquisition made for tensor storage:
 * arena slab growth plus unscoped (heap-backed) tensor allocations.
 * The steady-state contract is that a full training step adds zero.
 */
int64_t heapAllocs();
/** Workspace requests served without the heap. */
int64_t arenaHits();
/** Workspace requests that grew a slab. */
int64_t heapFallbacks();
/** High-water mark of live tensor-storage bytes (arena + heap). */
int64_t peakBytes();

/** Internal: tensor.cc accounting hooks. */
void noteHeapAlloc(int64_t bytes);
void noteHeapFree(int64_t bytes);
void noteArenaHit();
void noteFallback(int64_t slab_bytes);
void noteLive(int64_t delta_bytes);

/**
 * Fold the tallies into obs::metrics (gauges mem.arenaHits,
 * mem.heapFallbacks, mem.heapAllocs, mem.peakBytes) and emit the
 * mem.heapAllocs trace counter track. Called at step boundaries.
 */
void publishMetrics();

} // namespace mem

} // namespace optimus

#endif // OPTIMUS_TENSOR_ARENA_HH
