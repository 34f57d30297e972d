/**
 * @file
 * Per-request serving state. A `Sequence` is one admitted request
 * bound to a batch slot: its token buffer (prompt + generated), one
 * KV cache per transformer block, and the slot's workspace arena
 * that both are drawn from. Slots are recycled request-to-request —
 * the caches and the token vector keep their capacity, so admitting
 * a request into a warm slot performs no heap allocation (the
 * zero-allocation decode contract, DESIGN.md section 10).
 */

#ifndef OPTIMUS_SERVE_SEQUENCE_HH
#define OPTIMUS_SERVE_SEQUENCE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/attention.hh"
#include "tensor/arena.hh"

namespace optimus
{
namespace serve
{

/** A submitted request waiting for a free batch slot. */
struct PendingRequest
{
    int64_t id = 0;
    std::vector<int32_t> prompt;
    int64_t maxNewTokens = 0;
    /** obs::nowNs() at submit time (queueing counts as latency). */
    int64_t submitNs = 0;
};

/** One in-flight request bound to a batch slot. */
struct Sequence
{
    /**
     * Slot arena backing the KV caches. Declared first so it
     * outlives the tensors that release blocks into it on
     * destruction.
     */
    std::unique_ptr<Workspace> arena;

    int64_t id = -1;
    bool active = false;
    /** Prompt followed by generated tokens (capacity recycled). */
    std::vector<int32_t> tokens;
    int64_t promptLen = 0;
    int64_t maxNewTokens = 0;
    int64_t submitNs = 0;
    /** One cache per transformer block, by global block index. */
    std::vector<KvCache> kv;

    int64_t generated() const
    {
        return static_cast<int64_t>(tokens.size()) - promptLen;
    }

    bool finished() const
    {
        return active && generated() >= maxNewTokens;
    }
};

/**
 * Completion view handed to the finish callback. Borrowed
 * references — valid only for the duration of the call; copy what
 * must outlive it. (A view instead of a value keeps retirement off
 * the heap.)
 */
struct FinishedRequest
{
    int64_t id;
    /** Prompt followed by the generated tokens. */
    const std::vector<int32_t> &tokens;
    int64_t promptLen;
    /** Submit-to-retire wall time. */
    int64_t latencyNs;
};

} // namespace serve
} // namespace optimus

#endif // OPTIMUS_SERVE_SEQUENCE_HH
