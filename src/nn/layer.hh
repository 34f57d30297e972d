/**
 * @file
 * Layer interface for the hand-written backprop stack.
 *
 * Pipelined execution (1F1B) keeps several micro-batches in flight:
 * a stage may run up to `pipeline depth` forward passes before the
 * first matching backward arrives. Layers therefore keep their
 * saved-for-backward activations in a FIFO: forward() pushes a
 * stash, backward() pops the oldest. Both 1F1B and monolithic
 * execution issue backwards in the same micro-batch order as
 * forwards, so FIFO order is always correct.
 *
 * Execution modes
 * ---------------
 * Every layer runs in an explicit mode (DESIGN.md section 10):
 *
 *  - `Mode::Train` (the default) is the historical behavior:
 *    forward() stashes whatever backward will need, bit-for-bit
 *    unchanged from before the mode split existed.
 *  - `Mode::Infer` is the forward-only serving path: forward() runs
 *    the same arithmetic as in Train but never touches the stash
 *    (the stash storage is never even constructed) and holds no
 *    mutable layer state. That arithmetic is *batch invariant*:
 *    the row-wise kernels and the GEMM (whose blocking never
 *    depends on the row count) give a row the same bits whatever
 *    other rows share the call. Batch invariance is what makes
 *    incremental KV-cache decode bitwise-equal to full-sequence
 *    recompute and lets the serving engine stack every sequence's
 *    rows into one pass without changing any sequence's tokens.
 *    Infer-mode forwards are safe to call concurrently on one
 *    shared layer instance (one model copy serves every in-flight
 *    sequence). backward() in Infer mode is a contract violation
 *    and panics.
 */

#ifndef OPTIMUS_NN_LAYER_HH
#define OPTIMUS_NN_LAYER_HH

#include <string>
#include <vector>

#include "nn/param.hh"
#include "tensor/tensor.hh"

namespace optimus
{

/** Execution mode of the layer stack (see the file comment). */
enum class Mode
{
    Train, ///< forward stashes for backward (training pipelines)
    Infer, ///< forward-only: stateless, batch invariant, no stash
};

/** Differentiable module mapping [N x in] -> [N x out]. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Switch execution mode. Composite layers override to
     * propagate to children. Call only between passes (never while
     * a forward/backward is in flight, and never with a non-empty
     * stash — switch modes after clearStash()).
     */
    virtual void setMode(Mode mode) { mode_ = mode; }

    /** Current execution mode. */
    Mode mode() const { return mode_; }

    /**
     * Run the forward pass, saving whatever backward will need onto
     * the stash FIFO.
     */
    virtual Tensor forward(const Tensor &x) = 0;

    /**
     * Consume the oldest stash entry; accumulate parameter
     * gradients; return the gradient w.r.t. the layer input.
     */
    virtual Tensor backward(const Tensor &dy) = 0;

    /** Trainable parameters (tied params may repeat across layers). */
    virtual std::vector<ParamPtr> params() const = 0;

    /** Diagnostic name. */
    virtual std::string name() const = 0;

    /** Drop all stashed activations (e.g., between evaluations). */
    virtual void clearStash() = 0;

    /** Number of stashed (awaiting-backward) micro-batches. */
    virtual size_t stashDepth() const = 0;

  private:
    Mode mode_ = Mode::Train;
};

} // namespace optimus

#endif // OPTIMUS_NN_LAYER_HH
