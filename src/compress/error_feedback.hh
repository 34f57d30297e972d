/**
 * @file
 * Error feedback: the one residual carry behind every lossy
 * compression stream the trainer runs.
 *
 * The scheme adds the previous message's compression error to the
 * next message before compressing it. Optimus-CC uses it in two
 * places with very different semantics:
 *
 *  - Lazy error propagation (Section 5.1, BackwardChannel): the
 *    residual is applied to the *next micro-batch's* activation
 *    gradient within the same mini-batch, before any weight update,
 *    so no staleness occurs.
 *
 *  - Data-parallel gradient compression (Section 7, ReduceEngine,
 *    one residual per worker of a compressed bucket): the residual
 *    is applied to the *next iteration's* gradient, i.e. after a
 *    weight update has already happened, producing the staleness
 *    effect the paper blames for the quality drop.
 *
 * Either way a stream runs fold -> compress -> update, so that
 * sum(delivered) + residual() == sum(inputs) (the telescoping
 * identity, DESIGN.md section 4, invariant 5).
 *
 * The fold works in place: fold() adds the input into the residual's
 * own storage and hands that storage out as the fed message, and
 * update() subtracts the delivery from it, leaving the new residual.
 * No fed copy exists; between fold and update the storage holds the
 * fed values, so residual() reads empty until update() has run.
 * Float addition is commutative, so residual + input has the bits
 * of the copy-based input + residual.
 */

#ifndef OPTIMUS_COMPRESS_ERROR_FEEDBACK_HH
#define OPTIMUS_COMPRESS_ERROR_FEEDBACK_HH

#include "tensor/tensor.hh"

namespace optimus
{

/** Compression residual of one tensor stream. */
class ErrorFeedback
{
  public:
    /** Empty residual: the first fold delivers the input as is. */
    ErrorFeedback() = default;

    /** All-zero residual of @p shape, sized before the first fold. */
    explicit ErrorFeedback(const ShapeVec &shape)
        : residual_(shape), state_(State::Carried)
    {}

    /**
     * residual += input, in the residual's storage, returned as the
     * fed message (valid until update() or clear()). Without a
     * carried residual the storage is overwritten with the input,
     * reusing its capacity. A residual whose shape differs from the
     * input's is stale -- the caller rewired the stream, and folding
     * it into an unrelated tensor (even one of coincidentally equal
     * size) would silently corrupt the gradient -- so it is dropped
     * with a warning and fed = input.
     */
    const Tensor &fold(const Tensor &input);

    /**
     * residual = fed - delivered, the compression error of the fed
     * message, computed in place. @pre fold() ran since the last
     * update() or clear()
     */
    void update(const Tensor &delivered);

    /** Drop the residual (an exact delivery resolved it). The
     *  storage is kept for the next fold. */
    void clear() { state_ = State::Empty; }

    /** Carried residual (empty when none is carried, and between
     *  fold() and update()). */
    const Tensor &residual() const;

  private:
    enum class State
    {
        Empty,   // nothing carried; storage is scratch
        Fed,     // storage holds the fed message
        Carried, // storage holds the residual
    };

    Tensor residual_;
    State state_ = State::Empty;
};

} // namespace optimus

#endif // OPTIMUS_COMPRESS_ERROR_FEEDBACK_HH
