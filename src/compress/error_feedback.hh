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
    explicit ErrorFeedback(const ShapeVec &shape) : residual_(shape) {}

    /**
     * fed = input + residual, into the caller-owned @p fed (its
     * storage is reused when large enough). A residual whose shape
     * differs from the input's is stale -- the caller rewired the
     * stream, and folding it into an unrelated tensor (even one of
     * coincidentally equal size) would silently corrupt the
     * gradient -- so it is dropped with a warning and fed = input.
     */
    void fold(const Tensor &input, Tensor &fed);

    /** residual = fed - delivered, the compression error of @p fed. */
    void update(const Tensor &fed, const Tensor &delivered);

    /** Drop the residual (an exact delivery resolved it). */
    void clear() { residual_ = Tensor(); }

    /** Current residual (empty when none is carried). */
    const Tensor &residual() const { return residual_; }

  private:
    Tensor residual_;
};

} // namespace optimus

#endif // OPTIMUS_COMPRESS_ERROR_FEEDBACK_HH
