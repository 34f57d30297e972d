#include "compress/error_feedback.hh"

#include "util/logging.hh"

namespace optimus
{

// optlint:hot — steady-state step path (zero-allocation contract).
const Tensor &
ErrorFeedback::fold(const Tensor &input)
{
    OPTIMUS_ASSERT(state_ != State::Fed);
    if (state_ == State::Carried &&
        residual_.shape() == input.shape()) {
        residual_.add(input);
    } else {
        if (state_ == State::Carried && residual_.size() != 0)
            warn("error feedback: residual %s dropped for input %s",
                 residual_.shapeString().c_str(),
                 input.shapeString().c_str());
        residual_ = input;
    }
    state_ = State::Fed;
    return residual_;
}

// optlint:hot — steady-state step path (zero-allocation contract).
void
ErrorFeedback::update(const Tensor &delivered)
{
    OPTIMUS_ASSERT(state_ == State::Fed);
    residual_.sub(delivered);
    state_ = State::Carried;
}

const Tensor &
ErrorFeedback::residual() const
{
    static const Tensor kNone;
    return state_ == State::Carried ? residual_ : kNone;
}

} // namespace optimus
