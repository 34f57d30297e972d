#include "compress/error_feedback.hh"

#include "util/logging.hh"

namespace optimus
{

// optlint:hot — steady-state step path (zero-allocation contract).
void
ErrorFeedback::fold(const Tensor &input, Tensor &fed)
{
    fed = input;
    if (residual_.shape() == input.shape()) {
        fed.add(residual_);
    } else if (residual_.size() != 0) {
        warn("error feedback: residual %s dropped for input %s",
             residual_.shapeString().c_str(),
             input.shapeString().c_str());
        clear();
    }
}

// optlint:hot — steady-state step path (zero-allocation contract).
void
ErrorFeedback::update(const Tensor &fed, const Tensor &delivered)
{
    residual_ = fed;
    residual_.sub(delivered);
}

} // namespace optimus
