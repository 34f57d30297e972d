#include "nn/linear.hh"

#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

Linear::Linear(const std::string &label, int64_t in, int64_t out,
               Rng &rng, float init_std)
    : weight_(std::make_shared<Param>(
          label + ".weight",
          Tensor::randn({in, out}, rng, 0.0f, init_std))),
      bias_(std::make_shared<Param>(label + ".bias",
                                    Tensor::zeros(out)))
{
}

Linear::Linear(ParamPtr weight, ParamPtr bias)
    : weight_(std::move(weight)), bias_(std::move(bias))
{
    OPTIMUS_ASSERT(weight_ != nullptr && bias_ != nullptr);
    OPTIMUS_ASSERT(weight_->value.rank() == 2);
    OPTIMUS_ASSERT(bias_->value.size() == weight_->value.cols());
}

// optlint:hot — steady-state step and serving path (zero-allocation
// contract).
Tensor
Linear::forward(const Tensor &x)
{
    OPTIMUS_ASSERT(x.rank() == 2 && x.cols() == inFeatures());
    Tensor y = matmul(x, weight_->value);
    simd::addRowBias(simd::tier(), y.data(), bias_->value.data(), y.cols(),
                     y.rows(), y.cols());
    if (mode() == Mode::Train)
        stash_.pushSlot() = x;
    return y;
}

// optlint:hot — steady-state step path (zero-allocation contract).
Tensor
Linear::backward(const Tensor &dy)
{
    OPTIMUS_ASSERT(mode() == Mode::Train);
    OPTIMUS_ASSERT(!stash_.empty());
    const Tensor &x = stash_.front();
    OPTIMUS_ASSERT(dy.rank() == 2 && dy.cols() == outFeatures());
    OPTIMUS_ASSERT(dy.rows() == x.rows());

    // dW += X^T * dY;  db += column sums of dY;  dX = dY * W^T.
    matmulAccTN(weight_->grad, x, dy);
    simd::addColSums(simd::tier(), bias_->grad.data(), dy.data(), dy.cols(),
                     dy.rows(), dy.cols());
    Tensor dx = matmulNT(dy, weight_->value);
    stash_.popFront();
    return dx;
}

std::vector<ParamPtr>
Linear::params() const
{
    return {weight_, bias_};
}

std::string
Linear::name() const
{
    return "linear(" + weight_->name + ")";
}

} // namespace optimus
