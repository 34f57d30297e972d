#include "nn/activation.hh"

#include "runtime/runtime.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

float
Gelu::value(float x)
{
    float y;
    simd::geluForward(simd::Tier::Scalar, &y, &x, 1);
    return y;
}

float
Gelu::derivative(float x)
{
    const float one = 1.0f;
    float d;
    simd::geluBackward(simd::Tier::Scalar, &d, &one, &x, 1);
    return d;
}

// optlint:hot — serving decode path (zero-allocation contract).
Tensor
Gelu::forward(const Tensor &x)
{
    Tensor y(x.shape());
    const float *xd = x.data();
    float *yd = y.data();
    const int64_t n = x.size();
    const simd::Tier tier = simd::tier();
    // A vector tanh costs ~64 multiply-adds an element.
    parallelFor(0, n, grainForWork(64), [&](int64_t lo, int64_t hi) {
        simd::geluForward(tier, yd + lo, xd + lo, hi - lo);
    });
    if (mode() == Mode::Train)
        stash_.pushSlot() = x;
    return y;
}

Tensor
Gelu::backward(const Tensor &dy)
{
    OPTIMUS_ASSERT(mode() == Mode::Train);
    OPTIMUS_ASSERT(!stash_.empty());
    const Tensor &x = stash_.front();
    OPTIMUS_ASSERT(x.size() == dy.size());

    Tensor dx(dy.shape());
    const float *xd = x.data();
    const float *dyd = dy.data();
    float *dxd = dx.data();
    const int64_t n = dy.size();
    const simd::Tier tier = simd::tier();
    parallelFor(0, n, grainForWork(64), [&](int64_t lo, int64_t hi) {
        simd::geluBackward(tier, dxd + lo, dyd + lo, xd + lo, hi - lo);
    });
    stash_.popFront();
    return dx;
}

Tensor
Relu::forward(const Tensor &x)
{
    Tensor y(x.shape());
    const float *xd = x.data();
    float *yd = y.data();
    const int64_t n = x.size();
    // A streaming element update costs ~8 multiply-adds.
    parallelFor(0, n, grainForWork(8), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            yd[i] = xd[i] > 0.0f ? xd[i] : 0.0f;
    });
    if (mode() == Mode::Train)
        stash_.pushSlot() = x;
    return y;
}

Tensor
Relu::backward(const Tensor &dy)
{
    OPTIMUS_ASSERT(mode() == Mode::Train);
    OPTIMUS_ASSERT(!stash_.empty());
    const Tensor &x = stash_.front();

    Tensor dx(dy.shape());
    const float *xd = x.data();
    const float *dyd = dy.data();
    float *dxd = dx.data();
    const int64_t n = dy.size();
    parallelFor(0, n, grainForWork(8), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            dxd[i] = xd[i] > 0.0f ? dyd[i] : 0.0f;
    });
    stash_.popFront();
    return dx;
}

} // namespace optimus
