#include "nn/optimizer.hh"

#include <cmath>

#include "tensor/simd.hh"

namespace optimus
{

Optimizer::Optimizer(std::vector<ParamPtr> params)
    : params_(dedupParams(params))
{
}

void
Optimizer::zeroGrad()
{
    zeroGrads(params_);
}

void
Optimizer::scaleGrad(float factor)
{
    if (factor == 1.0f)
        return;
    for (const auto &p : params_)
        p->grad.scale(factor);
}

SgdOptimizer::SgdOptimizer(std::vector<ParamPtr> params, float lr,
                           float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum)
{
    velocity_.reserve(params_.size());
    for (const auto &p : params_)
        velocity_.emplace_back(p->value.shape());
}

void
SgdOptimizer::step()
{
    for (size_t i = 0; i < params_.size(); ++i) {
        Param &p = *params_[i];
        Tensor &v = velocity_[i];
        if (momentum_ != 0.0f) {
            v.scale(momentum_);
            v.add(p.grad);
            p.value.addScaled(v, -lr_);
        } else {
            p.value.addScaled(p.grad, -lr_);
        }
    }
}

AdamOptimizer::AdamOptimizer(std::vector<ParamPtr> params, float lr,
                             float beta1, float beta2, float eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1),
      beta2_(beta2), eps_(eps), t_(0)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto &p : params_) {
        m_.emplace_back(p->value.shape());
        v_.emplace_back(p->value.shape());
    }
}

void
AdamOptimizer::step()
{
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    const float alpha = static_cast<float>(
        lr_ * std::sqrt(bc2) / bc1);
    const simd::Tier tier = simd::tier();

    for (size_t i = 0; i < params_.size(); ++i) {
        Param &p = *params_[i];
        simd::adamStep(tier, m_[i].data(), v_[i].data(),
                       p.value.data(), p.grad.data(), p.size(), beta1_,
                       beta2_, eps_, alpha);
    }
}

} // namespace optimus
