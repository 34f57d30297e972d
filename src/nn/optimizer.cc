#include "nn/optimizer.hh"

#include <cmath>

#include "tensor/simd.hh"

namespace optimus
{

AdamOptimizer::AdamOptimizer(std::vector<ParamPtr> params, float lr,
                             float beta1, float beta2, float eps)
    : params_(dedupParams(params)), lr_(lr), beta1_(beta1),
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
AdamOptimizer::zeroGrad()
{
    zeroGrads(params_);
}

void
AdamOptimizer::scaleGrad(float factor)
{
    if (factor == 1.0f)
        return;
    for (const auto &p : params_)
        p->grad.scale(factor);
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
