#include "nn/module.hpp"

#include <cmath>

#include "nn/quant_state.hpp"
#include "util/check.hpp"

namespace pdnn::nn {

std::vector<Parameter*> Module::parameters() {
  std::vector<Parameter*> out;
  for (auto& p : own_) out.push_back(p.get());
  for (Module* child : children_) {
    for (Parameter* p : child->parameters()) out.push_back(p);
  }
  return out;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) {
    if (p->var.node()->grad.defined()) p->var.grad().zero();
  }
}

std::int64_t Module::num_parameters() {
  std::int64_t n = 0;
  for (Parameter* p : parameters()) n += p->var.value().numel();
  return n;
}

Parameter* Module::register_parameter(std::string name, Tensor init) {
  own_.push_back(std::make_unique<Parameter>(Parameter{
      std::move(name), Var(std::move(init), /*requires_grad=*/true)}));
  return own_.back().get();
}

void Module::register_module(Module* child) { children_.push_back(child); }

void Module::register_module(Module* child, const std::string& name) {
  for (Parameter* p : child->parameters()) p->name = name + "." + p->name;
  children_.push_back(child);
}

namespace {

/// Kaiming-normal initialization for ReLU networks.
Tensor kaiming_weight(std::vector<int> shape, int fan_in, util::Rng& rng) {
  Tensor w(std::move(shape));
  const float std_dev = std::sqrt(2.0f / static_cast<float>(fan_in));
  float* d = w.data();
  const std::int64_t n = w.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    d[i] = static_cast<float>(rng.normal(0.0, std_dev));
  }
  return w;
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, PadMode pad_mode, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      pad_mode_(pad_mode) {
  PDN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
            "Conv2d: bad shape");
  const int fan_in = in_channels * kernel * kernel;
  weight_ = register_parameter(
      "weight",
      kaiming_weight({out_channels, in_channels, kernel, kernel}, fan_in, rng));
  bias_ = register_parameter("bias", Tensor::zeros({out_channels}));
}

Var Conv2d::forward(const Var& x) const {
  if (detail::activation_observer_armed()) {
    detail::observe_activation(weight_->name, x.value());
  }
  return conv2d(x, weight_->var, bias_->var, stride_, pad_, pad_mode_);
}

ConvTranspose2d::ConvTranspose2d(int in_channels, int out_channels, int kernel,
                                 int stride, int pad, int output_padding,
                                 util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      output_padding_(output_padding) {
  PDN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
            "ConvTranspose2d: bad shape");
  const int fan_in = in_channels * kernel * kernel;
  weight_ = register_parameter(
      "weight",
      kaiming_weight({in_channels, out_channels, kernel, kernel}, fan_in, rng));
  bias_ = register_parameter("bias", Tensor::zeros({out_channels}));
}

Var ConvTranspose2d::forward(const Var& x) const {
  return conv_transpose2d(x, weight_->var, bias_->var, stride_, pad_,
                          output_padding_);
}

}  // namespace pdnn::nn
