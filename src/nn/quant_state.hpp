// The activation-observer hook: the one touch point the post-training
// quantization subsystem (src/quant) needs inside the nn layer.
//
// The calibrator installs a process-global callback while streaming the
// training set; Conv2d::forward reports each layer's input absmax (keyed by
// the weight parameter's dotted name) so the calibrator can derive the
// static activation scales an int8 artifact records.
//
// Living in nn (not src/quant) keeps the dependency graph acyclic: nn knows
// nothing about artifacts or calibration policy, it only fires the hook.
// The observer costs one relaxed atomic load per conv forward when disarmed
// — the same discipline as obs::enabled().
#pragma once

#include <functional>
#include <string>

#include "nn/tensor.hpp"

namespace pdnn::nn {

/// Install `fn` as the process-global activation observer. Conv2d::forward
/// calls it with (weight parameter name, absmax of the input tensor) for
/// every forward pass while installed. Pass nullptr to disarm. The callback
/// runs under an internal mutex, so a multi-threaded calibration workload
/// (e.g. batched inference on the pool) observes safely; calibration is not
/// a hot path.
void set_activation_observer(
    std::function<void(const std::string&, float)> fn);

namespace detail {

/// One relaxed load; true while an observer is installed.
bool activation_observer_armed();

/// Compute absmax(x) and deliver it to the installed observer (if any).
void observe_activation(const std::string& param_name, const Tensor& x);

}  // namespace detail

}  // namespace pdnn::nn
