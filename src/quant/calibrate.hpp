// Static activation-range calibration for post-training quantization.
//
// An int8 artifact records a *static* scale for each conv layer's input
// activations (its "PDNA" table; the loader validates it, inference runs
// on dequantized fp32 weights). The calibrator derives those scales by
// observation: while an ActivationCalibrator is alive, every Conv2d
// forward pass reports its input absmax through the nn activation-observer
// hook, keyed by the conv weight parameter's dotted name; the calibrator
// folds the per-call maxima into one running absmax per layer.
//
// Intended flow (bench/quantize_artifact.cpp):
//
//   quant::ActivationCalibrator calib;
//   core::WorstCasePipeline pipeline(grid, model, options);  // distance net
//   for (trace : training_set) pipeline.predict(trace);      // fusion + pred
//   core::save_artifact_int8(model, temporal, calib.result(), path);
//
// The pipeline must be *constructed* inside the calibration scope so the
// distance-reduction subnet (which runs once, at construction) is observed
// too. Only one calibrator may be alive at a time — constructing a second
// throws.
#pragma once

#include <map>
#include <mutex>
#include <string>

namespace pdnn::quant {

/// Observed activation ranges: conv weight parameter name -> absmax over
/// every calibration forward pass.
struct CalibrationResult {
  std::map<std::string, float> activation_absmax;
};

/// RAII scope installing the process-global activation observer.
class ActivationCalibrator {
 public:
  ActivationCalibrator();   ///< arms the observer; throws if one is armed
  ~ActivationCalibrator();  ///< disarms it

  ActivationCalibrator(const ActivationCalibrator&) = delete;
  ActivationCalibrator& operator=(const ActivationCalibrator&) = delete;

  /// Snapshot of the ranges folded so far.
  CalibrationResult result() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, float> absmax_;
};

}  // namespace pdnn::quant
