// Symmetric per-tensor int8 quantization primitives (DESIGN.md §15).
//
// Scheme: scale = absmax / 127, q = clamp(round(x / scale), -127, 127),
// x ~= q * scale. Symmetric (no zero point) makes dequantization a single
// multiply, and per-tensor (one scale per weight tensor / one static scale
// per activation) keeps the scale table one float per tensor — see
// DESIGN.md for why per-tensor comes before per-channel here.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace pdnn::quant {

/// Largest |x| over n values (0.0 for an empty or all-zero range).
float absmax(const float* data, std::int64_t n);

/// Symmetric scale mapping [-absmax, absmax] onto [-127, 127]. A zero or
/// non-finite absmax yields 1.0f so degenerate tensors quantize to zeros
/// instead of NaN scales.
float symmetric_scale(float absmax_value);

/// Quantize n values with the given scale: clamp(round(x / scale), ±127).
/// Deterministic (scalar lrintf, round-to-nearest-even).
void quantize(const float* data, std::int64_t n, float scale,
              std::int8_t* out);

/// Dequantize n values: out[i] = q[i] * scale.
void dequantize(const std::int8_t* q, std::int64_t n, float scale,
                float* out);

/// One quantized tensor: the int8 payload plus its scale.
struct QuantizedTensor {
  std::vector<std::int8_t> q;
  float scale = 1.0f;
};

/// Quantize a whole tensor per-tensor symmetrically.
QuantizedTensor quantize_tensor(const nn::Tensor& t);

}  // namespace pdnn::quant
