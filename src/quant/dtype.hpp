// Parameter storage dtypes for versioned model artifacts (DESIGN.md §15).
//
// The shape of this plumbing follows LBANN's DType enum: one small closed
// set of storage types, named stably for logs and file headers. kF32 is
// the v1 PDNB container; kF16 and kInt8 are the v2 post-training-quantized
// variants produced by src/quant. The numeric values are serialized into v2
// headers — never reorder them.
#pragma once

#include <cstdint>

namespace pdnn::quant {

/// How an artifact stores its parameters.
enum class ParamDtype : std::uint32_t {
  kF32 = 0,   ///< v1: raw float32 weights
  kF16 = 1,   ///< v2: IEEE half storage, expanded to fp32 at load
  kInt8 = 2,  ///< v2: symmetric per-tensor int8 + fp32 scales,
              ///< dequantized to fp32 at load
};

/// Stable lowercase name ("fp32", "fp16", "int8") for logs and reports.
const char* dtype_name(ParamDtype dtype);

}  // namespace pdnn::quant
