// The one weight-block codec: PDNB artifacts and training-checkpoint chunk
// payloads store their parameters through it (DESIGN.md §10, §11, §15).
//
// Every block has one record layout; the dtype picks the magic and the
// payload:
//
//   magic  "PDNW" (fp32), "PDNH" (fp16) or "PDNQ" (int8)
//   u32    count, then per parameter:
//     u32 name_len, name bytes, u32 ndim, i32 dims[ndim], payload
//
//   fp32  f32 data[numel]
//   fp16  u16 data[numel]                      (IEEE half)
//   int8  u8 encoding
//           encoding 0: raw f32 data[numel]            (biases, 1-D tensors)
//           encoding 1: f32 weight_scale, i8 q[numel]  (ndim >= 2 weights)
//         and after the last parameter "PDNA", the static activation-scale
//         table: u32 count, then per entry: u32 name_len, name bytes,
//         f32 act_scale
//
// The reader walks the module's parameter list in order, verifying each name
// and shape, and returns fp32 values (fp16 expands, int8 dequantizes): both
// reduced dtypes are storage formats, and every artifact runs the one fp32
// inference path. The PDNA table is parsed and validated but not applied.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "nn/module.hpp"
#include "quant/calibrate.hpp"
#include "quant/dtype.hpp"

namespace pdnn::quant {

/// Write every parameter as one weight block of `dtype` at the stream's
/// current position. fp16 rounds to nearest even; int8 stores ndim >= 2
/// tensors as symmetric int8 + scale, the rest as raw fp32, then the
/// activation-scale table derived from `calibration` (absmax -> symmetric
/// scale), which the other dtypes ignore. `where` labels error messages.
void write_weights(const std::vector<nn::Parameter*>& params, ParamDtype dtype,
                   std::ostream& out, const std::string& where,
                   const CalibrationResult& calibration = {});

/// Read a weight block of `dtype` whose names and shapes match `params` in
/// order, and return its fp32 values in that order. `params` is left
/// untouched, so a caller can still reject the block after reading it.
/// Throws CheckError naming the field or parameter on any mismatch.
std::vector<nn::Tensor> read_weights(const std::vector<nn::Parameter*>& params,
                                     ParamDtype dtype, std::istream& in,
                                     const std::string& where);

}  // namespace pdnn::quant
