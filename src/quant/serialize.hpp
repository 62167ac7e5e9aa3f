// Quantized parameter blocks for PDNB v2 artifacts (DESIGN.md §15).
//
// Two wire formats, mirroring the fp32 "PDNW" block in nn/serialize:
//
//   "PDNH" (fp16 storage)  u32 count, then per parameter:
//       u32 name_len, name bytes, u32 ndim, i32 dims[ndim], u16 data[numel]
//
//   "PDNQ" (int8) u32 count, then per parameter:
//       u32 name_len, name bytes, u32 ndim, i32 dims[ndim], u8 encoding
//         encoding 0: raw f32 data[numel]            (biases, 1-D tensors)
//         encoding 1: f32 weight_scale, i8 q[numel]  (ndim >= 2 weights)
//     followed by "PDNA", the static activation-scale table:
//       u32 count, then per entry: u32 name_len, name bytes, f32 act_scale
//
// Readers walk the module's parameter list in order, verifying each name and
// shape exactly like nn::load_parameters, and materialize fp32 values into
// the parameter tensors (fp16 expands, int8 dequantizes): both dtypes are
// storage formats, and every artifact runs the one fp32 inference path. The
// PDNA table is parsed and validated but not applied.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "nn/module.hpp"
#include "quant/calibrate.hpp"

namespace pdnn::quant {

/// Write every parameter as IEEE half (round-to-nearest-even).
void write_f16_block(const std::vector<nn::Parameter*>& params,
                     std::ostream& out, const std::string& where);

/// Read a "PDNH" block, expanding each half back to fp32.
void read_f16_block(const std::vector<nn::Parameter*>& params,
                    std::istream& in, const std::string& where);

/// Write ndim>=2 parameters as symmetric int8 + scale, the rest as raw
/// fp32, plus the activation-scale table derived from `calibration`
/// (absmax -> symmetric scale).
void write_int8_block(const std::vector<nn::Parameter*>& params,
                      const CalibrationResult& calibration, std::ostream& out,
                      const std::string& where);

/// Read a "PDNQ" block and its "PDNA" table: dequantize every int8 weight
/// to fp32 in place (w = q * weight_scale), copy raw fp32 entries as stored,
/// and check that every activation scale is positive.
void read_int8_block(const std::vector<nn::Parameter*>& params,
                     std::istream& in, const std::string& where);

}  // namespace pdnn::quant
