// Single-file model artifact: the versioned "PDNB" container.
//
// An artifact must be self-describing — the serving layer rebuilds a
// complete inference stack from one file with no side-channel metadata.
// Layout (little-endian, fixed field order):
//
//   magic  "PDNB"                     4 bytes
//   u32    version (1 = fp32, 2 = quantized storage)
//   i32    distance_channels, tile_rows, tile_cols, c1, c2, c3
//   f32    current_scale, noise_scale
//   u64    init_seed
//   f64    temporal.rate, temporal.rate_step
//   u32    dtype (version 2 only)     (quant::ParamDtype: 1=fp16, 2=int8)
//   one weight block, coded by quant/serialize:
//     "PDNW" fp32 (version 1), "PDNH" fp16, or
//     "PDNQ" int8 + "PDNA" activation scales
//
// Every read is checked; truncation, a bad magic, or a shape mismatch throws
// util::CheckError naming the offending field. The field read/write and
// magic/version conventions are shared with the PDNC store chunks via
// store/container.hpp.
#pragma once

#include <memory>
#include <string>

#include "core/model.hpp"
#include "core/temporal.hpp"
#include "quant/calibrate.hpp"
#include "quant/dtype.hpp"

namespace pdnn::core {

/// A loaded artifact: everything needed to rebuild the inference pipeline
/// for the design the model was trained on (the distance feature and spatial
/// compressor are derived from the PowerGrid at pipeline construction).
struct ModelArtifact {
  ModelConfig config;
  TemporalCompressionOptions temporal;
  std::uint32_t version = 1;                             ///< container version
  quant::ParamDtype dtype = quant::ParamDtype::kF32;     ///< weight storage
  std::unique_ptr<WorstCaseNoiseNet> model;
};

/// Write model config + compressor options + normalization + weights as one
/// v1 (fp32) "PDNB" file.
void save_artifact(WorstCaseNoiseNet& model,
                   const TemporalCompressionOptions& temporal,
                   const std::string& path);

/// Write a v2 artifact with fp16 weight storage (half the size; weights are
/// expanded back to fp32 at load, inference runs the fp32 path).
void save_artifact_f16(WorstCaseNoiseNet& model,
                       const TemporalCompressionOptions& temporal,
                       const std::string& path);

/// Write a v2 artifact with symmetric per-tensor int8 weights plus the
/// static activation scales from `calibration` (3.7x smaller; weights are
/// dequantized to fp32 at load, inference runs the fp32 path).
void save_artifact_int8(WorstCaseNoiseNet& model,
                        const TemporalCompressionOptions& temporal,
                        const quant::CalibrationResult& calibration,
                        const std::string& path);

/// Read a "PDNB" file (any supported version), rebuild the model
/// architecture from the stored config, and load the weights into it. Channel
/// counts whose weights cannot fit in the rest of the file are rejected
/// before the model is allocated.
ModelArtifact load_artifact(const std::string& path);

/// Read only the header (config + compressor options + version/dtype)
/// without constructing a model or touching the weight payload.
ModelArtifact peek_artifact(const std::string& path);

}  // namespace pdnn::core
