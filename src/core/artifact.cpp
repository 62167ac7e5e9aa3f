#include "core/artifact.hpp"

#include <cstdint>
#include <fstream>

#include "quant/serialize.hpp"
#include "store/container.hpp"
#include "util/check.hpp"

namespace pdnn::core {

namespace {

using store::read_field;
using store::write_field;

constexpr char kMagic[5] = "PDNB";
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kVersionQuant = 2;

/// Header reader shared by peek_artifact and load_artifact; leaves the
/// stream positioned at the weight block.
ModelArtifact read_header(std::istream& in, const std::string& path) {
  store::check_magic(in, kMagic, path);
  const auto version = read_field<std::uint32_t>(in, path, "version");
  PDN_CHECK(version == kVersion || version == kVersionQuant,
            "unsupported version " + std::to_string(version) + " in " + path +
                " (expected 1 or 2; field 'version')");

  ModelArtifact art;
  art.version = version;
  art.config.distance_channels =
      read_field<std::int32_t>(in, path, "distance_channels");
  art.config.tile_rows = read_field<std::int32_t>(in, path, "tile_rows");
  art.config.tile_cols = read_field<std::int32_t>(in, path, "tile_cols");
  art.config.c1 = read_field<std::int32_t>(in, path, "c1");
  art.config.c2 = read_field<std::int32_t>(in, path, "c2");
  art.config.c3 = read_field<std::int32_t>(in, path, "c3");
  art.config.current_scale = read_field<float>(in, path, "current_scale");
  art.config.noise_scale = read_field<float>(in, path, "noise_scale");
  art.config.init_seed = read_field<std::uint64_t>(in, path, "init_seed");
  art.temporal.rate = read_field<double>(in, path, "temporal.rate");
  art.temporal.rate_step = read_field<double>(in, path, "temporal.rate_step");
  if (version == kVersionQuant) {
    const auto dtype = read_field<std::uint32_t>(in, path, "dtype");
    PDN_CHECK(
        dtype == static_cast<std::uint32_t>(quant::ParamDtype::kF16) ||
            dtype == static_cast<std::uint32_t>(quant::ParamDtype::kInt8),
        "load_artifact: unknown v2 dtype " + std::to_string(dtype) + " in " +
            path + " (field 'dtype'; expected 1=fp16 or 2=int8)");
    art.dtype = static_cast<quant::ParamDtype>(dtype);
  }

  PDN_CHECK(art.config.distance_channels > 0 && art.config.tile_rows > 0 &&
                art.config.tile_cols > 0 && art.config.c1 > 0 &&
                art.config.c2 > 0 && art.config.c3 > 0,
            "load_artifact: non-positive model dimension in " + path +
                " (fields 'distance_channels'/'tile_rows'/'tile_cols'/"
                "'c1'/'c2'/'c3')");
  return art;
}

/// Write one PDNB file: fp32 as version 1, fp16 and int8 as version 2 with
/// the dtype field after the temporal options.
void write_artifact(WorstCaseNoiseNet& model,
                    const TemporalCompressionOptions& temporal,
                    quant::ParamDtype dtype,
                    const quant::CalibrationResult& calibration,
                    const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PDN_CHECK(out.good(), "save_artifact: cannot open " + path);
  const bool v1 = dtype == quant::ParamDtype::kF32;
  const ModelConfig& c = model.config();
  store::write_magic(out, kMagic);
  write_field(out, v1 ? kVersion : kVersionQuant);
  write_field(out, static_cast<std::int32_t>(c.distance_channels));
  write_field(out, static_cast<std::int32_t>(c.tile_rows));
  write_field(out, static_cast<std::int32_t>(c.tile_cols));
  write_field(out, static_cast<std::int32_t>(c.c1));
  write_field(out, static_cast<std::int32_t>(c.c2));
  write_field(out, static_cast<std::int32_t>(c.c3));
  write_field(out, c.current_scale);
  write_field(out, c.noise_scale);
  write_field(out, c.init_seed);
  write_field(out, temporal.rate);
  write_field(out, temporal.rate_step);
  if (!v1) write_field(out, static_cast<std::uint32_t>(dtype));
  quant::write_weights(model.parameters(), dtype, out, path, calibration);
}

/// Scalars in a UNet2(in, c, out) and a FusionNet(c), counted from the layer
/// lists in core/model.cpp. In double: the counts come from an unchecked
/// header, and must not overflow before they are compared.
double unet2_scalars(double in, double c, double out) {
  return 9 * c * (in + 10 * c + out) + 9 * c + out;
}
double fusion_scalars(double c) { return 18 * c * (c + 1) + 3 * c + 1; }

/// Reject channel counts whose weights cannot fit in the bytes left after
/// the header, before load_artifact allocates the model they describe, so a
/// tampered header ends in a CheckError naming the field instead of an
/// unbounded allocation. Each subnet is checked on its own, at one byte per
/// scalar for int8, two for fp16 and four for fp32: a count that fits but
/// disagrees with the stored shapes still reaches the weight reader, which
/// names the parameter.
void check_weight_payload(const ModelArtifact& art, std::istream& in,
                          const std::string& path) {
  const std::istream::pos_type weights_at = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff left = in.tellg() - weights_at;
  in.seekg(weights_at);
  double bytes_per_scalar = 4.0;
  if (art.dtype == quant::ParamDtype::kF16) bytes_per_scalar = 2.0;
  if (art.dtype == quant::ParamDtype::kInt8) bytes_per_scalar = 1.0;
  const auto check = [&](double scalars, const char* fields) {
    PDN_CHECK(scalars * bytes_per_scalar <= static_cast<double>(left),
              std::string("load_artifact: field ") + fields +
                  " implies more weight bytes than the " +
                  std::to_string(left) + " left in " + path);
  };
  const ModelConfig& c = art.config;
  check(unet2_scalars(c.distance_channels, c.c1, 1),
        "'distance_channels'/'c1'");
  check(fusion_scalars(c.c2), "'c2'");
  check(unet2_scalars(4, c.c3, 1), "'c3'");
}

}  // namespace

void save_artifact(WorstCaseNoiseNet& model,
                   const TemporalCompressionOptions& temporal,
                   const std::string& path) {
  write_artifact(model, temporal, quant::ParamDtype::kF32, {}, path);
}

void save_artifact_f16(WorstCaseNoiseNet& model,
                       const TemporalCompressionOptions& temporal,
                       const std::string& path) {
  write_artifact(model, temporal, quant::ParamDtype::kF16, {}, path);
}

void save_artifact_int8(WorstCaseNoiseNet& model,
                        const TemporalCompressionOptions& temporal,
                        const quant::CalibrationResult& calibration,
                        const std::string& path) {
  write_artifact(model, temporal, quant::ParamDtype::kInt8, calibration,
                 path);
}

ModelArtifact load_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PDN_CHECK(in.good(), "load_artifact: cannot open " + path);
  ModelArtifact art = read_header(in, path);
  check_weight_payload(art, in, path);
  art.model = std::make_unique<WorstCaseNoiseNet>(art.config);
  const std::vector<nn::Parameter*> params = art.model->parameters();
  std::vector<nn::Tensor> weights =
      quant::read_weights(params, art.dtype, in, path);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->var.mutable_value() = std::move(weights[i]);
  }
  return art;
}

ModelArtifact peek_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PDN_CHECK(in.good(), "peek_artifact: cannot open " + path);
  return read_header(in, path);
}

}  // namespace pdnn::core
