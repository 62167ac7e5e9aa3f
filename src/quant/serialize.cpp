#include "quant/serialize.hpp"

#include <cstdint>

#include "quant/half.hpp"
#include "quant/quantize.hpp"
#include "store/container.hpp"
#include "util/check.hpp"

namespace pdnn::quant {

namespace {

using store::read_field;
using store::write_field;

/// Weight-block magics, indexed by the dtype's serialized value.
constexpr char kBlockMagic[3][5] = {"PDNW", "PDNH", "PDNQ"};
constexpr char kActMagic[5] = "PDNA";

/// Int8 payload encodings (the u8 tag after each parameter's shape).
constexpr std::uint8_t kEncodingF32 = 0;
constexpr std::uint8_t kEncodingInt8 = 1;

const char (&block_magic(ParamDtype dtype))[5] {
  const auto index = static_cast<std::uint32_t>(dtype);
  PDN_CHECK(index < 3, "unknown weight dtype " + std::to_string(index));
  return kBlockMagic[index];
}

void write_name(std::ostream& out, const std::string& name) {
  write_field(out, static_cast<std::uint32_t>(name.size()));
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
}

std::string read_name(std::istream& in, const std::string& where) {
  const auto len = read_field<std::uint32_t>(in, where, "name length");
  PDN_CHECK(len < 4096, "implausible parameter name length " +
                            std::to_string(len) + " in " + where);
  std::string name(len, '\0');
  in.read(name.data(), len);
  PDN_CHECK(in.good(), "truncated file " + where + " reading field 'name'");
  return name;
}

void write_payload(std::ostream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
}

void read_payload(std::istream& in, void* data, std::size_t bytes,
                  const char* kind, const std::string& name,
                  const std::string& where) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  PDN_CHECK(in.good(), std::string("truncated ") + kind + " data for " +
                           name + " in " + where);
}

/// Read one parameter's name and shape, verify both against `p`, and return
/// a tensor of that shape for the values that follow.
nn::Tensor read_record(std::istream& in, const nn::Parameter& p,
                       const std::string& where) {
  const std::string name = read_name(in, where);
  PDN_CHECK(name == p.name, "expected parameter " + p.name + ", found " +
                                name + " in " + where);
  const nn::Tensor& t = p.var.value();
  const auto ndim = read_field<std::uint32_t>(in, where, "ndim");
  PDN_CHECK(static_cast<int>(ndim) == t.ndim(),
            "rank mismatch for " + name + " in " + where);
  for (int i = 0; i < t.ndim(); ++i) {
    const auto d = read_field<std::int32_t>(in, where, "dim");
    PDN_CHECK(d == t.dim(i), "shape mismatch for " + name + " in " + where);
  }
  return nn::Tensor(t.shape());
}

}  // namespace

void write_weights(const std::vector<nn::Parameter*>& params, ParamDtype dtype,
                   std::ostream& out, const std::string& where,
                   const CalibrationResult& calibration) {
  store::write_magic(out, block_magic(dtype));
  write_field(out, static_cast<std::uint32_t>(params.size()));
  std::vector<std::uint16_t> half;
  for (const nn::Parameter* p : params) {
    const nn::Tensor& t = p->var.value();
    const auto n = static_cast<std::size_t>(t.numel());
    write_name(out, p->name);
    write_field(out, static_cast<std::uint32_t>(t.ndim()));
    for (int i = 0; i < t.ndim(); ++i) {
      write_field(out, static_cast<std::int32_t>(t.dim(i)));
    }
    const bool as_int8 = dtype == ParamDtype::kInt8 && t.ndim() >= 2;
    if (dtype == ParamDtype::kInt8) {
      write_field(out, as_int8 ? kEncodingInt8 : kEncodingF32);
    }
    if (dtype == ParamDtype::kF16) {
      half.resize(n);
      for (std::size_t i = 0; i < n; ++i) half[i] = f32_to_f16(t.data()[i]);
      write_payload(out, half.data(), n * sizeof(std::uint16_t));
    } else if (as_int8) {
      const QuantizedTensor qt = quantize_tensor(t);
      write_field(out, qt.scale);
      write_payload(out, qt.q.data(), n);
    } else {
      write_payload(out, t.data(), n * sizeof(float));
    }
  }
  if (dtype == ParamDtype::kInt8) {
    store::write_magic(out, kActMagic);
    write_field(out, static_cast<std::uint32_t>(
                         calibration.activation_absmax.size()));
    for (const auto& [name, absmax_value] : calibration.activation_absmax) {
      write_name(out, name);
      write_field(out, symmetric_scale(absmax_value));
    }
  }
  PDN_CHECK(out.good(), "write failed for " + where);
}

std::vector<nn::Tensor> read_weights(const std::vector<nn::Parameter*>& params,
                                     ParamDtype dtype, std::istream& in,
                                     const std::string& where) {
  store::check_magic(in, block_magic(dtype), where);
  const auto count = read_field<std::uint32_t>(in, where, "count");
  PDN_CHECK(count == params.size(),
            "parameter count mismatch in " + where + " (block has " +
                std::to_string(count) + ", model has " +
                std::to_string(params.size()) + ")");
  std::vector<nn::Tensor> values;
  values.reserve(params.size());
  std::vector<std::uint16_t> half;
  std::vector<std::int8_t> q;
  for (const nn::Parameter* p : params) {
    nn::Tensor t = read_record(in, *p, where);
    const auto n = static_cast<std::size_t>(t.numel());
    std::uint8_t encoding = kEncodingF32;
    if (dtype == ParamDtype::kInt8) {
      encoding = read_field<std::uint8_t>(in, where, "encoding");
      PDN_CHECK(encoding == kEncodingF32 || encoding == kEncodingInt8,
                "unknown parameter encoding " + std::to_string(encoding) +
                    " for " + p->name + " in " + where);
    }
    if (dtype == ParamDtype::kF16) {
      half.resize(n);
      read_payload(in, half.data(), n * sizeof(std::uint16_t), "fp16",
                   p->name, where);
      for (std::size_t i = 0; i < n; ++i) t.data()[i] = f16_to_f32(half[i]);
    } else if (encoding == kEncodingInt8) {
      const float scale = read_field<float>(in, where, "weight scale");
      PDN_CHECK(scale > 0.0f,
                "non-positive weight scale for " + p->name + " in " + where);
      q.resize(n);
      read_payload(in, q.data(), n, "int8", p->name, where);
      dequantize(q.data(), t.numel(), scale, t.data());
    } else {
      read_payload(in, t.data(), n * sizeof(float), "fp32", p->name, where);
    }
    values.push_back(std::move(t));
  }
  if (dtype == ParamDtype::kInt8) {
    // The activation-scale table is validated but not used: the dequantized
    // weights run the fp32 inference path.
    store::check_magic(in, kActMagic, where);
    const auto act_count =
        read_field<std::uint32_t>(in, where, "activation count");
    for (std::uint32_t i = 0; i < act_count; ++i) {
      const std::string name = read_name(in, where);
      const float scale = read_field<float>(in, where, "act scale");
      PDN_CHECK(scale > 0.0f,
                "non-positive activation scale for " + name + " in " + where);
    }
  }
  return values;
}

}  // namespace pdnn::quant
