#include "quant/serialize.hpp"

#include <cstdint>

#include "quant/half.hpp"
#include "quant/quantize.hpp"
#include "store/container.hpp"
#include "util/check.hpp"

namespace pdnn::quant {

namespace {

constexpr char kF16Magic[5] = "PDNH";
constexpr char kInt8Magic[5] = "PDNQ";
constexpr char kActMagic[5] = "PDNA";

/// Int8 payload encodings (the u8 tag after each parameter's shape).
constexpr std::uint8_t kEncodingF32 = 0;
constexpr std::uint8_t kEncodingInt8 = 1;

void write_name(std::ostream& out, const std::string& name) {
  store::write_field(out, static_cast<std::uint32_t>(name.size()));
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
}

std::string read_name(std::istream& in, const std::string& where) {
  const auto len = store::read_field<std::uint32_t>(in, where, "name length");
  PDN_CHECK(len < 4096, "implausible parameter name length " +
                            std::to_string(len) + " in " + where);
  std::string name(len, '\0');
  in.read(name.data(), len);
  PDN_CHECK(in.good(), "truncated file " + where + " reading field 'name'");
  return name;
}

void write_shape(std::ostream& out, const nn::Tensor& t) {
  store::write_field(out, static_cast<std::uint32_t>(t.ndim()));
  for (int i = 0; i < t.ndim(); ++i) {
    store::write_field(out, static_cast<std::int32_t>(t.dim(i)));
  }
}

/// Read and verify one parameter's name and shape against the expected
/// parameter, exactly as nn::load_parameters does for the fp32 block.
void check_name_shape(std::istream& in, const nn::Parameter& p,
                      const std::string& where) {
  const std::string name = read_name(in, where);
  PDN_CHECK(name == p.name, "expected parameter " + p.name + ", found " +
                                name + " in " + where);
  const nn::Tensor& t = p.var.value();
  const auto ndim = store::read_field<std::uint32_t>(in, where, "ndim");
  PDN_CHECK(static_cast<int>(ndim) == t.ndim(),
            "rank mismatch for " + name + " in " + where);
  for (int i = 0; i < t.ndim(); ++i) {
    const auto d = store::read_field<std::int32_t>(in, where, "dim");
    PDN_CHECK(d == t.dim(i), "shape mismatch for " + name + " in " + where);
  }
}

void check_count(std::istream& in, std::size_t expected,
                 const std::string& where) {
  const auto count = store::read_field<std::uint32_t>(in, where, "count");
  PDN_CHECK(count == expected,
            "parameter count mismatch in " + where + " (block has " +
                std::to_string(count) + ", model has " +
                std::to_string(expected) + ")");
}

}  // namespace

void write_f16_block(const std::vector<nn::Parameter*>& params,
                     std::ostream& out, const std::string& where) {
  store::write_magic(out, kF16Magic);
  store::write_field(out, static_cast<std::uint32_t>(params.size()));
  std::vector<std::uint16_t> half;
  for (nn::Parameter* p : params) {
    const nn::Tensor& t = p->var.value();
    write_name(out, p->name);
    write_shape(out, t);
    half.resize(static_cast<std::size_t>(t.numel()));
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      half[static_cast<std::size_t>(i)] = f32_to_f16(t.data()[i]);
    }
    out.write(reinterpret_cast<const char*>(half.data()),
              static_cast<std::streamsize>(half.size() * sizeof(std::uint16_t)));
  }
  PDN_CHECK(out.good(), "write failed for " + where);
}

void read_f16_block(const std::vector<nn::Parameter*>& params,
                    std::istream& in, const std::string& where) {
  store::check_magic(in, kF16Magic, where);
  check_count(in, params.size(), where);
  std::vector<std::uint16_t> half;
  for (nn::Parameter* p : params) {
    check_name_shape(in, *p, where);
    nn::Tensor& t = p->var.mutable_value();
    half.resize(static_cast<std::size_t>(t.numel()));
    in.read(reinterpret_cast<char*>(half.data()),
            static_cast<std::streamsize>(half.size() * sizeof(std::uint16_t)));
    PDN_CHECK(in.good(),
              "truncated fp16 data for " + p->name + " in " + where);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = f16_to_f32(half[static_cast<std::size_t>(i)]);
    }
  }
}

void write_int8_block(const std::vector<nn::Parameter*>& params,
                      const CalibrationResult& calibration, std::ostream& out,
                      const std::string& where) {
  store::write_magic(out, kInt8Magic);
  store::write_field(out, static_cast<std::uint32_t>(params.size()));
  for (nn::Parameter* p : params) {
    const nn::Tensor& t = p->var.value();
    write_name(out, p->name);
    write_shape(out, t);
    if (t.ndim() >= 2) {
      const QuantizedTensor qt = quantize_tensor(t);
      store::write_field(out, kEncodingInt8);
      store::write_field(out, qt.scale);
      out.write(reinterpret_cast<const char*>(qt.q.data()),
                static_cast<std::streamsize>(qt.q.size()));
    } else {
      store::write_field(out, kEncodingF32);
      out.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(t.numel() * sizeof(float)));
    }
  }
  store::write_magic(out, kActMagic);
  store::write_field(
      out, static_cast<std::uint32_t>(calibration.activation_absmax.size()));
  for (const auto& [name, absmax_value] : calibration.activation_absmax) {
    write_name(out, name);
    store::write_field(out, symmetric_scale(absmax_value));
  }
  PDN_CHECK(out.good(), "write failed for " + where);
}

void read_int8_block(const std::vector<nn::Parameter*>& params,
                     std::istream& in, const std::string& where) {
  store::check_magic(in, kInt8Magic, where);
  check_count(in, params.size(), where);
  std::vector<std::int8_t> q;
  for (nn::Parameter* p : params) {
    check_name_shape(in, *p, where);
    nn::Tensor& t = p->var.mutable_value();
    const auto encoding = store::read_field<std::uint8_t>(in, where,
                                                          "encoding");
    if (encoding == kEncodingInt8) {
      const float scale = store::read_field<float>(in, where, "weight scale");
      PDN_CHECK(scale > 0.0f,
                "non-positive weight scale for " + p->name + " in " + where);
      q.resize(static_cast<std::size_t>(t.numel()));
      in.read(reinterpret_cast<char*>(q.data()),
              static_cast<std::streamsize>(q.size()));
      PDN_CHECK(in.good(),
                "truncated int8 data for " + p->name + " in " + where);
      dequantize(q.data(), t.numel(), scale, t.data());
    } else {
      PDN_CHECK(encoding == kEncodingF32,
                "unknown parameter encoding " + std::to_string(encoding) +
                    " for " + p->name + " in " + where);
      in.read(reinterpret_cast<char*>(t.data()),
              static_cast<std::streamsize>(t.numel() * sizeof(float)));
      PDN_CHECK(in.good(),
                "truncated fp32 data for " + p->name + " in " + where);
    }
  }
  // The activation-scale table is validated but not used: the dequantized
  // weights run the fp32 inference path.
  store::check_magic(in, kActMagic, where);
  const auto act_count =
      store::read_field<std::uint32_t>(in, where, "activation count");
  for (std::uint32_t i = 0; i < act_count; ++i) {
    const std::string name = read_name(in, where);
    const float scale = store::read_field<float>(in, where, "act scale");
    PDN_CHECK(scale > 0.0f,
              "non-positive activation scale for " + name + " in " + where);
  }
}

}  // namespace pdnn::quant
