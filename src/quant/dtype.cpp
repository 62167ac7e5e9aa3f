#include "quant/dtype.hpp"

#include "util/check.hpp"

namespace pdnn::quant {

const char* dtype_name(ParamDtype dtype) {
  switch (dtype) {
    case ParamDtype::kF32:
      return "fp32";
    case ParamDtype::kF16:
      return "fp16";
    case ParamDtype::kInt8:
      return "int8";
  }
  PDN_CHECK(false, "dtype_name: unknown ParamDtype value " +
                       std::to_string(static_cast<std::uint32_t>(dtype)));
  return "";
}

}  // namespace pdnn::quant
