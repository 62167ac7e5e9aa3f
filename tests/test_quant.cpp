// Post-training quantization tests: IEEE-half conversion semantics,
// symmetric int8 primitives, activation calibration, the weight-block codec
// (Serialize), PDNB v2 artifact round-trips (int8 + fp16, both storage
// formats that load into the fp32 inference path), and int8 inference
// determinism across thread counts and kernel backends. The TSan CI leg's
// regex picks up the suites whose names start with "Quant".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/model.hpp"
#include "linalg/kernels/registry.hpp"
#include "nn/module.hpp"
#include "nn/quant_state.hpp"
#include "nn/tensor.hpp"
#include "quant/calibrate.hpp"
#include "quant/dtype.hpp"
#include "quant/half.hpp"
#include "quant/quantize.hpp"
#include "quant/serialize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pdnn {
namespace {

using core::ModelConfig;
using core::WorstCaseNoiseNet;
using nn::Tensor;
using nn::Var;

ModelConfig tiny_config() {
  ModelConfig c;
  c.distance_channels = 4;
  c.tile_rows = 6;
  c.tile_cols = 5;
  c.current_scale = 2.5f;
  c.noise_scale = 0.125f;
  c.init_seed = 77;
  return c;
}

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform());
  }
  return t;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

/// Calibrate by streaming a few forwards through the model while the
/// observer is armed.
quant::CalibrationResult calibrate_model(WorstCaseNoiseNet& model,
                                         const Tensor& distance) {
  quant::ActivationCalibrator calibrator;
  nn::NoGradGuard no_grad;
  for (std::uint64_t seed = 30; seed < 34; ++seed) {
    const Tensor currents =
        random_tensor({4, 1, model.config().tile_rows,
                       model.config().tile_cols},
                      seed);
    model.forward(Var(distance), Var(currents));
  }
  return calibrator.result();
}

// ---------------------------------------------------------------------------
// IEEE half conversion
// ---------------------------------------------------------------------------

TEST(QuantHalf, RoundTripsEveryFiniteBitPattern) {
  // f16 -> f32 is exact, so converting back must reproduce the bits for all
  // 63488 finite patterns (and the infinities).
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const bool is_nan = (h & 0x7c00u) == 0x7c00u && (h & 0x3ffu) != 0u;
    const float f = quant::f16_to_f32(h);
    if (is_nan) {
      EXPECT_TRUE(std::isnan(f)) << std::hex << bits;
      continue;
    }
    EXPECT_EQ(h, quant::f32_to_f16(f)) << std::hex << bits;
  }
}

TEST(QuantHalf, ConversionEdgeCases) {
  EXPECT_EQ(0x3c00u, quant::f32_to_f16(1.0f));
  EXPECT_EQ(0x8000u, quant::f32_to_f16(-0.0f));
  EXPECT_EQ(0x7bffu, quant::f32_to_f16(65504.0f));  // largest finite half
  EXPECT_EQ(0x7c00u, quant::f32_to_f16(65520.0f));  // ties to infinity
  EXPECT_EQ(0x7c00u, quant::f32_to_f16(1e30f));
  EXPECT_EQ(0xfc00u, quant::f32_to_f16(-1e30f));
  const std::uint16_t nan = quant::f32_to_f16(std::nanf(""));
  EXPECT_EQ(0x7c00u, nan & 0x7c00u);
  EXPECT_NE(0u, nan & 0x3ffu);
  // 2^-25 is exactly half the smallest subnormal: ties to even (zero).
  EXPECT_EQ(0x0000u, quant::f32_to_f16(std::ldexp(1.0f, -25)));
  EXPECT_EQ(0x0001u, quant::f32_to_f16(std::ldexp(1.5f, -25)));
  EXPECT_EQ(0x0400u, quant::f32_to_f16(std::ldexp(1.0f, -14)));  // min normal
}

TEST(QuantHalf, RoundsToNearestEven) {
  // Near 2048 the half ulp is 2: 2049 ties down to 2048 (even mantissa),
  // 2051 ties up to 2052.
  EXPECT_EQ(quant::f32_to_f16(2048.0f), quant::f32_to_f16(2049.0f));
  EXPECT_EQ(quant::f32_to_f16(2052.0f), quant::f32_to_f16(2051.0f));
  EXPECT_EQ(2050.0f, quant::f16_to_f32(quant::f32_to_f16(2050.0f)));
}

// ---------------------------------------------------------------------------
// Symmetric int8 primitives
// ---------------------------------------------------------------------------

TEST(QuantQuantize, SymmetricScaleGuardsDegenerateRanges) {
  EXPECT_EQ(1.0f, quant::symmetric_scale(0.0f));
  EXPECT_EQ(1.0f, quant::symmetric_scale(-1.0f));
  EXPECT_EQ(1.0f, quant::symmetric_scale(std::nanf("")));
  EXPECT_EQ(1.0f,
            quant::symmetric_scale(std::numeric_limits<float>::infinity()));
  EXPECT_EQ(1.0f, quant::symmetric_scale(127.0f));
}

TEST(QuantQuantize, QuantizeMapsExtremesAndClamps) {
  const float values[] = {-6.35f, -3.2f, 0.0f, 3.2f, 6.35f, 100.0f,
                          -100.0f};
  const float scale = quant::symmetric_scale(6.35f);  // = 0.05
  std::int8_t q[7];
  quant::quantize(values, 7, scale, q);
  EXPECT_EQ(-127, q[0]);
  EXPECT_EQ(-64, q[1]);
  EXPECT_EQ(0, q[2]);
  EXPECT_EQ(64, q[3]);
  EXPECT_EQ(127, q[4]);
  EXPECT_EQ(127, q[5]);   // clamped
  EXPECT_EQ(-127, q[6]);  // clamped (symmetric: -128 never used)
  float back[7];
  quant::dequantize(q, 7, scale, back);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(values[i], back[i], scale * 0.5f + 1e-6f);
  }
}

TEST(QuantQuantize, QuantizeTensorOfZerosIsIdentitySafe) {
  const Tensor t = Tensor::zeros({3, 4});
  const quant::QuantizedTensor qt = quant::quantize_tensor(t);
  EXPECT_EQ(1.0f, qt.scale);
  for (const std::int8_t q : qt.q) EXPECT_EQ(0, q);
}

TEST(QuantQuantize, DtypeNamesRoundTrip) {
  EXPECT_STREQ("fp32", quant::dtype_name(quant::ParamDtype::kF32));
  EXPECT_STREQ("fp16", quant::dtype_name(quant::ParamDtype::kF16));
  EXPECT_STREQ("int8", quant::dtype_name(quant::ParamDtype::kInt8));
}

// ---------------------------------------------------------------------------
// Activation calibration
// ---------------------------------------------------------------------------

TEST(QuantCalibrate, ObserverFoldsAbsmaxPerConvLayer) {
  const ModelConfig cfg = tiny_config();
  WorstCaseNoiseNet model(cfg);
  const Tensor distance =
      random_tensor({1, cfg.distance_channels, cfg.tile_rows, cfg.tile_cols},
                    11);
  const quant::CalibrationResult calibration =
      calibrate_model(model, distance);
  EXPECT_FALSE(calibration.activation_absmax.empty());
  for (const auto& [name, absmax] : calibration.activation_absmax) {
    EXPECT_GT(absmax, 0.0f) << name;
  }
  // Every observed name is a real conv weight parameter of the model.
  int named = 0;
  for (nn::Parameter* p : model.parameters()) {
    if (calibration.activation_absmax.count(p->name) > 0) ++named;
  }
  EXPECT_EQ(static_cast<std::size_t>(named),
            calibration.activation_absmax.size());
}

TEST(QuantCalibrate, SecondConcurrentCalibratorThrows) {
  quant::ActivationCalibrator first;
  EXPECT_THROW(quant::ActivationCalibrator second, util::CheckError);
}

TEST(QuantCalibrate, ObserverDisarmedAfterScope) {
  {
    quant::ActivationCalibrator calibrator;
    EXPECT_TRUE(nn::detail::activation_observer_armed());
  }
  EXPECT_FALSE(nn::detail::activation_observer_armed());
}

// ---------------------------------------------------------------------------
// PDNB v2 artifacts
// ---------------------------------------------------------------------------
// The one weight codec, on a stream: each parameter's name and shape must
// match, and the reader returns values without touching the module.

TEST(Serialize, RoundTripPreservesWeights) {
  util::Rng rng(7);
  nn::Conv2d a(2, 3, 3, 1, 1, nn::PadMode::kZero, rng);
  nn::Conv2d b(2, 3, 3, 1, 1, nn::PadMode::kZero, rng);
  const Tensor b_weight = b.parameters()[0]->var.value().clone();
  std::stringstream block;
  quant::write_weights(a.parameters(), quant::ParamDtype::kF32, block, "a");
  const std::vector<Tensor> loaded = quant::read_weights(
      b.parameters(), quant::ParamDtype::kF32, block, "a");
  ASSERT_EQ(loaded.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(bytes_equal(a.parameters()[i]->var.value(), loaded[i]));
  }
  EXPECT_TRUE(bytes_equal(b.parameters()[0]->var.value(), b_weight));
}

TEST(Serialize, RejectsShapeMismatch) {
  util::Rng rng(8);
  nn::Conv2d a(2, 3, 3, 1, 1, nn::PadMode::kZero, rng);
  nn::Conv2d wrong(2, 4, 3, 1, 1, nn::PadMode::kZero, rng);
  std::stringstream block;
  quant::write_weights(a.parameters(), quant::ParamDtype::kF32, block, "a");
  EXPECT_THROW(quant::read_weights(wrong.parameters(),
                                   quant::ParamDtype::kF32, block, "a"),
               util::CheckError);
}

TEST(Serialize, RejectsGarbageFile) {
  util::Rng rng(9);
  nn::Conv2d a(1, 1, 1, 1, 0, nn::PadMode::kZero, rng);
  std::istringstream garbage("not a weight file");
  EXPECT_THROW(quant::read_weights(a.parameters(), quant::ParamDtype::kF32,
                                   garbage, "garbage"),
               util::CheckError);
}

// ---------------------------------------------------------------------------

struct QuantizedFixture {
  ModelConfig cfg = tiny_config();
  WorstCaseNoiseNet model{cfg};
  Tensor distance = random_tensor(
      {1, cfg.distance_channels, cfg.tile_rows, cfg.tile_cols}, 11);
  Tensor currents = random_tensor({4, 1, cfg.tile_rows, cfg.tile_cols}, 12);
  core::TemporalCompressionOptions temporal{};
  quant::CalibrationResult calibration;

  QuantizedFixture() {
    temporal.rate = 0.2;
    temporal.rate_step = 0.05;
    calibration = calibrate_model(model, distance);
  }

  Tensor forward(const WorstCaseNoiseNet& net) const {
    nn::NoGradGuard no_grad;
    return net.forward(Var(distance), Var(currents)).value();
  }
};

TEST(QuantArtifact, Int8RoundTripIsStorageOnly) {
  QuantizedFixture fx;
  TempFile file("quant_int8.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);

  const core::ModelArtifact loaded = core::load_artifact(file.path);
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(2u, loaded.version);
  EXPECT_EQ(quant::ParamDtype::kInt8, loaded.dtype);
  EXPECT_EQ(loaded.temporal.rate, fx.temporal.rate);

  // Every weight loads as exactly dequantize(quantize_tensor(w)) and every
  // bias as its raw fp32 bytes; `reference` is an fp32 model holding them.
  WorstCaseNoiseNet reference(fx.cfg);
  const std::vector<nn::Parameter*> original = fx.model.parameters();
  const std::vector<nn::Parameter*> reloaded = loaded.model->parameters();
  const std::vector<nn::Parameter*> expected = reference.parameters();
  ASSERT_EQ(original.size(), reloaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const Tensor& w = original[i]->var.value();
    Tensor& want = expected[i]->var.mutable_value();
    if (w.ndim() >= 2) {
      const quant::QuantizedTensor qt = quant::quantize_tensor(w);
      quant::dequantize(qt.q.data(), w.numel(), qt.scale, want.data());
    } else {
      want = w.clone();
    }
    EXPECT_TRUE(bytes_equal(want, reloaded[i]->var.value()))
        << reloaded[i]->name;
  }

  // The loaded model runs the fp32 path on those weights, bit for bit, and
  // lands near the unquantized model.
  const Tensor fp32 = fx.forward(fx.model);
  const Tensor int8 = fx.forward(*loaded.model);
  EXPECT_TRUE(bytes_equal(fx.forward(reference), int8))
      << "an int8 artifact must run the fp32 path on its dequantized weights";
  EXPECT_FALSE(bytes_equal(fp32, int8)) << "the int8 weights were not lossy";
  float ref_absmax = 0.0f, max_diff = 0.0f;
  for (std::int64_t i = 0; i < fp32.numel(); ++i) {
    ref_absmax = std::max(ref_absmax, std::fabs(fp32.data()[i]));
    max_diff = std::max(max_diff,
                        std::fabs(fp32.data()[i] - int8.data()[i]));
  }
  EXPECT_GT(ref_absmax, 0.0f);
  EXPECT_LT(max_diff, 0.15f * ref_absmax + 1e-4f);
}

TEST(QuantArtifact, Int8InferenceDeterministicAcrossThreadsAndBackends) {
  QuantizedFixture fx;
  TempFile file("quant_int8_det.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);
  const core::ModelArtifact loaded = core::load_artifact(file.path);

  util::ThreadPool::set_global_threads(1);
  const Tensor one = fx.forward(*loaded.model);
  util::ThreadPool::set_global_threads(4);
  const Tensor four = fx.forward(*loaded.model);
  util::ThreadPool::set_global_threads(0);
  EXPECT_TRUE(bytes_equal(one, four))
      << "int8 inference must be bit-stable across thread counts";

  linalg::force_backend(linalg::KernelBackend::kScalar);
  const Tensor scalar = fx.forward(*loaded.model);
  linalg::clear_forced_backend();
  EXPECT_TRUE(bytes_equal(one, scalar));
  if (linalg::backend_supported(linalg::KernelBackend::kAvx2)) {
    linalg::force_backend(linalg::KernelBackend::kAvx2);
    const Tensor avx2 = fx.forward(*loaded.model);
    linalg::clear_forced_backend();
    EXPECT_TRUE(bytes_equal(scalar, avx2))
        << "int8 inference must be bit-identical across kernel backends";
  }
}

TEST(QuantArtifact, F16RoundTripExpandsToFp32WithHalfPrecision) {
  QuantizedFixture fx;
  TempFile file("quant_f16.pdnb");
  core::save_artifact_f16(fx.model, fx.temporal, file.path);

  const core::ModelArtifact loaded = core::load_artifact(file.path);
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(2u, loaded.version);
  EXPECT_EQ(quant::ParamDtype::kF16, loaded.dtype);

  const std::vector<nn::Parameter*> original = fx.model.parameters();
  const std::vector<nn::Parameter*> reloaded = loaded.model->parameters();
  ASSERT_EQ(original.size(), reloaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const Tensor& a = original[i]->var.value();
    const Tensor& b = reloaded[i]->var.value();
    ASSERT_EQ(a.numel(), b.numel());
    for (std::int64_t j = 0; j < a.numel(); ++j) {
      // Half has 11 significand bits: RNE error <= 2^-11 relative.
      EXPECT_NEAR(a.data()[j], b.data()[j],
                  std::fabs(a.data()[j]) * 0x1p-11f + 1e-7f)
          << reloaded[i]->name << "[" << j << "]";
    }
  }

  const Tensor fp32 = fx.forward(fx.model);
  const Tensor f16 = fx.forward(*loaded.model);
  float ref_absmax = 0.0f, max_diff = 0.0f;
  for (std::int64_t i = 0; i < fp32.numel(); ++i) {
    ref_absmax = std::max(ref_absmax, std::fabs(fp32.data()[i]));
    max_diff = std::max(max_diff,
                        std::fabs(fp32.data()[i] - f16.data()[i]));
  }
  EXPECT_LT(max_diff, 0.01f * ref_absmax + 1e-5f);
}

TEST(QuantArtifact, PeekReportsVersionAndDtypeWithoutWeights) {
  QuantizedFixture fx;
  TempFile fp32_file("quant_peek_fp32.pdnb");
  TempFile int8_file("quant_peek_int8.pdnb");
  TempFile f16_file("quant_peek_f16.pdnb");
  core::save_artifact(fx.model, fx.temporal, fp32_file.path);
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration,
                           int8_file.path);
  core::save_artifact_f16(fx.model, fx.temporal, f16_file.path);

  const core::ModelArtifact fp32 = core::peek_artifact(fp32_file.path);
  EXPECT_EQ(nullptr, fp32.model);
  EXPECT_EQ(1u, fp32.version);
  EXPECT_EQ(quant::ParamDtype::kF32, fp32.dtype);

  const core::ModelArtifact int8 = core::peek_artifact(int8_file.path);
  EXPECT_EQ(nullptr, int8.model);
  EXPECT_EQ(2u, int8.version);
  EXPECT_EQ(quant::ParamDtype::kInt8, int8.dtype);
  EXPECT_EQ(int8.config.tile_rows, fx.cfg.tile_rows);

  const core::ModelArtifact f16 = core::peek_artifact(f16_file.path);
  EXPECT_EQ(2u, f16.version);
  EXPECT_EQ(quant::ParamDtype::kF16, f16.dtype);
}

TEST(QuantArtifact, TruncatedV2NamesField) {
  QuantizedFixture fx;
  TempFile file("quant_truncated.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);
  // Cut the file two bytes into the v2 dtype field (header is 64 bytes).
  std::ifstream in(file.path, std::ios::binary);
  std::vector<char> bytes(66);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  try {
    core::load_artifact(file.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("dtype"), std::string::npos) << what;
  }
}

TEST(QuantArtifact, UnknownDtypeRejected) {
  QuantizedFixture fx;
  TempFile file("quant_baddtype.pdnb");
  core::save_artifact_int8(fx.model, fx.temporal, fx.calibration, file.path);
  std::fstream f(file.path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(64);  // the v2 dtype field, directly after the shared header
  const std::uint32_t bogus = 99;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  try {
    core::load_artifact(file.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dtype"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace pdnn
