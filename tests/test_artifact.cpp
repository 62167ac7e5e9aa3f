// PDNB artifact container tests: round-trip bit-identity of predictions,
// header peeking, the pinned bytes of every container writer, and the error
// paths (truncation, bad magic, tampered dimensions, channel counts the file
// cannot hold) — each failure must name the file and the offending field or
// parameter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"
#include "quant/calibrate.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

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

/// Temp path unique per test; removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Artifact, RoundTripPredictionsAreBitIdentical) {
  const ModelConfig cfg = tiny_config();
  WorstCaseNoiseNet model(cfg);
  core::TemporalCompressionOptions temporal;
  temporal.rate = 0.2;
  temporal.rate_step = 0.05;

  TempFile file("artifact_roundtrip.pdnb");
  core::save_artifact(model, temporal, file.path);
  const core::ModelArtifact loaded = core::load_artifact(file.path);

  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(loaded.config.distance_channels, cfg.distance_channels);
  EXPECT_EQ(loaded.config.tile_rows, cfg.tile_rows);
  EXPECT_EQ(loaded.config.tile_cols, cfg.tile_cols);
  EXPECT_EQ(loaded.config.current_scale, cfg.current_scale);
  EXPECT_EQ(loaded.config.noise_scale, cfg.noise_scale);
  EXPECT_EQ(loaded.config.init_seed, cfg.init_seed);
  EXPECT_EQ(loaded.temporal.rate, temporal.rate);
  EXPECT_EQ(loaded.temporal.rate_step, temporal.rate_step);

  const Tensor distance =
      random_tensor({1, cfg.distance_channels, cfg.tile_rows, cfg.tile_cols},
                    11);
  const Tensor currents =
      random_tensor({5, 1, cfg.tile_rows, cfg.tile_cols}, 12);
  nn::NoGradGuard no_grad;
  const Var original = model.forward(Var(distance), Var(currents));
  const Var reloaded = loaded.model->forward(Var(distance), Var(currents));
  EXPECT_TRUE(bytes_equal(original.value(), reloaded.value()))
      << "a reloaded artifact must reproduce predictions bit for bit";
}

TEST(Artifact, PeekReadsHeaderWithoutModel) {
  WorstCaseNoiseNet model(tiny_config());
  core::TemporalCompressionOptions temporal;
  temporal.rate = 0.3;
  TempFile file("artifact_peek.pdnb");
  core::save_artifact(model, temporal, file.path);

  const core::ModelArtifact peeked = core::peek_artifact(file.path);
  EXPECT_EQ(peeked.model, nullptr);
  EXPECT_EQ(peeked.config.tile_rows, 6);
  EXPECT_EQ(peeked.config.tile_cols, 5);
  EXPECT_EQ(peeked.temporal.rate, 0.3);
}

TEST(Artifact, MissingFileNamesPath) {
  try {
    core::load_artifact("/nonexistent/artifact.pdnb");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/artifact.pdnb"),
              std::string::npos);
  }
}

TEST(Artifact, TruncatedFileNamesField) {
  WorstCaseNoiseNet model(tiny_config());
  TempFile file("artifact_truncated.pdnb");
  core::save_artifact(model, {}, file.path);

  // Keep the magic and version but cut the file inside the config block.
  std::ifstream in(file.path, std::ios::binary);
  std::vector<char> bytes(14);
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
    EXPECT_NE(what.find("field '"), std::string::npos) << what;
  }
}

TEST(Artifact, WrongMagicNamesField) {
  TempFile file("artifact_badmagic.pdnb");
  {
    WorstCaseNoiseNet model(tiny_config());
    core::save_artifact(model, {}, file.path);
    std::fstream f(file.path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.write("XXXX", 4);  // clobber the magic
  }
  try {
    core::load_artifact(file.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("magic"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path), std::string::npos) << what;
  }
}

TEST(Artifact, TamperedDimensionShapeMismatchNamesParameter) {
  TempFile file("artifact_tampered.pdnb");
  {
    WorstCaseNoiseNet model(tiny_config());
    core::save_artifact(model, {}, file.path);
    // Bump the stored fusion-channel count c2 (byte offset 24: magic 4 +
    // version 4 + distance_channels/tile_rows/tile_cols/c1 at 4 each). The
    // reconstructed model then disagrees with the stored weight shapes.
    std::fstream f(file.path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24);
    const std::int32_t c2 = 12;
    f.write(reinterpret_cast<const char*>(&c2), sizeof(c2));
  }
  try {
    core::load_artifact(file.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    // The weight loader must name the first parameter whose shape disagrees.
    const std::string what = e.what();
    EXPECT_NE(what.find("fusion"), std::string::npos) << what;
  }
}

TEST(Artifact, ChannelCountBeyondFileNamesField) {
  TempFile file("artifact_huge_c3.pdnb");
  {
    WorstCaseNoiseNet model(tiny_config());
    core::save_artifact(model, {}, file.path);
    // c3 sits at byte offset 28. At 65536 the prediction U-Net alone would
    // need ~154 GB per 3x3 conv, far more than the file holds.
    std::fstream f(file.path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(28);
    const std::int32_t c3 = 65536;
    f.write(reinterpret_cast<const char*>(&c3), sizeof(c3));
  }
  try {
    core::load_artifact(file.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'c3'"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path), std::string::npos) << what;
  }
}

/// Sets every value to an integer k in [-127, 127] times 0.125, with k = 127
/// first, so each tensor's absmax is 15.875: int8 stores q = k under scale
/// 0.125 and fp16 stores k * 0.125 exactly. Nothing here calls libm, so the
/// bytes written from these values cannot depend on the platform's math
/// library or on the build type.
void fill_exact(nn::Tensor& t, int salt) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const int k =
        i == 0 ? 127 : static_cast<int>((i * 37 + salt * 11) % 255) - 127;
    t.data()[i] = static_cast<float>(k) * 0.125f;
  }
}

std::uint64_t file_digest(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(util::read_file(path, &bytes)) << path;
  return util::fnv1a64(bytes.data(), bytes.size());
}

// Pins the bytes of every container the repository writes: a v1 fp32 PDNB,
// a v2 fp16 and a v2 int8 PDNB (with a non-empty PDNA table) and a training
// checkpoint payload (the store wraps it in a PDNC chunk). A change to any
// writer that moves one byte fails here, whatever the reader makes of it.
TEST(Artifact, ContainerBytesArePinned) {
  ModelConfig cfg;
  cfg.distance_channels = 3;
  cfg.tile_rows = 4;
  cfg.tile_cols = 4;
  cfg.c1 = 2;
  cfg.c2 = 2;
  cfg.c3 = 2;
  cfg.current_scale = 2.5f;
  cfg.noise_scale = 0.125f;
  cfg.init_seed = 77;
  WorstCaseNoiseNet model(cfg);
  const std::vector<nn::Parameter*> params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    fill_exact(params[i]->var.mutable_value(), static_cast<int>(i));
  }
  core::TemporalCompressionOptions temporal;
  temporal.rate = 0.25;
  temporal.rate_step = 0.0625;

  TempFile f32("pinned_f32.pdnb");
  core::save_artifact(model, temporal, f32.path);
  EXPECT_EQ(file_digest(f32.path), 0x5ff349bcc1ddae74ull) << "v1 fp32 PDNB";

  TempFile f16("pinned_f16.pdnb");
  core::save_artifact_f16(model, temporal, f16.path);
  EXPECT_EQ(file_digest(f16.path), 0x5f4e8074243220e7ull) << "v2 fp16 PDNB";

  // Absmax 31.75 and 63.5 give the exact activation scales 0.25 and 0.5.
  quant::CalibrationResult calibration;
  calibration.activation_absmax["distance_net.in_conv.weight"] = 31.75f;
  calibration.activation_absmax["fusion_net.enc1.weight"] = 63.5f;
  TempFile int8("pinned_int8.pdnb");
  core::save_artifact_int8(model, temporal, calibration, int8.path);
  EXPECT_EQ(file_digest(int8.path), 0x4b1706863b08e83aull) << "v2 int8 PDNB";

  nn::Adam optimizer(params);
  optimizer.set_steps_taken(5);
  const std::vector<nn::Tensor*> moments = optimizer.state_tensors();
  for (std::size_t i = 0; i < moments.size(); ++i) {
    fill_exact(*moments[i], static_cast<int>(i) + 100);
  }
  core::TrainCheckpoint state;
  state.next_epoch = 2;
  state.lr = 0.25f;
  state.rng = {0x9e3779b97f4a7c15ull, true, -0.5};
  state.order = {2, 0, 1};
  state.train_loss = {1.5, 0.75};
  state.val_loss = {2.25, 1.125};
  const std::string payload =
      core::encode_train_checkpoint(model, optimizer, state);
  EXPECT_EQ(util::fnv1a64(payload.data(), payload.size()),
            0xc2d1b1b488a8a1f9ull)
      << "checkpoint payload";
}

TEST(Artifact, DefaultTemporalOptionsRoundTrip) {
  const ModelConfig cfg = tiny_config();
  WorstCaseNoiseNet model(cfg);
  TempFile file("artifact_defaults.pdnb");
  core::save_artifact(model, {}, file.path);

  const core::TemporalCompressionOptions defaults;
  const core::ModelArtifact peeked = core::peek_artifact(file.path);
  EXPECT_EQ(peeked.config.distance_channels, cfg.distance_channels);
  EXPECT_EQ(peeked.temporal.rate, defaults.rate);
  EXPECT_EQ(peeked.temporal.rate_step, defaults.rate_step);
  const core::ModelArtifact loaded = core::load_artifact(file.path);

  const Tensor distance =
      random_tensor({1, cfg.distance_channels, cfg.tile_rows, cfg.tile_cols},
                    21);
  const Tensor currents =
      random_tensor({3, 1, cfg.tile_rows, cfg.tile_cols}, 22);
  nn::NoGradGuard no_grad;
  EXPECT_TRUE(bytes_equal(
      model.forward(Var(distance), Var(currents)).value(),
      loaded.model->forward(Var(distance), Var(currents)).value()));
}

}  // namespace
}  // namespace pdnn
