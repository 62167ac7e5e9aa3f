// PDNB artifact container tests: round-trip bit-identity of predictions,
// header peeking, and the error paths (truncation, bad magic, tampered
// dimensions, channel counts the file cannot hold) — each failure must name
// the file and the offending field or parameter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/model.hpp"
#include "nn/tensor.hpp"
#include "util/check.hpp"
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
