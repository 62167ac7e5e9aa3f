// Feature-extraction tests: bump-distance tensor and current-map tensors.
#include <gtest/gtest.h>

#include <cmath>

#include "core/features.hpp"
#include "util/check.hpp"

namespace pdnn {
namespace {

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 4;
  s.tile_cols = 6;
  s.nodes_per_tile = 2;
  s.top_stride = 2;
  s.bump_pitch = 2;
  s.num_loads = 5;
  s.seed = 3;
  return s;
}

TEST(Features, DistanceTensorShape) {
  const pdn::PowerGrid grid(tiny_spec());
  const nn::Tensor d = core::distance_feature(grid);
  ASSERT_EQ(d.ndim(), 4);
  EXPECT_EQ(d.n(), 1);
  EXPECT_EQ(d.c(), static_cast<int>(grid.bumps().size()));
  EXPECT_EQ(d.h(), 4);
  EXPECT_EQ(d.w(), 6);
}

TEST(Features, DistanceValuesMatchEuclidean) {
  const pdn::PowerGrid grid(tiny_spec());
  const nn::Tensor d = core::distance_feature(grid);
  const double diag = std::hypot(static_cast<double>(grid.bottom_rows()),
                                 static_cast<double>(grid.bottom_cols()));
  for (int b = 0; b < d.c(); ++b) {
    const auto& bump = grid.bumps()[static_cast<std::size_t>(b)];
    for (int tr = 0; tr < d.h(); ++tr) {
      for (int tc = 0; tc < d.w(); ++tc) {
        const double dr = grid.tile_center_row(tr) - bump.row;
        const double dc = grid.tile_center_col(tc) - bump.col;
        EXPECT_NEAR(d.at4(0, b, tr, tc),
                    static_cast<float>(std::sqrt(dr * dr + dc * dc) / diag),
                    1e-6f);
      }
    }
  }
}

TEST(Features, DistanceValuesNormalized) {
  const pdn::PowerGrid grid(tiny_spec());
  const nn::Tensor d = core::distance_feature(grid);
  for (std::int64_t i = 0; i < d.numel(); ++i) {
    EXPECT_GE(d.data()[i], 0.0f);
    EXPECT_LE(d.data()[i], 1.0f);
  }
}

TEST(Features, StackCurrentMapsSelectsAndNormalizes) {
  util::MapF a(2, 2, 2.0f);
  util::MapF b(2, 2, 4.0f);
  util::MapF c(2, 2, 8.0f);
  const nn::Tensor t = core::stack_current_maps({a, b, c}, {0, 2}, 4.0f);
  ASSERT_EQ(t.n(), 2);
  EXPECT_EQ(t.c(), 1);
  EXPECT_FLOAT_EQ(t.at4(0, 0, 0, 0), 0.5f);
  EXPECT_FLOAT_EQ(t.at4(1, 0, 1, 1), 2.0f);
}

TEST(Features, StackRejectsBadIndices) {
  util::MapF a(2, 2, 1.0f);
  EXPECT_THROW(core::stack_current_maps({a}, {1}, 1.0f), util::CheckError);
  EXPECT_THROW(core::stack_current_maps({a}, {}, 1.0f), util::CheckError);
  EXPECT_THROW(core::stack_current_maps({a}, {0}, 0.0f), util::CheckError);
}

TEST(Features, MapTensorRoundTrip) {
  util::MapF m(3, 4);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) m(r, c) = static_cast<float>(r * 4 + c) * 0.01f;
  }
  const nn::Tensor t = core::map_to_tensor(m, 2.0f);
  EXPECT_FLOAT_EQ(t.at4(0, 0, 2, 3), m(2, 3) / 2.0f);
  const util::MapF back = core::tensor_to_map(t, 2.0f);
  ASSERT_TRUE(back.same_shape(m));
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_NEAR(back(r, c), m(r, c), 1e-6f);
  }
}

TEST(Features, TensorToMapRejectsBatchedInput) {
  EXPECT_THROW(core::tensor_to_map(nn::Tensor({2, 1, 2, 2}), 1.0f),
               util::CheckError);
}

}  // namespace
}  // namespace pdnn
