#include "core/features.hpp"

#include <cmath>

#include "util/check.hpp"

namespace pdnn::core {

nn::Tensor distance_feature(const pdn::PowerGrid& grid) {
  const auto& spec = grid.spec();
  const auto& bumps = grid.bumps();
  const int m = spec.tile_rows;
  const int n = spec.tile_cols;
  const int b = static_cast<int>(bumps.size());
  PDN_CHECK(b > 0, "distance_feature: design has no bumps");

  const double diag = std::hypot(static_cast<double>(grid.bottom_rows()),
                                 static_cast<double>(grid.bottom_cols()));
  nn::Tensor d({1, b, m, n});
  float* out = d.data();
  for (int bi = 0; bi < b; ++bi) {
    for (int tr = 0; tr < m; ++tr) {
      const double dr =
          grid.tile_center_row(tr) - bumps[static_cast<std::size_t>(bi)].row;
      for (int tc = 0; tc < n; ++tc) {
        const double dc =
            grid.tile_center_col(tc) - bumps[static_cast<std::size_t>(bi)].col;
        out[(static_cast<std::size_t>(bi) * m + tr) * n + tc] =
            static_cast<float>(std::sqrt(dr * dr + dc * dc) / diag);
      }
    }
  }
  return d;
}

nn::Tensor stack_current_maps(const std::vector<util::MapF>& maps,
                              const std::vector<int>& kept, float scale) {
  PDN_CHECK(!maps.empty() && !kept.empty(), "stack_current_maps: empty input");
  PDN_CHECK(scale > 0.0f, "stack_current_maps: non-positive scale");
  const int m = maps.front().rows();
  const int n = maps.front().cols();
  nn::Tensor t({static_cast<int>(kept.size()), 1, m, n});
  float* dst = t.data();
  const float inv = 1.0f / scale;
  for (int idx : kept) {
    PDN_CHECK(idx >= 0 && idx < static_cast<int>(maps.size()),
              "stack_current_maps: kept index out of range");
    const util::MapF& map = maps[static_cast<std::size_t>(idx)];
    PDN_CHECK(map.rows() == m && map.cols() == n,
              "stack_current_maps: inconsistent map shapes");
    for (std::size_t i = 0; i < map.size(); ++i) {
      dst[i] = map.storage()[i] * inv;
    }
    dst += map.size();
  }
  return t;
}

nn::Tensor map_to_tensor(const util::MapF& map, float scale) {
  PDN_CHECK(scale > 0.0f, "map_to_tensor: non-positive scale");
  nn::Tensor t({1, 1, map.rows(), map.cols()});
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < map.size(); ++i) {
    t.data()[i] = map.storage()[i] * inv;
  }
  return t;
}

util::MapF tensor_to_map(const nn::Tensor& t, float scale) {
  PDN_CHECK(t.ndim() == 4 && t.n() == 1 && t.c() == 1,
            "tensor_to_map: expects [1,1,m,n]");
  util::MapF map(t.h(), t.w(), 0.0f);
  for (std::size_t i = 0; i < map.size(); ++i) {
    map.storage()[i] = t.data()[i] * scale;
  }
  return map;
}

}  // namespace pdnn::core
