// Feature extraction (paper §3.3).
//
// Two features, both cheap to obtain from the standard sign-off inputs —
// no extra instance-level power/path-resistance analysis required:
//   1. Load current: the tile current maps (spatial compression output).
//   2. Distance to power bumps: for each tile, the Euclidean distance from
//      its center to every bump, assembled as D in R^{B x m x n}.
#pragma once

#include <vector>

#include "nn/tensor.hpp"
#include "pdn/power_grid.hpp"
#include "util/grid2d.hpp"

namespace pdnn::core {

/// Distance feature tensor [1, B, m, n], normalized by the die diagonal so
/// values are scale-free in [0, ~1].
nn::Tensor distance_feature(const pdn::PowerGrid& grid);

/// Stack tile current maps (a subset selected by `kept`) into a batched
/// tensor [T, 1, m, n], dividing by `scale` (amperes) for normalization.
nn::Tensor stack_current_maps(const std::vector<util::MapF>& maps,
                              const std::vector<int>& kept, float scale);

/// Tile map -> [1, 1, m, n] tensor (divided by scale).
nn::Tensor map_to_tensor(const util::MapF& map, float scale);

/// [1, 1, m, n] tensor -> tile map (multiplied by scale).
util::MapF tensor_to_map(const nn::Tensor& t, float scale);

}  // namespace pdnn::core
