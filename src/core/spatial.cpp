#include "core/spatial.hpp"

#include "util/check.hpp"

namespace pdnn::core {

SpatialCompressor::SpatialCompressor(const pdn::PowerGrid& grid)
    : rows_(grid.spec().tile_rows),
      cols_(grid.spec().tile_cols) {
  const auto& loads = grid.load_nodes();
  load_tile_.reserve(loads.size());
  for (int node : loads) {
    load_tile_.push_back(grid.tile_row_of(node) * cols_ +
                         grid.tile_col_of(node));
  }
}

util::MapF SpatialCompressor::current_map_at(const vectors::CurrentTrace& trace,
                                             int step) const {
  PDN_CHECK(trace.num_loads() == static_cast<int>(load_tile_.size()),
            "SpatialCompressor: load count mismatch");
  util::MapF map(rows_, cols_, 0.0f);
  const float* row = trace.step_data(step);
  float* out = map.data();
  for (std::size_t j = 0; j < load_tile_.size(); ++j) {
    out[static_cast<std::size_t>(load_tile_[j])] += row[j];
  }
  return map;
}

std::vector<util::MapF> SpatialCompressor::current_maps(
    const vectors::CurrentTrace& trace) const {
  std::vector<util::MapF> maps;
  maps.reserve(static_cast<std::size_t>(trace.num_steps()));
  for (int k = 0; k < trace.num_steps(); ++k) {
    maps.push_back(current_map_at(trace, k));
  }
  return maps;
}

}  // namespace pdnn::core
