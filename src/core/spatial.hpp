// Spatial compression (paper §3.2, Eq. 2).
//
// The PDN layout is partitioned into an m x n tile array. Node-level
// quantities are reduced to tile level: instance currents inside a tile are
// *summed* to form the tile's load current (§3.3 "Load current"), and the
// worst-case noise of a tile is the *max* over its nodes — which preserves
// the global worst case exactly (Eq. 2) while shrinking the model's input
// and output from millions of nodes to m x n. The golden engine applies that
// max itself (sim::TransientResult::tile_worst_noise); this class handles
// the currents.
#pragma once

#include <vector>

#include "pdn/power_grid.hpp"
#include "util/grid2d.hpp"
#include "vectors/current_trace.hpp"

namespace pdnn::core {

/// Aggregates node-level quantities onto the design's tile array.
class SpatialCompressor {
 public:
  explicit SpatialCompressor(const pdn::PowerGrid& grid);

  int tile_rows() const { return rows_; }
  int tile_cols() const { return cols_; }

  /// Per-time-step tile current maps I[k] (amperes; loads summed per tile).
  std::vector<util::MapF> current_maps(
      const vectors::CurrentTrace& trace) const;

  /// One tile current map for a single time step.
  util::MapF current_map_at(const vectors::CurrentTrace& trace, int step) const;

 private:
  int rows_, cols_;
  /// Tile index of each load (parallel to grid.load_nodes()).
  std::vector<int> load_tile_;
};

}  // namespace pdnn::core
