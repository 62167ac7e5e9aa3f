// Spatial compression tests: Eq. (2)'s max-preservation identity and tile
// current aggregation.
#include <gtest/gtest.h>

#include "core/spatial.hpp"
#include "pdn/power_grid.hpp"
#include "sim/transient.hpp"
#include "vectors/generator.hpp"

namespace pdnn {
namespace {

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 5;
  s.tile_cols = 7;
  s.nodes_per_tile = 3;
  s.top_stride = 4;
  s.bump_pitch = 2;
  s.num_loads = 20;
  s.unit_current = 2e-3;
  s.seed = 77;
  return s;
}

TEST(Spatial, TileDimensionsMatchSpec) {
  const pdn::PowerGrid grid(tiny_spec());
  const core::SpatialCompressor sc(grid);
  EXPECT_EQ(sc.tile_rows(), 5);
  EXPECT_EQ(sc.tile_cols(), 7);
}

TEST(Spatial, CurrentAggregationConservesTotal) {
  // Sum over the tile map at step k == total drawn current at step k:
  // spatial compression must not create or destroy current.
  const pdn::PowerGrid grid(tiny_spec());
  const core::SpatialCompressor sc(grid);
  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator gen(grid, params, 1);
  const auto trace = gen.generate();
  const auto maps = sc.current_maps(trace);
  ASSERT_EQ(static_cast<int>(maps.size()), trace.num_steps());
  for (int k = 0; k < trace.num_steps(); ++k) {
    EXPECT_NEAR(maps[static_cast<std::size_t>(k)].sum(), trace.total_at(k),
                1e-6 * std::max(1.0, trace.total_at(k)));
  }
}

TEST(Spatial, LoadsLandInTheirOwnTile) {
  const pdn::PowerGrid grid(tiny_spec());
  const core::SpatialCompressor sc(grid);
  // Single-step trace with exactly one load active.
  vectors::CurrentTrace trace(1, static_cast<int>(grid.load_nodes().size()),
                              1e-12);
  trace.at(0, 3) = 1.0f;
  const auto map = sc.current_map_at(trace, 0);
  const int node = grid.load_nodes()[3];
  EXPECT_FLOAT_EQ(map(grid.tile_row_of(node), grid.tile_col_of(node)), 1.0f);
  EXPECT_DOUBLE_EQ(map.sum(), 1.0);
}

TEST(Spatial, Equation2MaxPreservation) {
  // max over tiles of (max over nodes in tile) == max over all nodes — the
  // identity that makes spatial compression exact for worst-case analysis.
  // The golden engine's per-tile max is the one Eq. 2 reduction.
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 40;
  vectors::TestVectorGenerator gen(grid, params, 2);
  const auto result = simulator.simulate(gen.generate());

  const util::MapF& tiles = result.tile_worst_noise;
  float node_max = 0.0f;
  for (int node = 0; node < grid.num_bottom_nodes(); ++node) {
    node_max = std::max(
        node_max, result.node_worst_noise[static_cast<std::size_t>(node)]);
  }
  EXPECT_FLOAT_EQ(tiles.max_value(), node_max);
}

TEST(Spatial, MismatchedTraceRejected) {
  const pdn::PowerGrid grid(tiny_spec());
  const core::SpatialCompressor sc(grid);
  vectors::CurrentTrace bad(5, 3, 1e-12);
  EXPECT_THROW(sc.current_map_at(bad, 0), util::CheckError);
}

}  // namespace
}  // namespace pdnn
