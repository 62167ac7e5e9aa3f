// Tests for the test-vector generator: determinism, waveform structure
// (steady phases + bursts), and CurrentTrace mechanics.
#include <gtest/gtest.h>

#include <cmath>

#include "pdn/power_grid.hpp"
#include "util/check.hpp"
#include "vectors/generator.hpp"

namespace pdnn {
namespace {

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 8;
  s.tile_cols = 8;
  s.nodes_per_tile = 2;
  s.top_stride = 4;
  s.bump_pitch = 2;
  s.num_loads = 30;
  s.unit_current = 1e-3;
  s.seed = 9;
  return s;
}

TEST(CurrentTrace, Dimensions) {
  vectors::CurrentTrace t(10, 4, 1e-12);
  EXPECT_EQ(t.num_steps(), 10);
  EXPECT_EQ(t.num_loads(), 4);
  EXPECT_DOUBLE_EQ(t.dt(), 1e-12);
  t.at(3, 2) = 1.5f;
  EXPECT_FLOAT_EQ(t.step_data(3)[2], 1.5f);
}

TEST(CurrentTrace, TotalAtSums) {
  vectors::CurrentTrace t(2, 3, 1e-12);
  t.at(0, 0) = 1.0f;
  t.at(0, 1) = 2.0f;
  t.at(0, 2) = 3.0f;
  EXPECT_DOUBLE_EQ(t.total_at(0), 6.0);
  EXPECT_DOUBLE_EQ(t.total_at(1), 0.0);
}

TEST(CurrentTrace, ScaleIsLinear) {
  vectors::CurrentTrace t(1, 2, 1e-12);
  t.at(0, 0) = 2.0f;
  t.at(0, 1) = 4.0f;
  t.scale(0.5);
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(0, 1), 2.0f);
}

TEST(CurrentTrace, RejectsEmpty) {
  EXPECT_THROW(vectors::CurrentTrace(0, 3, 1e-12), util::CheckError);
  EXPECT_THROW(vectors::CurrentTrace(3, 3, 0.0), util::CheckError);
}

TEST(Generator, ShapeMatchesGridAndParams) {
  const pdn::PowerGrid grid(tiny_spec());
  vectors::VectorGenParams params;
  params.num_steps = 50;
  vectors::TestVectorGenerator gen(grid, params, 1);
  const auto trace = gen.generate();
  EXPECT_EQ(trace.num_steps(), 50);
  EXPECT_EQ(trace.num_loads(), 30);
}

TEST(Generator, DeterministicPerSeed) {
  const pdn::PowerGrid grid(tiny_spec());
  vectors::VectorGenParams params;
  params.num_steps = 40;
  vectors::TestVectorGenerator a(grid, params, 11), b(grid, params, 11);
  const auto ta = a.generate();
  const auto tb = b.generate();
  for (int k = 0; k < ta.num_steps(); ++k) {
    for (int j = 0; j < ta.num_loads(); ++j) {
      ASSERT_FLOAT_EQ(ta.at(k, j), tb.at(k, j));
    }
  }
}

TEST(Generator, SuccessiveVectorsDiffer) {
  const pdn::PowerGrid grid(tiny_spec());
  vectors::VectorGenParams params;
  params.num_steps = 40;
  vectors::TestVectorGenerator gen(grid, params, 12);
  const auto t1 = gen.generate();
  const auto t2 = gen.generate();
  double diff = 0.0;
  for (int k = 0; k < t1.num_steps(); ++k) {
    for (int j = 0; j < t1.num_loads(); ++j) {
      diff += std::abs(t1.at(k, j) - t2.at(k, j));
    }
  }
  EXPECT_GT(diff, 0.0);
}

TEST(Generator, CurrentsAreNonNegativeAndBounded) {
  const pdn::PowerGrid grid(tiny_spec());
  vectors::VectorGenParams params;
  params.num_steps = 60;
  vectors::TestVectorGenerator gen(grid, params, 13);
  for (int v = 0; v < 5; ++v) {
    const auto trace = gen.generate();
    for (int k = 0; k < trace.num_steps(); ++k) {
      for (int j = 0; j < trace.num_loads(); ++j) {
        ASSERT_GE(trace.at(k, j), 0.0f);
        // base + bursts stay within a loose multiple of the unit current.
        ASSERT_LE(trace.at(k, j), 20.0f * grid.spec().unit_current);
      }
    }
  }
}

TEST(Generator, HasTemporalStructure) {
  // The total-current sequence must have real variance (bursts) — this is
  // the property Algorithm 1's temporal compression exploits.
  const pdn::PowerGrid grid(tiny_spec());
  vectors::VectorGenParams params;
  params.num_steps = 80;
  vectors::TestVectorGenerator gen(grid, params, 14);
  int structured = 0;
  for (int v = 0; v < 6; ++v) {
    const auto trace = gen.generate();
    double mn = 1e300, mx = 0.0;
    for (int k = 0; k < trace.num_steps(); ++k) {
      const double s = trace.total_at(k);
      mn = std::min(mn, s);
      mx = std::max(mx, s);
    }
    if (mx > 1.15 * mn) ++structured;
  }
  EXPECT_GE(structured, 4);
}

TEST(Generator, BurstsAreSpatiallyClustered) {
  // During the peak-activity step, active loads should concentrate around
  // the burst anchor rather than spread uniformly: compare the mean pairwise
  // distance of the top-quartile loads against all loads.
  const pdn::PowerGrid grid(tiny_spec());
  vectors::VectorGenParams params;
  params.num_steps = 60;
  vectors::TestVectorGenerator gen(grid, params, 15);

  int clustered = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const auto trace = gen.generate();
    // Find the hottest step.
    int hot = 0;
    for (int k = 1; k < trace.num_steps(); ++k) {
      if (trace.total_at(k) > trace.total_at(hot)) hot = k;
    }
    // Positions of the strongest quarter of loads at the hot step.
    std::vector<std::pair<float, int>> ranked;
    for (int j = 0; j < trace.num_loads(); ++j) {
      ranked.push_back({trace.at(hot, j), j});
    }
    std::sort(ranked.rbegin(), ranked.rend());
    const std::size_t top = ranked.size() / 4;
    const auto mean_pair_dist = [&](std::size_t count, bool top_only) {
      double acc = 0.0;
      int pairs = 0;
      for (std::size_t a = 0; a < count; ++a) {
        for (std::size_t b = a + 1; b < count; ++b) {
          const int ja = top_only ? ranked[a].second : static_cast<int>(a);
          const int jb = top_only ? ranked[b].second : static_cast<int>(b);
          const int na = grid.load_nodes()[static_cast<std::size_t>(ja)];
          const int nb = grid.load_nodes()[static_cast<std::size_t>(jb)];
          const double dr = grid.node_row(na) - grid.node_row(nb);
          const double dc = grid.node_col(na) - grid.node_col(nb);
          acc += std::sqrt(dr * dr + dc * dc);
          ++pairs;
        }
      }
      return acc / std::max(pairs, 1);
    };
    if (mean_pair_dist(top, true) <
        mean_pair_dist(grid.load_nodes().size(), false)) {
      ++clustered;
    }
  }
  EXPECT_GE(clustered, trials / 2);
}

}  // namespace
}  // namespace pdnn
