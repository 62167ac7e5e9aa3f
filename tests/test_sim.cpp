// Tests for the golden transient engine: DC correctness, linearity,
// dynamic-vs-static behaviour (package resonance), and agreement with an
// independent dense backward-Euler reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "pdn/power_grid.hpp"
#include "sim/calibrate.hpp"
#include "sim/transient.hpp"
#include "util/check.hpp"
#include "vectors/generator.hpp"

namespace pdnn {
namespace {

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 6;
  s.tile_cols = 6;
  s.nodes_per_tile = 2;
  s.top_stride = 3;
  s.bump_pitch = 2;
  s.num_loads = 8;
  s.unit_current = 5e-3;
  s.seed = 42;
  return s;
}

vectors::CurrentTrace constant_trace(const pdn::PowerGrid& grid, int steps,
                                     float amps) {
  vectors::CurrentTrace t(steps, static_cast<int>(grid.load_nodes().size()),
                          1e-12);
  for (int k = 0; k < steps; ++k) {
    for (int j = 0; j < t.num_loads(); ++j) t.at(k, j) = amps;
  }
  return t;
}

TEST(Transient, NoLoadMeansNoNoise) {
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  const auto result = simulator.simulate(constant_trace(grid, 20, 0.0f));
  EXPECT_NEAR(result.tile_worst_noise.max_value(), 0.0f, 1e-9f);
  for (float v : result.node_worst_noise) EXPECT_NEAR(v, 0.0f, 1e-9f);
}

TEST(Transient, ConstantCurrentMatchesStaticSolution) {
  // With steady excitation from t=0, the transient never leaves the DC
  // operating point, so worst-case noise == static IR drop.
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  const float amps = 0.01f;
  const auto dynamic = simulator.simulate(constant_trace(grid, 30, amps));
  const auto static_map = simulator.static_ir_map(
      std::vector<double>(grid.load_nodes().size(), amps));
  for (int r = 0; r < static_map.rows(); ++r) {
    for (int c = 0; c < static_map.cols(); ++c) {
      EXPECT_NEAR(dynamic.tile_worst_noise(r, c), static_map(r, c), 1e-5f);
    }
  }
}

TEST(Transient, NoiseIsLinearInCurrent) {
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 40;
  vectors::TestVectorGenerator gen(grid, params, 3);
  auto trace = gen.generate();
  const auto r1 = simulator.simulate(trace);
  trace.scale(2.0);
  const auto r2 = simulator.simulate(trace);
  ASSERT_GT(r1.tile_worst_noise.max_value(), 0.0f);
  EXPECT_NEAR(r2.tile_worst_noise.max_value(),
              2.0f * r1.tile_worst_noise.max_value(),
              2e-3f * r2.tile_worst_noise.max_value());
  EXPECT_NEAR(r2.tile_worst_noise.mean(), 2.0 * r1.tile_worst_noise.mean(),
              2e-3 * r2.tile_worst_noise.mean());
}

TEST(Transient, CurrentStepExcitesDynamicOvershoot) {
  // A sharp current step through the package inductance must produce a
  // worst-case droop exceeding the final static droop — the resonance
  // phenomenon that makes dynamic sign-off stricter than static (paper §1).
  auto spec = tiny_spec();
  spec.pkg_l = 100e-12;  // strong package inductance
  const pdn::PowerGrid grid(spec);
  sim::TransientSimulator simulator(grid, {});

  const int steps = 120;
  vectors::CurrentTrace trace(steps, static_cast<int>(grid.load_nodes().size()),
                              1e-12);
  const float amps = 0.02f;
  for (int k = steps / 4; k < steps; ++k) {
    for (int j = 0; j < trace.num_loads(); ++j) trace.at(k, j) = amps;
  }
  const auto dynamic = simulator.simulate(trace);
  const auto static_map = simulator.static_ir_map(
      std::vector<double>(grid.load_nodes().size(), amps));
  EXPECT_GT(dynamic.tile_worst_noise.max_value(),
            1.05f * static_map.max_value());
}

TEST(Transient, MoreDecapReducesDynamicNoise) {
  auto spec = tiny_spec();
  spec.pkg_l = 100e-12;
  const int steps = 100;
  auto run = [&](double decap) {
    auto s = spec;
    s.decap_per_node = decap;
    const pdn::PowerGrid grid(s);
    sim::TransientSimulator simulator(grid, {});
    vectors::CurrentTrace trace(
        steps, static_cast<int>(grid.load_nodes().size()), 1e-12);
    for (int k = steps / 4; k < steps; ++k) {
      for (int j = 0; j < trace.num_loads(); ++j) trace.at(k, j) = 0.02f;
    }
    return simulator.simulate(trace).tile_worst_noise.max_value();
  };
  EXPECT_GT(run(1e-15), run(50e-15));
}

TEST(Transient, MatchesDenseReferenceSolve) {
  // Oracle: the same backward-Euler model written out densely from the
  // grid's element data (G, per-node decap, bump R-L branches, loads) and
  // solved by Gaussian elimination with partial pivoting. It shares neither
  // the engine's matrix assembly nor its factorization.
  const pdn::PowerGrid grid(tiny_spec());
  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator gen(grid, params, 5);
  const auto trace = gen.generate();
  const sim::TransientOptions options;
  const auto result = sim::TransientSimulator(grid, options).simulate(trace);

  const int n = grid.num_nodes();
  const std::size_t ns = static_cast<std::size_t>(n);
  const double dt = options.dt;
  const double vdd = grid.spec().vdd;
  const auto& cap = grid.node_capacitance();
  const auto& bumps = grid.bumps();
  const auto& loads = grid.load_nodes();
  std::vector<double> g(ns * ns, 0.0);
  const sparse::CsrMatrix& g0 = grid.conductance();
  for (int r = 0; r < n; ++r) {
    for (std::int64_t p = g0.indptr()[r]; p < g0.indptr()[r + 1]; ++p) {
      g[static_cast<std::size_t>(r) * ns +
        static_cast<std::size_t>(g0.indices()[static_cast<std::size_t>(p)])] +=
          g0.values()[static_cast<std::size_t>(p)];
    }
  }
  const auto at = [ns](std::vector<double>& m, int r, int c) -> double& {
    return m[static_cast<std::size_t>(r) * ns + static_cast<std::size_t>(c)];
  };
  std::vector<double> a_dc = g;
  std::vector<double> a_tr = g;
  for (int i = 0; i < n; ++i) {
    at(a_tr, i, i) += cap[static_cast<std::size_t>(i)] / dt;
  }
  for (const pdn::BumpBranch& b : bumps) {
    at(a_dc, b.node, b.node) += 1.0 / b.r;
    at(a_tr, b.node, b.node) += 1.0 / (b.r + b.l / dt);
  }
  const auto dense_solve = [ns](std::vector<double> a, std::vector<double> x) {
    for (std::size_t k = 0; k < ns; ++k) {
      std::size_t piv = k;
      for (std::size_t r = k + 1; r < ns; ++r) {
        if (std::abs(a[r * ns + k]) > std::abs(a[piv * ns + k])) piv = r;
      }
      for (std::size_t c = 0; c < ns; ++c) {
        std::swap(a[k * ns + c], a[piv * ns + c]);
      }
      std::swap(x[k], x[piv]);
      for (std::size_t r = k + 1; r < ns; ++r) {
        const double f = a[r * ns + k] / a[k * ns + k];
        for (std::size_t c = k; c < ns; ++c) a[r * ns + c] -= f * a[k * ns + c];
        x[r] -= f * x[k];
      }
    }
    for (std::size_t k = ns; k-- > 0;) {
      for (std::size_t c = k + 1; c < ns; ++c) x[k] -= a[k * ns + c] * x[c];
      x[k] /= a[k * ns + k];
    }
    return x;
  };

  // DC operating point at the first sample, then backward-Euler steps with
  // each bump inductor's current carried as companion state.
  std::vector<double> rhs(ns, 0.0);
  for (const pdn::BumpBranch& b : bumps) {
    rhs[static_cast<std::size_t>(b.node)] += vdd / b.r;
  }
  for (std::size_t j = 0; j < loads.size(); ++j) {
    rhs[static_cast<std::size_t>(loads[j])] -= trace.at(0, static_cast<int>(j));
  }
  std::vector<double> v = dense_solve(a_dc, rhs);
  std::vector<double> bump_i;
  for (const pdn::BumpBranch& b : bumps) {
    bump_i.push_back((vdd - v[static_cast<std::size_t>(b.node)]) / b.r);
  }
  std::vector<double> worst(ns, 0.0);
  const auto record = [&] {
    for (std::size_t i = 0; i < ns; ++i) {
      worst[i] = std::max(worst[i], vdd - v[i]);
    }
  };
  record();
  for (int k = 1; k < trace.num_steps(); ++k) {
    for (std::size_t i = 0; i < ns; ++i) rhs[i] = cap[i] / dt * v[i];
    for (std::size_t i = 0; i < bumps.size(); ++i) {
      const double gb = 1.0 / (bumps[i].r + bumps[i].l / dt);
      rhs[static_cast<std::size_t>(bumps[i].node)] +=
          gb * vdd + gb * (bumps[i].l / dt) * bump_i[i];
    }
    for (std::size_t j = 0; j < loads.size(); ++j) {
      rhs[static_cast<std::size_t>(loads[j])] -=
          trace.at(k, static_cast<int>(j));
    }
    v = dense_solve(a_tr, rhs);
    for (std::size_t i = 0; i < bumps.size(); ++i) {
      const double gb = 1.0 / (bumps[i].r + bumps[i].l / dt);
      bump_i[i] = gb * (vdd - v[static_cast<std::size_t>(bumps[i].node)]) +
                  gb * (bumps[i].l / dt) * bump_i[i];
    }
    record();
  }

  ASSERT_EQ(result.node_worst_noise.size(), ns);
  EXPECT_GT(*std::max_element(worst.begin(), worst.end()), 1e-3);
  double max_err = 0.0;
  for (std::size_t i = 0; i < ns; ++i) {
    max_err =
        std::max(max_err, std::abs(result.node_worst_noise[i] - worst[i]));
  }
  EXPECT_LT(max_err, 1e-7) << "volts";
}

TEST(Transient, TileNoiseIsMaxOverNodes) {
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator gen(grid, params, 7);
  const auto result = simulator.simulate(gen.generate());
  // Global max over the tile map equals global max over bottom nodes (Eq. 2).
  float node_max = 0.0f;
  for (int node = 0; node < grid.num_bottom_nodes(); ++node) {
    node_max = std::max(
        node_max, result.node_worst_noise[static_cast<std::size_t>(node)]);
  }
  EXPECT_FLOAT_EQ(result.tile_worst_noise.max_value(), node_max);
}

TEST(Transient, SimulateBatchBitIdenticalToSerial) {
  // The batched lockstep engine is a pure memory-traffic optimization:
  // node and tile worst-noise maps must memcmp-equal the serial simulate()
  // results at every batch width.
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::VectorGenParams params;
  params.num_steps = 30;
  vectors::TestVectorGenerator gen(grid, params, 11);
  std::vector<vectors::CurrentTrace> traces;
  for (int i = 0; i < 5; ++i) traces.push_back(gen.generate());

  std::vector<sim::TransientResult> serial;
  for (const auto& t : traces) serial.push_back(simulator.simulate(t));
  ASSERT_GT(serial.front().tile_worst_noise.max_value(), 0.0f);

  for (const std::size_t batch : {1u, 2u, 3u, 5u}) {
    for (std::size_t begin = 0; begin < traces.size(); begin += batch) {
      const std::size_t width = std::min(batch, traces.size() - begin);
      const auto results =
          simulator.simulate_batch({traces.data() + begin, width});
      ASSERT_EQ(results.size(), width);
      for (std::size_t c = 0; c < width; ++c) {
        const sim::TransientResult& got = results[c];
        const sim::TransientResult& want = serial[begin + c];
        ASSERT_EQ(got.node_worst_noise.size(), want.node_worst_noise.size());
        EXPECT_EQ(0, std::memcmp(got.node_worst_noise.data(),
                                 want.node_worst_noise.data(),
                                 want.node_worst_noise.size() * sizeof(float)))
            << "batch " << batch << " trace " << begin + c;
        EXPECT_EQ(0,
                  std::memcmp(got.tile_worst_noise.data(),
                              want.tile_worst_noise.data(),
                              want.tile_worst_noise.storage().size() *
                                  sizeof(float)))
            << "batch " << batch << " trace " << begin + c;
        EXPECT_EQ(got.num_steps, want.num_steps);
      }
    }
  }
}

TEST(Transient, SimulateBatchEdgeCases) {
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  EXPECT_TRUE(simulator.simulate_batch({}).empty());

  // Traces in one batch must share the step count.
  std::vector<vectors::CurrentTrace> mixed;
  mixed.push_back(constant_trace(grid, 10, 0.01f));
  mixed.push_back(constant_trace(grid, 12, 0.01f));
  EXPECT_THROW(simulator.simulate_batch({mixed.data(), 2}), util::CheckError);
}

TEST(Transient, ResolveSimBatchPrefersExplicitRequest) {
  EXPECT_EQ(sim::resolve_sim_batch(3), 3);
  // Zero and negative widths mean the default.
  EXPECT_EQ(sim::resolve_sim_batch(0), 8);
  EXPECT_EQ(sim::resolve_sim_batch(-3), 8);
}

TEST(Transient, MismatchedTraceRejected) {
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  vectors::CurrentTrace bad(10, 3, 1e-12);  // design has 8 loads
  EXPECT_THROW(simulator.simulate(bad), util::CheckError);
}

TEST(StaticAnalysis, TileDroopSubadditiveAndMonotone) {
  // Node droop is linear in the loads, but the per-tile *max* is only
  // subadditive: droop(I1 + I2) <= droop(I1) + droop(I2), and monotone:
  // it dominates each individual excitation's map.
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  const std::size_t loads = grid.load_nodes().size();
  std::vector<double> i1(loads, 0.0), i2(loads, 0.0), both(loads, 0.0);
  i1[0] = 0.01;
  i2[loads - 1] = 0.02;
  for (std::size_t j = 0; j < loads; ++j) both[j] = i1[j] + i2[j];
  const auto m1 = simulator.static_ir_map(i1);
  const auto m2 = simulator.static_ir_map(i2);
  const auto mb = simulator.static_ir_map(both);
  for (int r = 0; r < mb.rows(); ++r) {
    for (int c = 0; c < mb.cols(); ++c) {
      EXPECT_LE(mb(r, c), m1(r, c) + m2(r, c) + 1e-7f);
      EXPECT_GE(mb(r, c), std::max(m1(r, c), m2(r, c)) - 1e-7f);
    }
  }
}

TEST(StaticAnalysis, ScalingIsExactlyLinear) {
  // Positive scaling does commute with the per-tile max.
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  const std::size_t loads = grid.load_nodes().size();
  std::vector<double> i1(loads, 0.005), i3(loads, 0.015);
  const auto m1 = simulator.static_ir_map(i1);
  const auto m3 = simulator.static_ir_map(i3);
  for (int r = 0; r < m1.rows(); ++r) {
    for (int c = 0; c < m1.cols(); ++c) {
      EXPECT_NEAR(m3(r, c), 3.0f * m1(r, c), 1e-6f);
    }
  }
}

TEST(StaticAnalysis, DroopLargestNearTheLoad) {
  const pdn::PowerGrid grid(tiny_spec());
  sim::TransientSimulator simulator(grid, {});
  const std::size_t loads = grid.load_nodes().size();
  std::vector<double> currents(loads, 0.0);
  currents[3] = 0.02;
  const auto map = simulator.static_ir_map(currents);
  // The loaded tile carries the maximum droop.
  const int node = grid.load_nodes()[3];
  EXPECT_FLOAT_EQ(map.max_value(),
                  map(grid.tile_row_of(node), grid.tile_col_of(node)));
}

TEST(Calibrate, HitsTargetMeanNoiseExactly) {
  auto spec = tiny_spec();
  spec.target_mean_noise = 0.1;
  vectors::VectorGenParams params;
  params.num_steps = 40;
  const auto calibrated = sim::calibrate_design(spec, params, 2);
  EXPECT_GT(calibrated.unit_current, 0.0);

  // Re-measure with the calibration's own vector stream: linearity makes the
  // match essentially exact.
  const pdn::PowerGrid grid(calibrated);
  sim::TransientSimulator simulator(grid, {});
  vectors::TestVectorGenerator gen(grid, params,
                                   calibrated.seed ^ 0xca11b7a7ull);
  double mean = 0.0;
  for (int i = 0; i < 2; ++i) {
    mean += simulator.simulate(gen.generate()).tile_worst_noise.mean();
  }
  mean /= 2.0;
  EXPECT_NEAR(mean, 0.1, 1e-3);
}

TEST(Calibrate, PreservesOtherSpecFields) {
  const auto spec = tiny_spec();
  vectors::VectorGenParams params;
  params.num_steps = 30;
  const auto calibrated = sim::calibrate_design(spec, params, 1);
  EXPECT_EQ(calibrated.name, spec.name);
  EXPECT_EQ(calibrated.num_loads, spec.num_loads);
  EXPECT_EQ(calibrated.seed, spec.seed);
}

}  // namespace
}  // namespace pdnn
