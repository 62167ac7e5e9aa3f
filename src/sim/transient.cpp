#include "sim/transient.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace pdnn::sim {

int resolve_sim_batch(int requested) { return requested > 0 ? requested : 8; }

TransientSimulator::TransientSimulator(const pdn::PowerGrid& grid,
                                       TransientOptions options)
    : grid_(grid), options_(options) {
  PDN_CHECK(options.dt > 0.0, "TransientSimulator: non-positive dt");
  obs::StageTimer timer;

  const int n = grid.num_nodes();
  const double dt = options.dt;

  // Transient system matrix: G + diag(C/dt) + bump companion conductances.
  std::vector<sparse::Triplet> extra;
  const auto& cap = grid.node_capacitance();
  for (int i = 0; i < n; ++i) {
    if (cap[static_cast<std::size_t>(i)] > 0.0) {
      extra.push_back({i, i, cap[static_cast<std::size_t>(i)] / dt});
    }
  }
  bump_g_.clear();
  bump_hist_.clear();
  bump_g_dc_.clear();
  for (const pdn::BumpBranch& b : grid.bumps()) {
    const double g = 1.0 / (b.r + b.l / dt);
    bump_g_.push_back(g);
    bump_hist_.push_back(g * (b.l / dt));
    bump_g_dc_.push_back(1.0 / b.r);
    extra.push_back({b.node, b.node, g});
  }

  // Merge the constant-stamp triplets with the grid conductance pattern.
  const sparse::CsrMatrix& g0 = grid.conductance();
  std::vector<sparse::Triplet> all;
  all.reserve(static_cast<std::size_t>(g0.nnz()) + extra.size());
  for (int r = 0; r < n; ++r) {
    for (std::int64_t p = g0.indptr()[r]; p < g0.indptr()[r + 1]; ++p) {
      all.push_back({r, g0.indices()[static_cast<std::size_t>(p)],
                     g0.values()[static_cast<std::size_t>(p)]});
    }
  }
  std::vector<sparse::Triplet> dc = all;  // DC matrix shares the grid part
  all.insert(all.end(), extra.begin(), extra.end());
  for (std::size_t i = 0; i < grid.bumps().size(); ++i) {
    dc.push_back({grid.bumps()[i].node, grid.bumps()[i].node, bump_g_dc_[i]});
  }

  solver_.factor(sparse::CsrMatrix::from_triplets(n, all));
  dc_solver_.factor(sparse::CsrMatrix::from_triplets(n, dc));

  prepare_seconds_ = timer.lap("sim.prepare");
}

// Own loop: simulate_batch({&trace, 1}) gives these bits 3-4x slower.
TransientResult TransientSimulator::simulate(
    const vectors::CurrentTrace& trace) const {
  const int n = grid_.num_nodes();
  const double dt = options_.dt;
  const double vdd = grid_.spec().vdd;
  const auto& loads = grid_.load_nodes();
  const auto& bumps = grid_.bumps();
  const auto& cap = grid_.node_capacitance();
  PDN_CHECK(trace.num_loads() == static_cast<int>(loads.size()),
            "simulate: trace/load count mismatch");

  obs::StageTimer timer;
  obs::counter_add(obs::Counter::kSimTraces, 1);
  obs::counter_add(obs::Counter::kSimSteps, trace.num_steps());

  // Initial condition: DC operating point at the first sample (inductors
  // shorted), so the run starts in steady state rather than with a spurious
  // power-on transient.
  std::vector<double> rhs =
      dc_rhs([&](int j) -> double { return trace.at(0, j); });
  std::vector<double> v(static_cast<std::size_t>(n), vdd);
  dc_solver_.solve(rhs, v);

  // Initial inductor currents from the DC point.
  std::vector<double> bump_i(bumps.size());
  for (std::size_t i = 0; i < bumps.size(); ++i) {
    bump_i[i] =
        bump_g_dc_[i] * (vdd - v[static_cast<std::size_t>(bumps[i].node)]);
  }

  std::vector<float> worst(static_cast<std::size_t>(n), 0.0f);
  const auto record = [&](const std::vector<double>& volt) {
    for (int i = 0; i < n; ++i) {
      const float droop =
          static_cast<float>(vdd - volt[static_cast<std::size_t>(i)]);
      worst[static_cast<std::size_t>(i)] =
          std::max(worst[static_cast<std::size_t>(i)], droop);
    }
  };
  record(v);

  // Backward-Euler time stepping: same matrix, new right-hand side per step.
  std::vector<double> v_next = v;
  for (int k = 1; k < trace.num_steps(); ++k) {
    for (int i = 0; i < n; ++i) {
      rhs[static_cast<std::size_t>(i)] = cap[static_cast<std::size_t>(i)] /
                                         dt * v[static_cast<std::size_t>(i)];
    }
    for (std::size_t i = 0; i < bumps.size(); ++i) {
      rhs[static_cast<std::size_t>(bumps[i].node)] +=
          bump_g_[i] * vdd + bump_hist_[i] * bump_i[i];
    }
    const float* step = trace.step_data(k);
    for (int j = 0; j < trace.num_loads(); ++j) {
      rhs[static_cast<std::size_t>(loads[static_cast<std::size_t>(j)])] -=
          step[j];
    }
    solver_.solve(rhs, v_next);
    // Inductor current update from the backward-Euler companion model:
    // i_k = g * (Vdd - v_k) + g * (L/dt) * i_{k-1}.
    for (std::size_t i = 0; i < bumps.size(); ++i) {
      bump_i[i] =
          bump_g_[i] * (vdd - v_next[static_cast<std::size_t>(bumps[i].node)]) +
          bump_hist_[i] * bump_i[i];
    }
    v.swap(v_next);
    record(v);
  }

  TransientResult result;
  result.node_worst_noise = std::move(worst);
  result.tile_worst_noise = tile_reduce(result.node_worst_noise);
  result.solve_seconds = timer.lap("sim.trace");
  result.num_steps = trace.num_steps();
  return result;
}

std::vector<TransientResult> TransientSimulator::simulate_batch(
    std::span<const vectors::CurrentTrace> traces) const {
  const int batch = static_cast<int>(traces.size());
  if (batch == 0) return {};
  const int n = grid_.num_nodes();
  const double dt = options_.dt;
  const double vdd = grid_.spec().vdd;
  const auto& loads = grid_.load_nodes();
  const auto& bumps = grid_.bumps();
  const auto& cap = grid_.node_capacitance();
  const int steps = traces[0].num_steps();
  for (const vectors::CurrentTrace& t : traces) {
    PDN_CHECK(t.num_loads() == static_cast<int>(loads.size()),
              "simulate_batch: trace/load count mismatch");
    PDN_CHECK(t.num_steps() == steps,
              "simulate_batch: traces in a batch must share num_steps");
  }

  obs::StageTimer timer;
  obs::counter_add(obs::Counter::kSimTraces, batch);
  obs::counter_add(obs::Counter::kSimSteps,
                   static_cast<std::int64_t>(steps) * batch);
  obs::counter_max(obs::Counter::kSimBatchWidthMax, batch);
  const std::size_t ns = static_cast<std::size_t>(n);
  const std::size_t nb = bumps.size();

  // Column-major n x batch blocks; column c carries trace c and undergoes
  // exactly the serial simulate() operation sequence.
  std::vector<double> rhs(ns * static_cast<std::size_t>(batch));
  std::vector<double> v(ns * static_cast<std::size_t>(batch), vdd);
  for (int c = 0; c < batch; ++c) {
    const std::vector<double> col =
        dc_rhs([&](int j) -> double { return traces[c].at(0, j); });
    std::copy(col.begin(), col.end(),
              rhs.begin() + static_cast<std::size_t>(c) * ns);
  }
  dc_solver_.solve_multi(rhs.data(), v.data(), batch);

  // Initial inductor currents from each column's DC point.
  std::vector<double> bump_i(nb * static_cast<std::size_t>(batch));
  for (int c = 0; c < batch; ++c) {
    const double* vc = v.data() + static_cast<std::size_t>(c) * ns;
    double* ic = bump_i.data() + static_cast<std::size_t>(c) * nb;
    for (std::size_t i = 0; i < nb; ++i) {
      ic[i] =
          bump_g_dc_[i] * (vdd - vc[static_cast<std::size_t>(bumps[i].node)]);
    }
  }

  std::vector<std::vector<float>> worst(
      static_cast<std::size_t>(batch),
      std::vector<float>(ns, 0.0f));
  const auto record = [&](const std::vector<double>& volt) {
    for (int c = 0; c < batch; ++c) {
      const double* vc = volt.data() + static_cast<std::size_t>(c) * ns;
      std::vector<float>& wc = worst[static_cast<std::size_t>(c)];
      for (int i = 0; i < n; ++i) {
        const float droop =
            static_cast<float>(vdd - vc[static_cast<std::size_t>(i)]);
        wc[static_cast<std::size_t>(i)] =
            std::max(wc[static_cast<std::size_t>(i)], droop);
      }
    }
  };
  record(v);

  // Lockstep backward-Euler stepping: batched RHS assembly, one multi-RHS
  // solve per step.
  std::vector<double> v_next = v;
  for (int k = 1; k < steps; ++k) {
    for (int c = 0; c < batch; ++c) {
      double* rc = rhs.data() + static_cast<std::size_t>(c) * ns;
      const double* vc = v.data() + static_cast<std::size_t>(c) * ns;
      const double* ic = bump_i.data() + static_cast<std::size_t>(c) * nb;
      for (int i = 0; i < n; ++i) {
        rc[static_cast<std::size_t>(i)] = cap[static_cast<std::size_t>(i)] /
                                          dt * vc[static_cast<std::size_t>(i)];
      }
      for (std::size_t i = 0; i < nb; ++i) {
        rc[static_cast<std::size_t>(bumps[i].node)] +=
            bump_g_[i] * vdd + bump_hist_[i] * ic[i];
      }
      const float* step = traces[c].step_data(k);
      for (int j = 0; j < traces[c].num_loads(); ++j) {
        rc[static_cast<std::size_t>(loads[static_cast<std::size_t>(j)])] -=
            step[j];
      }
    }
    solver_.solve_multi(rhs.data(), v_next.data(), batch);
    for (int c = 0; c < batch; ++c) {
      const double* vc = v_next.data() + static_cast<std::size_t>(c) * ns;
      double* ic = bump_i.data() + static_cast<std::size_t>(c) * nb;
      for (std::size_t i = 0; i < nb; ++i) {
        ic[i] =
            bump_g_[i] * (vdd - vc[static_cast<std::size_t>(bumps[i].node)]) +
            bump_hist_[i] * ic[i];
      }
    }
    v.swap(v_next);
    record(v);
  }

  // Wall time is shared across the lockstep batch; attribute it evenly so
  // per-vector cost sums (core::simulate_dataset) stay meaningful.
  const double seconds_per_trace = timer.lap("sim.batch") / batch;
  std::vector<TransientResult> results(static_cast<std::size_t>(batch));
  for (int c = 0; c < batch; ++c) {
    TransientResult& r = results[static_cast<std::size_t>(c)];
    r.node_worst_noise = std::move(worst[static_cast<std::size_t>(c)]);
    r.tile_worst_noise = tile_reduce(r.node_worst_noise);
    r.solve_seconds = seconds_per_trace;
    r.num_steps = steps;
  }
  return results;
}

std::vector<double> TransientSimulator::dc_rhs(
    const std::function<double(int)>& load_current) const {
  const int n = grid_.num_nodes();
  const double vdd = grid_.spec().vdd;
  const auto& loads = grid_.load_nodes();
  const auto& bumps = grid_.bumps();
  std::vector<double> rhs(static_cast<std::size_t>(n), 0.0);
  for (std::size_t i = 0; i < bumps.size(); ++i) {
    rhs[static_cast<std::size_t>(bumps[i].node)] += bump_g_dc_[i] * vdd;
  }
  for (std::size_t j = 0; j < loads.size(); ++j) {
    rhs[static_cast<std::size_t>(loads[j])] -=
        load_current(static_cast<int>(j));
  }
  return rhs;
}

util::MapF TransientSimulator::static_ir_map(
    const std::vector<double>& load_currents) const {
  const int n = grid_.num_nodes();
  const double vdd = grid_.spec().vdd;
  PDN_CHECK(load_currents.size() == grid_.load_nodes().size(),
            "static_ir_map: load count mismatch");

  std::vector<double> rhs = dc_rhs([&](int j) -> double {
    return load_currents[static_cast<std::size_t>(j)];
  });
  std::vector<double> v(static_cast<std::size_t>(n), vdd);
  dc_solver_.solve(rhs, v);

  std::vector<float> droop(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    droop[static_cast<std::size_t>(i)] =
        static_cast<float>(vdd - v[static_cast<std::size_t>(i)]);
  }
  return tile_reduce(droop);
}

util::MapF TransientSimulator::tile_reduce(
    const std::vector<float>& node_noise) const {
  const auto& spec = grid_.spec();
  util::MapF map(spec.tile_rows, spec.tile_cols, 0.0f);
  for (int node = 0; node < grid_.num_bottom_nodes(); ++node) {
    const int tr = grid_.tile_row_of(node);
    const int tc = grid_.tile_col_of(node);
    map(tr, tc) =
        std::max(map(tr, tc), node_noise[static_cast<std::size_t>(node)]);
  }
  return map;
}

}  // namespace pdnn::sim
