// Golden dynamic PDN noise analysis — the stand-in for the commercial
// sign-off tool.
//
// Exactly as the paper's §2 describes commercial engines: the dynamic
// analysis is converted to a series of static solves where the system matrix
// (G + C/dt + bump companion conductances, from backward-Euler companion
// models) is fixed and only the right-hand side changes per time step. The
// matrix is prepared once per design; each test vector then costs one solve
// per time step. This engine produces the training labels and the "Commercial
// (s)" runtime column of Table 2.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "pdn/power_grid.hpp"
#include "sparse/cholesky.hpp"
#include "util/grid2d.hpp"
#include "vectors/current_trace.hpp"

namespace pdnn::sim {

struct TransientOptions {
  double dt = 1e-12;  ///< integration step (paper: 1 ps)
};

/// Batch width for simulate_batch call sites: `requested` if positive, else
/// 8 (the width where factor streaming is fully amortized on the Table-1
/// designs). Batch width never changes results — see simulate_batch.
int resolve_sim_batch(int requested = 0);

/// Output of one dynamic analysis run.
struct TransientResult {
  /// Worst-case noise per tile: max over the tile's bottom-layer nodes of
  /// max over time of (Vdd - v). Volts. This is the ground-truth label.
  util::MapF tile_worst_noise;

  /// Worst-case noise per node (bottom + top), for diagnostics.
  std::vector<float> node_worst_noise;

  double solve_seconds = 0.0;  ///< time-stepping loop wall time (per vector)
  int num_steps = 0;
};

/// Factor-once / solve-per-step transient engine.
class TransientSimulator {
 public:
  TransientSimulator(const pdn::PowerGrid& grid, TransientOptions options);

  /// Run dynamic analysis over a full current trace.
  ///
  /// Thread-safe: the factored system matrices are read-only after
  /// construction and all time-stepping state (voltages, RHS, inductor
  /// currents) is local to the call, so independent traces may be simulated
  /// concurrently on one simulator — this is how parallel dataset
  /// generation runs (core::simulate_dataset).
  TransientResult simulate(const vectors::CurrentTrace& trace) const;

  /// Run dynamic analysis over B traces in lockstep: batched RHS assembly,
  /// one multi-RHS solve per time step (BandCholesky::solve_multi), batched
  /// inductor companion-state update and worst-noise recording. All traces
  /// must share num_steps. Column c performs exactly the operations of
  /// simulate(traces[c]) in the same order — no arithmetic ever crosses
  /// columns — so every result is bit-identical to the serial path at any
  /// batch width; batching only amortizes factor streaming across traces.
  /// Thread-safe under the same contract as simulate().
  std::vector<TransientResult> simulate_batch(
      std::span<const vectors::CurrentTrace> traces) const;

  /// Static (DC) analysis: inductors shorted, capacitors open. Returns the
  /// per-tile IR-drop map for the given per-load DC currents.
  util::MapF static_ir_map(const std::vector<double>& load_currents) const;

  double prepare_seconds() const { return prepare_seconds_; }
  const pdn::PowerGrid& grid() const { return grid_; }
  const TransientOptions& options() const { return options_; }

 private:
  util::MapF tile_reduce(const std::vector<float>& node_noise) const;

  /// DC right-hand side (inductors shorted): bump injections plus load
  /// draws, shared by simulate()'s initial condition, simulate_batch(), and
  /// static_ir_map(). `load_current(j)` returns the draw of load j, amperes.
  std::vector<double> dc_rhs(
      const std::function<double(int)>& load_current) const;

  const pdn::PowerGrid& grid_;
  TransientOptions options_;
  sparse::BandCholesky solver_;     // transient matrix
  sparse::BandCholesky dc_solver_;  // DC (init + static)
  std::vector<double> bump_g_;     ///< companion conductance per bump
  std::vector<double> bump_hist_;  ///< g * (L/dt) factor per bump
  std::vector<double> bump_g_dc_;  ///< DC conductance per bump (1/R)
  double prepare_seconds_ = 0.0;
};

}  // namespace pdnn::sim
