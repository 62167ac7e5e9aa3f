// Shared experiment driver for the table/figure harnesses.
//
// Every evaluation experiment follows the paper's flow: calibrate a design
// to its Table-1 noise target, run the golden engine over random vectors,
// train the three-subnet model on the expansion split, and evaluate on the
// held-out test split. This header factors that flow so each bench binary
// only formats its own table/figure.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "eval/metrics.hpp"
#include "linalg/kernels/registry.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "pdn/design.hpp"
#include "pdn/power_grid.hpp"
#include "serve/server.hpp"
#include "sim/calibrate.hpp"
#include "sim/transient.hpp"
#include "store/store.hpp"
#include "util/cli.hpp"
#include "vectors/generator.hpp"

namespace pdnn::bench {

/// Scale-dependent experiment knobs (see DESIGN.md §5).
struct ExperimentOptions {
  pdn::Scale scale = pdn::Scale::kSmall;
  int num_vectors = 48;      ///< paper: 500
  int num_steps = 80;        ///< trace length at dt = 1 ps
  int epochs = 14;
  float lr = 1e-3f;          ///< paper uses 1e-4 with 500 vectors; scaled runs
                             ///< use a faster rate for the smaller datasets
  float lr_decay = -1.0f;    ///< per-epoch decay; <= 0 selects an exponential
                             ///< schedule ending at lr/50 over the epoch budget
  double compression_rate = 0.15;
  double rate_step = 0.025;
  core::SplitStrategy split = core::SplitStrategy::kExpansion;
  bool ablate_distance = false;  ///< zero the bump-distance feature
  bool verbose = false;
  int threads = 0;   ///< pool size; 0 = PDNN_THREADS / hardware concurrency
  std::string store_dir;     ///< persistent run store; empty = disabled
  int checkpoint_every = 0;  ///< write a training checkpoint every N epochs
  bool resume = false;       ///< restore the store's checkpoint before training
};

/// Defaults per scale, overridable from the CLI.
ExperimentOptions options_for_scale(pdn::Scale scale);

/// Register the standard experiment flags on a parser (includes the runtime
/// flags below).
void add_common_flags(util::ArgParser& args);

/// Register only the observability flags (--trace, --metrics-json,
/// --metrics-out, --metrics-interval-ms); for drivers that don't take the
/// full experiment flag set. add_common_flags and add_runtime_flags already
/// include these.
void add_metrics_flags(util::ArgParser& args);

/// The execution flags every driver shares — --threads, --kernel, the store
/// flags and the observability flags — registered once here so the
/// harnesses don't each hand-roll the set (and so `--help` documents them
/// identically everywhere).
void add_runtime_flags(util::ArgParser& args);

/// Resolved values of the add_runtime_flags set.
struct RuntimeConfig {
  int threads = 0;  ///< pool size actually applied
  linalg::KernelBackend backend = linalg::KernelBackend::kScalar;
};

/// Apply the parsed runtime flags: size the global thread pool and select
/// the kernel backend. Call once, right after parse().
RuntimeConfig apply_runtime_flags(const util::ArgParser& args);

/// Resolved values of the persistent-store flags registered by
/// add_runtime_flags (--store-dir / PDNN_STORE, --checkpoint-every,
/// --resume).
struct StoreFlags {
  std::string dir;           ///< empty = store disabled
  int checkpoint_every = 0;
  bool resume = false;
};

StoreFlags store_flags_from_args(const util::ArgParser& args);

/// Open the persistent run store named by `dir`, creating the directory on
/// first use. Returns nullptr when `dir` is empty (store disabled) — callers
/// pass the raw pointer straight to core::simulate_dataset.
std::unique_ptr<store::Store> open_store(const std::string& dir);

/// Register the serving flags (--serve-clients, --serve-requests,
/// --serve-shards, --serve-designs, --serve-batch, --serve-queue,
/// --serve-deadline-ms, --serve-swap, --serve-canary-fraction,
/// --serve-canary-requests, --serve-swap-tolerance-mv) for drivers that
/// embed a serve::NoiseServer fleet.
void add_serve_flags(util::ArgParser& args);

/// Resolved values of the add_serve_flags set.
struct ServeFlags {
  int clients = 8;              ///< concurrent client threads
  int requests_per_client = 4;  ///< predictions issued by each client
  int designs = 2;              ///< registered designs (mixed traffic)
  bool swap = false;            ///< hot-swap each design mid-run
  serve::ServeOptions options;  ///< shard/queue/batch/canary configuration
};

ServeFlags serve_flags_from_args(const util::ArgParser& args);

/// Build options from parsed flags (applies the runtime flags).
ExperimentOptions options_from_args(const util::ArgParser& args);

/// Everything produced by one design's end-to-end experiment.
struct DesignExperiment {
  pdn::DesignSpec spec;  ///< calibrated spec
  std::unique_ptr<pdn::PowerGrid> grid;
  std::unique_ptr<sim::TransientSimulator> simulator;
  core::RawDataset raw;
  core::CompiledDataset data;
  std::unique_ptr<core::WorstCaseNoiseNet> model;
  core::TrainReport train_report;

  // Held-out test-set evaluation.
  eval::AccuracyStats accuracy;
  eval::HotspotStats hotspots;
  double proposed_seconds_per_vector = 0.0;    ///< full pipeline prediction
  double commercial_seconds_per_vector = 0.0;  ///< golden transient solve
  double speedup = 0.0;

  /// Per-test-sample predicted maps (volts), parallel to data.split.test.
  std::vector<util::MapF> test_predictions;

  /// Contiguous per-stage wall times (laps of one StageTimer: each stage
  /// ends where the next begins) and an independently measured total, so the
  /// stages sum to the total up to clock-read jitter.
  std::vector<std::pair<std::string, double>> stage_seconds;
  double total_seconds = 0.0;

  /// Counter snapshots bracketing the experiment; the delta is this design's
  /// solver/NN work (see obs::counter_reading).
  obs::CounterSnapshot counters_before{};
  obs::CounterSnapshot counters_after{};
};

/// Run the full flow for one design.
DesignExperiment run_design_experiment(const pdn::DesignSpec& base_spec,
                                       const ExperimentOptions& options);

/// Generator parameters implied by the experiment options.
vectors::VectorGenParams gen_params_for(const ExperimentOptions& options);

/// One design's metrics as a JSON object: stages, accuracy, timing, and the
/// counter deltas attributable to that experiment.
obs::JsonValue experiment_json(const DesignExperiment& ex);

/// Structured metrics report + telemetry sinks for one bench run (--trace /
/// --metrics-json / --metrics-out). Construct after parsing flags;
/// instrumentation turns on when any output was requested. --metrics-out DIR
/// (or PDNN_METRICS_OUT) additionally starts a periodic MetricsSnapshotter
/// writing DIR/metrics.jsonl + DIR/metrics.prom and points the flight
/// recorder's post-mortem at DIR/flight.json. Shutdown hooks flush every
/// sink even when the driver dies on an uncaught CheckError. Call finish()
/// once, after the last stage, to write the files.
class RunMetrics {
 public:
  RunMetrics(std::string bench_name, const util::ArgParser& args);
  ~RunMetrics();

  /// True when --trace, --metrics-json, or --metrics-out was given.
  bool enabled() const {
    return !trace_path_.empty() || !metrics_path_.empty() ||
           !metrics_out_.empty();
  }

  /// End the current run-level stage (laps are contiguous, so stages tile
  /// the run and their sum tracks the total). Returns the stage seconds.
  double lap(const std::string& name);

  /// Fold one experiment into the report: its stages accumulate into the
  /// run-level stages and its JSON object joins the "designs" array.
  void add_experiment(const DesignExperiment& ex);

  /// Append an arbitrary object to the "designs" array.
  void add_design(obs::JsonValue design);

  /// Set a field under the report's "options" object (run parameters).
  void set(const std::string& key, obs::JsonValue value);

  /// Write the metrics JSON and/or the Chrome trace, as requested. No-op
  /// when neither flag was given.
  void finish();

 private:
  void stage_add(const std::string& name, double seconds);

  std::string bench_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string metrics_out_;
  std::unique_ptr<obs::MetricsSnapshotter> snapshotter_;
  obs::StageTimer laps_;
  obs::StageTimer total_;
  obs::CounterSnapshot start_{};
  std::vector<std::pair<std::string, double>> stages_;
  obs::JsonValue extra_;
  obs::JsonValue designs_;
  bool finished_ = false;
};

/// Format helpers.
std::string mv(double volts);       ///< "0.98mV"
std::string pct(double fraction);   ///< "1.02%"

}  // namespace pdnn::bench
