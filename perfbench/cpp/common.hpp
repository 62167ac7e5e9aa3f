// Shared pieces of the three workloads: run options, the metric table, the
// result record, the calibrated designs, model building, golden references
// and the staged re-composition of WorstCasePipeline::predict().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "pdn/design.hpp"
#include "pdn/power_grid.hpp"
#include "sim/transient.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/grid2d.hpp"
#include "vectors/current_trace.hpp"
#include "vectors/generator.hpp"

namespace perfbench {

namespace core = pdnn::core;
namespace obs = pdnn::obs;
namespace pdn = pdnn::pdn;
namespace sim = pdnn::sim;
namespace util = pdnn::util;
namespace vectors = pdnn::vectors;

// Fixed run conditions. Changing any of them changes what the benchmark
// measures, so they are constants, not flags.
inline constexpr pdn::Scale kScale = pdn::Scale::kSmall;
inline constexpr int kSimBatch = 8;          ///< lockstep transient width
inline constexpr float kLearningRate = 1e-3f;
/// Per design, fixed seed. 32 vectors are 4 lockstep batches, so the
/// fixture's simulate_dataset call keeps both pool threads as busy as a
/// reference call of 16 does.
inline constexpr int kFixtureVectors = 32;
inline constexpr int kFixtureEpochs = 1;
/// mean_re_pct references: per design, kGoldenCalls simulate_dataset calls
/// of kGoldenCall vectors, spread over the run.
inline constexpr int kGoldenCall = 16;
inline constexpr int kGoldenCalls = 1;
inline constexpr int kGoldenPerDesign = kGoldenCall * kGoldenCalls;
/// train_model calls per design on the fixture's dataset, spread over the
/// run, that time training beside the fixture's own.
inline constexpr int kTrainProbes = 1;
inline constexpr int kWarmupMaps = 2;        ///< per design, before timing
inline constexpr double kInt8BudgetVolts = 0.025;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< artifacts go here
  std::string spans_path;  ///< the traced run's span file
  double fleet_rate = 0.0;  ///< fleet open-loop offered rate, req/s
  int fleet_window = 0;     ///< fleet closed-loop requests in flight
};

/// Every metric the benchmark reports, with its unit. End-to-end metrics
/// come from untraced runs, per-layer metrics from traced runs.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
};
const std::vector<MetricSpec>& metric_specs();

/// What one run measured and whether its outputs were correct.
struct Result {
  std::vector<std::string> failed_checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;

  bool correct() const { return failed_checks.empty(); }
  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Print one "# ..." information line (not part of the result).
void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Deterministic sub-seed for stream (`tag`, `index`) of workload `seed`.
std::uint64_t stream_seed(std::uint64_t seed, char tag, std::uint64_t index);

vectors::VectorGenParams gen_params();
core::TemporalCompressionOptions temporal_options();

/// D1-D4 at kScale, calibrated to their Table-1 noise targets.
std::vector<pdn::DesignSpec> calibrated_designs();

/// First quartile of repeated set-ups: it follows the host's quiet periods
/// rather than its busy share, while a cost added to every set-up moves it
/// in full.
double first_quartile(std::vector<double> values);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Counter deltas over a window of obs-enabled work.
class CounterWindow {
 public:
  CounterWindow() : before_(obs::snapshot_counters()) {}
  std::int64_t delta(obs::Counter c) const {
    return obs::counter_reading(before_, obs::snapshot_counters(), c);
  }

 private:
  obs::CounterSnapshot before_;
};

/// Every timed piece of model-building work of a run.
struct BuildTotals {
  /// One simulate_dataset call.
  struct SimCall {
    std::string design;
    std::int64_t vectors = 0;
    double seconds = 0.0;           ///< wall time of the call
    double vector_seconds = 0.0;    ///< sum of RawSample::sim_seconds
    std::int64_t steps = 0;         ///< obs sim.steps
    std::int64_t chol_columns = 0;  ///< obs chol.solve_columns
  };
  /// One train_model call.
  struct TrainCall {
    std::string design;
    std::int64_t samples = 0;  ///< training sample visits
    std::int64_t epochs = 0;
    double seconds = 0.0;
    std::int64_t flops = 0;  ///< obs gemm.flops
  };
  std::vector<SimCall> sim_calls;
  std::vector<TrainCall> train_calls;
  std::vector<double> compile_seconds;  ///< per compile_dataset call
  std::vector<double> factor_seconds;   ///< per TransientSimulator

  void add_factor(const sim::TransientSimulator& s) {
    factor_seconds.push_back(s.prepare_seconds());
  }
  /// Set sim_vectors_per_s and train_samples_per_s: the work of every call
  /// over the calls' summed wall time. A call lasts a large fraction of a
  /// second, longer than the host's quiet moments, so no selection of
  /// calls can find a quiet host; the whole run's average is the steadiest
  /// figure.
  void report_end_to_end(Result& r) const;
  /// Set the sim, sparse and training per-layer metrics.
  void report_layers(Result& r) const;
};

/// Traces `skip` to `skip + count - 1` of stream `trace_seed`,
/// golden-simulated with simulate_dataset; the call goes into `totals`.
core::RawDataset simulate_stream(const pdn::PowerGrid& grid,
                                 const sim::TransientSimulator& simulator,
                                 std::uint64_t trace_seed, int skip, int count,
                                 BuildTotals& totals);

/// A fresh model for `grid`, trained on `data` for `epochs` epochs; the
/// call goes into `totals`.
std::unique_ptr<core::WorstCaseNoiseNet> train_fresh(
    const pdn::PowerGrid& grid, const core::CompiledDataset& data, int epochs,
    BuildTotals& totals);

/// A dataset compiled from a simulated stream and the model trained on it.
struct BuiltModel {
  core::RawDataset raw;
  core::CompiledDataset data;
  std::unique_ptr<core::WorstCaseNoiseNet> model;
};

/// The model-building flow for one design: simulate_dataset, then
/// compile_dataset, then train_model for `epochs` epochs.
BuiltModel build_model(const pdn::PowerGrid& grid,
                       const sim::TransientSimulator& simulator,
                       std::uint64_t trace_seed, int vectors, int epochs,
                       BuildTotals& totals);

/// One design's grid and golden simulator, kept for the whole run.
struct GoldenDesign {
  pdn::DesignSpec spec;
  std::unique_ptr<pdn::PowerGrid> grid;
  std::unique_ptr<sim::TransientSimulator> simulator;
};

/// Trained models for signoff and fleet, written as PDNB artifacts. They
/// are built from each design's fixed seed, so every workload seed serves
/// the same models.
struct Fixture {
  std::vector<GoldenDesign> designs;
  std::vector<core::CompiledDataset> data;  ///< each model's dataset
  std::vector<std::string> fp32_paths;
  std::vector<std::string> int8_paths;  ///< empty unless requested
  /// Largest |int8 - fp32| over each design's held-out vectors.
  struct Int8Deviation {
    double max_volts = 0.0;
    int vectors = 0;
  };
  std::vector<Int8Deviation> int8_heldout;  ///< with int8_paths
};
Fixture make_fixture(const std::string& dir, bool with_int8,
                     BuildTotals& totals);

/// The golden references and training probes of signoff and fleet, run one
/// job at a time at points spread over the run, so that their timings
/// sample the host like the rest of the run does.
class SideWork {
 public:
  /// References are traces 0 to kGoldenPerDesign - 1 of stream
  /// stream_seed(seed, tag, d) of each design d.
  SideWork(const Fixture& fx, std::uint64_t seed, char tag, bool trace,
           BuildTotals& totals);
  std::size_t jobs() const { return jobs_.size(); }
  std::size_t started() const { return next_; }
  bool done() const { return next_ == jobs_.size(); }
  /// Run the next job with obs counting on in the traced run.
  void run_next();
  /// Golden worst-case maps of design `d`, once done().
  const std::vector<util::MapF>& truth(int d) const {
    return truth_[static_cast<std::size_t>(d)];
  }
  /// Golden seconds per vector over the reference simulations.
  double golden_seconds_per_vector() const;

 private:
  std::vector<std::function<void()>> jobs_;
  std::size_t next_ = 0;
  bool trace_;
  BuildTotals& totals_;
  std::vector<std::vector<util::MapF>> truth_;
  double golden_vector_s_ = 0.0;
  std::int64_t golden_vectors_ = 0;
};

/// A design loaded for serial prediction from an artifact.
struct LoadedDesign {
  std::unique_ptr<pdn::PowerGrid> grid;
  core::ModelArtifact artifact;
  std::unique_ptr<core::WorstCasePipeline> pipeline;
};
LoadedDesign load_design(const pdn::DesignSpec& spec, const std::string& path);

/// kWarmupMaps traces for warming design `design` up before timing; the
/// same for every workload seed.
std::vector<vectors::CurrentTrace> warmup_traces(const pdn::PowerGrid& grid,
                                                 int design);

/// Byte equality of two maps.
bool same_bytes(const util::MapF& a, const util::MapF& b);

/// Largest per-tile |a - b|, volts.
double max_abs_diff(const util::MapF& a, const util::MapF& b);

/// Check mean_re_pct against the sanity band and report it.
void report_mean_re(Result& r, double pct);

/// Report the latency metrics (median and supported tail, ms).
void report_latency(Result& r, const char* what,
                    const std::vector<double>& latency_ms);

/// Report maps_per_s, saturation_rps and the latency metrics of serial
/// predict() calls from their latencies (ms). One client in a closed loop
/// saturates at its own rate, so saturation_rps equals maps_per_s.
void report_serial(Result& r, const char* what,
                   const std::vector<double>& latency_ms);

/// WorstCasePipeline::predict() re-composed from the public calls it is
/// made of, so the traced run can time each stage:
///   core.spatial        SpatialCompressor::current_maps
///   core.temporal       total_current_sequence + compress_temporal
///   core.features       stack_current_maps
///   core.fusion         WorstCaseNoiseNet::fuse_currents
///   core.stats          WorstCaseNoiseNet::temporal_stats
///   core.predict_noise  concat_channels + predict_noise + tensor_to_map
class StagedPredictor {
 public:
  StagedPredictor(const pdn::PowerGrid& grid,
                  const core::WorstCaseNoiseNet& model,
                  core::TemporalCompressionOptions temporal);

  util::MapF predict(const vectors::CurrentTrace& trace, SpanLog& log,
                     int parent, std::int64_t request, int* kept_steps) const;

 private:
  const core::WorstCaseNoiseNet& model_;
  core::TemporalCompressionOptions temporal_;
  core::SpatialCompressor spatial_;
  pdnn::nn::Tensor d_tilde_;
};

/// Serial predict() calls of every workload, timed. In the traced run each
/// map is computed twice: by an untraced predict(), whose time is the one
/// reported, and by the staged re-composition with spans and obs counters
/// on. The two must be byte-equal.
class Ledger {
 public:
  explicit Ledger(SpanLog& log) : log_(log) {}

  /// Returns the untraced map; `untraced_ms` receives its time.
  util::MapF predict(const core::WorstCasePipeline& pipeline,
                     const StagedPredictor& staged,
                     const vectors::CurrentTrace& trace, Result& r,
                     double* untraced_ms);

  double untraced_seconds() const { return untraced_s_; }
  double traced_seconds() const { return traced_s_; }
  double pool_chunk_seconds() const { return pool_chunk_s_; }
  /// Set the core stage, linalg and nn per-layer metrics.
  void report(Result& r) const;

 private:
  SpanLog& log_;
  std::int64_t maps_ = 0;
  std::int64_t kept_steps_ = 0;
  double untraced_s_ = 0.0;
  double traced_s_ = 0.0;
  std::int64_t gemm_flops_ = 0;
  std::int64_t packed_bytes_ = 0;
  std::int64_t conv_fused_ = 0;
  std::int64_t gemm_s8_ = 0;
  double pool_chunk_s_ = 0.0;
};

/// Names of the StagedPredictor spans, in call order.
extern const char* const kStageSpans[6];

Result run_signoff(const Options& opt, SpanLog& log);
Result run_build(const Options& opt, SpanLog& log);
Result run_fleet(const Options& opt, SpanLog& log);

}  // namespace perfbench
