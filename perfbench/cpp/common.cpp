#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <thread>

#include "core/features.hpp"
#include "core/spatial.hpp"
#include "core/temporal.hpp"
#include "core/trainer.hpp"
#include "eval/metrics.hpp"
#include "nn/autograd.hpp"
#include "nn/ops.hpp"
#include "quant/calibrate.hpp"
#include "sim/calibrate.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace perfbench {

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = {
      // End to end.
      {"setup_s", "s", true},
      {"peak_rss_mb", "MB", true},
      {"maps_per_s", "1/s", true},
      {"latency_p50_ms", "ms", true},
      {"latency_tail_ms", "ms", true},
      {"mean_re_pct", "%", true},
      {"sim_vectors_per_s", "1/s", true},
      {"train_samples_per_s", "1/s", true},
      {"saturation_rps", "1/s", true},
      {"ok_pct", "%", true},
      // Per layer: core stages.
      {"core.spatial_ms", "ms", false},
      {"core.temporal_ms", "ms", false},
      {"core.features_ms", "ms", false},
      {"core.fusion_ms", "ms", false},
      {"core.stats_ms", "ms", false},
      {"core.predict_noise_ms", "ms", false},
      {"core.kept_steps", "count", false},
      {"core.stage_sum_pct", "%", false},
      // linalg and nn.
      {"linalg.gemm_flops_per_map", "flop", false},
      {"linalg.gemm_mflops", "MFLOP/s", false},
      {"linalg.packed_bytes_per_map", "B", false},
      {"nn.conv_fused_per_map", "count", false},
      {"linalg.gemm_flops_per_sample", "flop", false},
      {"linalg.gemm_s8_calls_per_map", "count", false},
      // core on the model-building flow.
      {"core.compile_ms", "ms", false},
      {"core.train_epoch_ms", "ms", false},
      // sim and sparse.
      {"sparse.factor_ms", "ms", false},
      {"sim.vector_ms", "ms", false},
      {"sim.steps_per_s", "1/s", false},
      {"sparse.chol_columns", "count", false},
      // util.
      {"util.pool_busy_pct", "%", false},
      // serve.
      {"serve.submit_ms", "ms", false},
      {"serve.queue_wait_p50_ms", "ms", false},
      {"serve.queue_wait_tail_ms", "ms", false},
      {"serve.batch_ms.fp32", "ms", false},
      {"serve.batch_ms.int8", "ms", false},
      {"serve.batch_fill", "ratio", false},
      {"serve.shard_share_max", "ratio", false},
      {"serve.rejected", "count", false},
      {"serve.swap_promote_ms", "ms", false},
      {"serve.canaries", "count", false},
      // Checks on the benchmark itself.
      {"bench.generator_lag_tail_ms", "ms", false},
      {"bench.trace_overhead_pct", "%", false},
  };
  return specs;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    failed_checks.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void info(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("# ", stdout);
  std::vfprintf(stdout, fmt, args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  va_end(args);
}

std::uint64_t stream_seed(std::uint64_t seed, char tag, std::uint64_t index) {
  return util::Fnv1a64().add(seed).add(tag).add(index).digest();
}

vectors::VectorGenParams gen_params() { return vectors::VectorGenParams{}; }

core::TemporalCompressionOptions temporal_options() {
  return core::TemporalCompressionOptions{};
}

std::vector<pdn::DesignSpec> calibrated_designs() {
  // Each calibration is a run of serial golden simulations on its own grid,
  // independent of the others, so they run side by side: the preparation
  // before timing shrinks by about two seconds a run.
  const std::vector<pdn::DesignSpec> specs = pdn::all_designs(kScale);
  std::vector<pdn::DesignSpec> out(specs.size());
  std::vector<std::exception_ptr> errors(specs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        out[i] = sim::calibrate_design(specs[i], gen_params());
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

double first_quartile(std::vector<double> values) {
  PDN_CHECK(!values.empty(), "first_quartile: no values");
  return pdnn::eval::percentile(std::move(values), 25.0);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

}  // namespace

void BuildTotals::report_end_to_end(Result& r) const {
  double vectors = 0.0, sim_s = 0.0;
  for (const SimCall& c : sim_calls) {
    vectors += static_cast<double>(c.vectors);
    sim_s += c.seconds;
  }
  double samples = 0.0, train_s = 0.0;
  for (const TrainCall& c : train_calls) {
    samples += static_cast<double>(c.samples);
    train_s += c.seconds;
  }
  PDN_CHECK(sim_s > 0.0 && train_s > 0.0,
            "no model-building work was timed");
  r.set("sim_vectors_per_s", vectors / sim_s);
  r.set("train_samples_per_s", samples / train_s);
}

void BuildTotals::report_layers(Result& r) const {
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  double vectors = 0.0, sim_s = 0.0, vector_s = 0.0, steps = 0.0, chol = 0.0;
  for (const SimCall& c : sim_calls) {
    vectors += static_cast<double>(c.vectors);
    sim_s += c.seconds;
    vector_s += c.vector_seconds;
    steps += static_cast<double>(c.steps);
    chol += static_cast<double>(c.chol_columns);
  }
  double samples = 0.0, epochs = 0.0, train_s = 0.0, flops = 0.0;
  for (const TrainCall& c : train_calls) {
    samples += static_cast<double>(c.samples);
    epochs += static_cast<double>(c.epochs);
    train_s += c.seconds;
    flops += static_cast<double>(c.flops);
  }
  r.set("core.compile_ms",
        per(sum(compile_seconds) * 1e3,
            static_cast<double>(compile_seconds.size())));
  r.set("core.train_epoch_ms", per(train_s * 1e3, epochs));
  r.set("linalg.gemm_flops_per_sample", per(flops, samples));
  r.set("sparse.factor_ms", per(sum(factor_seconds) * 1e3,
                                static_cast<double>(factor_seconds.size())));
  r.set("sim.vector_ms", per(vector_s * 1e3, vectors));
  r.set("sim.steps_per_s", per(steps, sim_s));
  r.set("sparse.chol_columns", per(chol, vectors));
}

core::RawDataset simulate_stream(const pdn::PowerGrid& grid,
                                 const sim::TransientSimulator& simulator,
                                 std::uint64_t trace_seed, int skip, int count,
                                 BuildTotals& totals) {
  vectors::TestVectorGenerator gen(grid, gen_params(), trace_seed);
  for (int i = 0; i < skip; ++i) gen.generate();
  const CounterWindow window;
  const std::int64_t t0 = now_ns();
  core::RawDataset raw =
      core::simulate_dataset(grid, simulator, gen, count, {}, kSimBatch);
  BuildTotals::SimCall call;
  call.design = grid.spec().name;
  call.vectors = count;
  call.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const core::RawSample& s : raw.samples) {
    call.vector_seconds += s.sim_seconds;
  }
  call.steps = window.delta(obs::Counter::kSimSteps);
  call.chol_columns = window.delta(obs::Counter::kCholSolveColumns);
  totals.sim_calls.push_back(call);
  return raw;
}

std::unique_ptr<core::WorstCaseNoiseNet> train_fresh(
    const pdn::PowerGrid& grid, const core::CompiledDataset& data, int epochs,
    BuildTotals& totals) {
  core::ModelConfig cfg;
  cfg.distance_channels = static_cast<int>(grid.bumps().size());
  cfg.tile_rows = grid.spec().tile_rows;
  cfg.tile_cols = grid.spec().tile_cols;
  cfg.current_scale = data.current_scale;
  cfg.noise_scale = data.noise_scale;
  auto model = std::make_unique<core::WorstCaseNoiseNet>(cfg);

  core::TrainOptions topt;
  topt.epochs = epochs;
  topt.lr = kLearningRate;
  const CounterWindow window;
  const std::int64_t t0 = now_ns();
  core::train_model(*model, data, topt);
  BuildTotals::TrainCall call;
  call.design = grid.spec().name;
  call.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  call.samples = static_cast<std::int64_t>(data.split.train.size()) * epochs;
  call.epochs = epochs;
  call.flops = window.delta(obs::Counter::kGemmFlops);
  totals.train_calls.push_back(call);
  return model;
}

BuiltModel build_model(const pdn::PowerGrid& grid,
                       const sim::TransientSimulator& simulator,
                       std::uint64_t trace_seed, int vectors, int epochs,
                       BuildTotals& totals) {
  BuiltModel out;
  out.raw = simulate_stream(grid, simulator, trace_seed, 0, vectors, totals);
  core::SplitOptions split;
  split.seed = trace_seed;
  const std::int64_t t0 = now_ns();
  out.data = core::compile_dataset(out.raw, temporal_options(), split);
  totals.compile_seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  out.model = train_fresh(grid, out.data, epochs, totals);
  return out;
}

Fixture make_fixture(const std::string& dir, bool with_int8,
                     BuildTotals& totals) {
  Fixture fx;
  std::filesystem::create_directories(dir);
  for (const pdn::DesignSpec& spec : calibrated_designs()) {
    GoldenDesign g;
    g.spec = spec;
    g.grid = std::make_unique<pdn::PowerGrid>(spec);
    g.simulator = std::make_unique<sim::TransientSimulator>(
        *g.grid, sim::TransientOptions{});
    totals.add_factor(*g.simulator);

    BuiltModel built =
        build_model(*g.grid, *g.simulator, spec.seed, kFixtureVectors,
                    kFixtureEpochs, totals);
    const std::string base = dir + "/" + spec.name;
    fx.fp32_paths.push_back(base + "_fp32.pdnb");
    core::save_artifact(*built.model, temporal_options(),
                        fx.fp32_paths.back());
    if (with_int8) {
      // Calibrate activation ranges on the training split; the pipeline is
      // built inside the calibration scope so the distance subnet is seen.
      pdnn::quant::CalibrationResult calibration;
      {
        pdnn::quant::ActivationCalibrator calibrator;
        const core::WorstCasePipeline pipeline(
            *g.grid, *built.model, core::PipelineOptions{temporal_options()});
        for (const int idx : built.data.split.train) {
          core::PreparedRequest request;
          request.currents =
              built.data.samples[static_cast<std::size_t>(idx)].currents;
          pipeline.infer(request);
        }
        calibration = calibrator.result();
      }
      fx.int8_paths.push_back(base + "_int8.pdnb");
      core::save_artifact_int8(*built.model, temporal_options(), calibration,
                               fx.int8_paths.back());
      // The repository defines the int8 budget on vectors held out from
      // training and calibration (bench/quantize_artifact.cpp): here both
      // the validation and the test split.
      const LoadedDesign fp32 = load_design(spec, fx.fp32_paths.back());
      const LoadedDesign int8 = load_design(spec, fx.int8_paths.back());
      Fixture::Int8Deviation dev;
      for (const std::vector<int>* split :
           {&built.data.split.val, &built.data.split.test}) {
        for (const int idx : *split) {
          core::PreparedRequest request;
          request.currents =
              built.data.samples[static_cast<std::size_t>(idx)].currents;
          dev.max_volts =
              std::max(dev.max_volts, max_abs_diff(int8.pipeline->infer(request),
                                                   fp32.pipeline->infer(request)));
          ++dev.vectors;
        }
      }
      fx.int8_heldout.push_back(dev);
    }
    fx.data.push_back(std::move(built.data));
    fx.designs.push_back(std::move(g));
  }
  return fx;
}

SideWork::SideWork(const Fixture& fx, std::uint64_t seed, char tag,
                   bool trace, BuildTotals& totals)
    : trace_(trace), totals_(totals), truth_(fx.designs.size()) {
  for (int call = 0; call < kGoldenCalls; ++call) {
    for (std::size_t d = 0; d < fx.designs.size(); ++d) {
      const GoldenDesign& g = fx.designs[d];
      jobs_.emplace_back([this, &g, d, call, seed, tag] {
        const core::RawDataset raw = simulate_stream(
            *g.grid, *g.simulator, stream_seed(seed, tag, d),
            call * kGoldenCall, kGoldenCall, totals_);
        for (const core::RawSample& s : raw.samples) {
          truth_[d].push_back(s.truth);
          golden_vector_s_ += s.sim_seconds;
          ++golden_vectors_;
        }
      });
      if (call < kTrainProbes) {
        const core::CompiledDataset& data = fx.data[d];
        jobs_.emplace_back([this, &g, &data] {
          train_fresh(*g.grid, data, kFixtureEpochs, totals_);
        });
      }
    }
  }
}

void SideWork::run_next() {
  PDN_CHECK(!done(), "SideWork: no job left");
  obs::set_enabled(trace_);
  jobs_[next_++]();
  obs::set_enabled(false);
}

double SideWork::golden_seconds_per_vector() const {
  PDN_CHECK(golden_vectors_ > 0, "SideWork: no reference was simulated");
  return golden_vector_s_ / static_cast<double>(golden_vectors_);
}

LoadedDesign load_design(const pdn::DesignSpec& spec,
                         const std::string& path) {
  LoadedDesign d;
  d.grid = std::make_unique<pdn::PowerGrid>(spec);
  d.artifact = core::load_artifact(path);
  d.pipeline = std::make_unique<core::WorstCasePipeline>(
      *d.grid, *d.artifact.model,
      core::PipelineOptions{d.artifact.temporal});
  return d;
}

std::vector<vectors::CurrentTrace> warmup_traces(const pdn::PowerGrid& grid,
                                                 int design) {
  vectors::TestVectorGenerator gen(grid, gen_params(),
                                   stream_seed(0, 'W', design));
  std::vector<vectors::CurrentTrace> out;
  for (int i = 0; i < kWarmupMaps; ++i) out.push_back(gen.generate());
  return out;
}

bool same_bytes(const util::MapF& a, const util::MapF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double max_abs_diff(const util::MapF& a, const util::MapF& b) {
  PDN_CHECK(a.size() == b.size(), "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a.data()[i]) -
                              static_cast<double>(b.data()[i])));
  }
  return m;
}

void report_mean_re(Result& r, double pct) {
  r.check(mean_re_in_band(pct),
          "mean_re_pct " + std::to_string(pct) + " outside the sanity band [" +
              std::to_string(kMeanReLowPct) + ", " +
              std::to_string(kMeanReHighPct) + "]");
  r.set("mean_re_pct", pct);
}

void report_latency(Result& r, const char* what,
                    const std::vector<double>& latency_ms) {
  const LatencySummary s = summarize_latency(latency_ms);
  info("%s latency: %zu samples, p50 %.4f ms, tail p%g %.4f ms", what,
       s.count, s.p50, s.tail_pct, s.tail);
  r.set("latency_p50_ms", s.p50);
  r.set("latency_tail_ms", s.tail);
}

void report_serial(Result& r, const char* what,
                   const std::vector<double>& latency_ms) {
  double seconds = 0.0;
  for (const double ms : latency_ms) seconds += ms * 1e-3;
  const double rate = static_cast<double>(latency_ms.size()) / seconds;
  r.set("maps_per_s", rate);
  r.set("saturation_rps", rate);
  report_latency(r, what, latency_ms);
}

// ---------------------------------------------------------------------------
// Staged predictor and ledger
// ---------------------------------------------------------------------------

const char* const kStageSpans[6] = {"core.spatial", "core.temporal",
                                    "core.features", "core.fusion",
                                    "core.stats", "core.predict_noise"};

StagedPredictor::StagedPredictor(const pdn::PowerGrid& grid,
                                 const core::WorstCaseNoiseNet& model,
                                 core::TemporalCompressionOptions temporal)
    : model_(model), temporal_(temporal), spatial_(grid) {
  pdnn::nn::NoGradGuard no_grad;
  d_tilde_ = model_.reduce_distance(pdnn::nn::Var(core::distance_feature(grid)))
                 .value();
}

util::MapF StagedPredictor::predict(const vectors::CurrentTrace& trace,
                                    SpanLog& log, int parent,
                                    std::int64_t request,
                                    int* kept_steps) const {
  namespace nn = pdnn::nn;
  nn::NoGradGuard no_grad;
  std::vector<util::MapF> maps;
  {
    const ScopedSpan s(log, kStageSpans[0], parent, request);
    maps = spatial_.current_maps(trace);
  }
  core::TemporalCompressionResult tc;
  {
    const ScopedSpan s(log, kStageSpans[1], parent, request);
    tc = core::compress_temporal(core::total_current_sequence(maps),
                                 temporal_);
  }
  nn::Tensor currents;
  {
    const ScopedSpan s(log, kStageSpans[2], parent, request);
    currents = core::stack_current_maps(maps, tc.kept,
                                        model_.config().current_scale);
  }
  nn::Var fused;
  {
    const ScopedSpan s(log, kStageSpans[3], parent, request);
    fused = model_.fuse_currents(nn::Var(currents));
  }
  nn::Var stats;
  {
    const ScopedSpan s(log, kStageSpans[4], parent, request);
    stats = core::WorstCaseNoiseNet::temporal_stats(fused);
  }
  const ScopedSpan s(log, kStageSpans[5], parent, request);
  const nn::Var stacked = nn::concat_channels({nn::Var(d_tilde_), stats});
  const nn::Var pred = model_.predict_noise(stacked);
  if (kept_steps != nullptr) *kept_steps = static_cast<int>(tc.kept.size());
  return core::tensor_to_map(pred.value(), model_.config().noise_scale);
}

util::MapF Ledger::predict(const core::WorstCasePipeline& pipeline,
                           const StagedPredictor& staged,
                           const vectors::CurrentTrace& trace, Result& r,
                           double* untraced_ms) {
  obs::set_enabled(false);
  std::int64_t t0 = now_ns();
  util::MapF reference = pipeline.predict(trace);
  const double untraced = static_cast<double>(now_ns() - t0) * 1e-9;
  *untraced_ms = untraced * 1e3;
  if (!log_.enabled()) return reference;

  obs::set_enabled(true);
  const CounterWindow window;
  t0 = now_ns();
  const int root = log_.open("core.map", -1, maps_);
  int kept = 0;
  const util::MapF staged_map = staged.predict(trace, log_, root, maps_, &kept);
  log_.close(root);
  traced_s_ += static_cast<double>(now_ns() - t0) * 1e-9;
  gemm_flops_ += window.delta(obs::Counter::kGemmFlops);
  packed_bytes_ += window.delta(obs::Counter::kKernelPackedBytes);
  conv_fused_ += window.delta(obs::Counter::kConvFusedCalls);
  gemm_s8_ += window.delta(obs::Counter::kGemmS8Calls);
  pool_chunk_s_ +=
      static_cast<double>(window.delta(obs::Counter::kPoolChunkNanos)) * 1e-9;
  obs::set_enabled(false);

  r.check(same_bytes(reference, staged_map),
          "staged public calls differ from predict() on map " +
              std::to_string(maps_));
  untraced_s_ += untraced;
  kept_steps_ += kept;
  ++maps_;
  return reference;
}

void Ledger::report(Result& r) const {
  PDN_CHECK(maps_ > 0, "ledger: no maps were traced");
  const double n = static_cast<double>(maps_);
  std::vector<double> stage_seconds;
  double cnn_seconds = 0.0;
  for (const char* name : kStageSpans) {
    const double seconds = log_.total_seconds(name);
    stage_seconds.push_back(seconds);
    r.set(std::string(name) + "_ms", seconds * 1e3 / n);
    if (std::strcmp(name, "core.fusion") == 0 ||
        std::strcmp(name, "core.predict_noise") == 0) {
      cnn_seconds += seconds;
    }
  }
  r.set("core.kept_steps", static_cast<double>(kept_steps_) / n);
  r.set("core.stage_sum_pct", stage_sum_pct(stage_seconds, untraced_s_));
  r.set("linalg.gemm_flops_per_map", static_cast<double>(gemm_flops_) / n);
  r.set("linalg.gemm_mflops",
        static_cast<double>(gemm_flops_) / cnn_seconds * 1e-6);
  r.set("linalg.packed_bytes_per_map",
        static_cast<double>(packed_bytes_) / n);
  r.set("nn.conv_fused_per_map", static_cast<double>(conv_fused_) / n);
  r.set("linalg.gemm_s8_calls_per_map", static_cast<double>(gemm_s8_) / n);
}

}  // namespace perfbench
