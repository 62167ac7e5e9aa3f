#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "linalg/kernels/registry.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pdnn::bench {

ExperimentOptions options_for_scale(pdn::Scale scale) {
  ExperimentOptions o;
  o.scale = scale;
  switch (scale) {
    case pdn::Scale::kSmall:
      o.num_vectors = 48;
      o.epochs = 120;
      break;
    case pdn::Scale::kMedium:
      o.num_vectors = 96;
      o.epochs = 200;
      break;
    case pdn::Scale::kPaper:
      o.num_vectors = 500;
      o.epochs = 300;
      o.lr = 1e-4f;  // the published setting, appropriate at full data scale
      break;
  }
  return o;
}

void add_common_flags(util::ArgParser& args) {
  args.add_flag("scale", "small", "experiment scale: small|medium|paper");
  args.add_flag("vectors", "-1", "test vectors per design (-1: scale default)");
  args.add_flag("epochs", "-1", "training epochs (-1: scale default)");
  args.add_flag("steps", "80", "time steps per vector (dt = 1 ps)");
  args.add_flag("rate", "0.15", "temporal compression rate r");
  args.add_flag("split", "expansion", "train split: expansion|random");
  args.add_bool("ablate-distance", "zero the bump-distance feature (ablation)");
  args.add_bool("verbose", "print per-epoch losses and progress");
  args.add_flag("threads", "0",
                "worker threads for the shared pool "
                "(0: PDNN_THREADS or hardware concurrency)");
  args.add_flag("kernel", "",
                "compute-kernel backend: scalar|avx2 (empty: PDNN_KERNEL, or "
                "the CPUID probe; forcing an unsupported backend errors)");
  args.add_flag("store-dir", "",
                "persistent run store: content-addressed golden-simulation "
                "cache + training checkpoints (empty: off)");
  args.add_flag("checkpoint-every", "0",
                "write a training checkpoint into the store every N epochs "
                "(0: off; needs --store-dir)");
  args.add_bool("resume",
                "restore the store's training checkpoint for this run's data "
                "before training (bit-identical to an uninterrupted run; "
                "needs --store-dir)");
  args.add_flag("trace", "",
                "write a Chrome trace-event JSON (Perfetto-loadable) here");
  args.add_flag("metrics-json", "",
                "write the structured run-metrics report (JSON) here");
  args.add_flag("metrics-out", "",
                "telemetry directory: periodic metrics.jsonl time series, "
                "metrics.prom Prometheus exposition, flight.json post-mortem "
                "(empty: off)");
  args.add_flag("metrics-interval-ms", "250",
                "metrics snapshot period in milliseconds (needs "
                "--metrics-out)");
}

std::unique_ptr<store::Store> open_store(const std::string& dir) {
  if (dir.empty()) return nullptr;
  return std::make_unique<store::Store>(dir);
}

void add_serve_flags(util::ArgParser& args) {
  args.add_flag("serve-clients", "8", "concurrent client threads");
  args.add_flag("serve-requests", "4", "predictions issued per client");
  args.add_flag("serve-shards", "2",
                "fleet worker shards (design id queues on shard id % shards; "
                "an idle worker takes batches from the longest queue; any "
                "count is bit-identical)");
  args.add_flag("serve-designs", "2",
                "designs registered for mixed-design traffic");
  args.add_flag("serve-batch", "8",
                "widest fused micro-batch (requests per CNN pass; "
                "any width is bit-identical)");
  args.add_flag("serve-queue", "64",
                "bounded per-shard queue capacity (a full shard rejects "
                "with 'overloaded' instead of growing)");
  args.add_flag("serve-deadline-ms", "0",
                "per-request deadline in milliseconds (0: none); requests "
                "still queued past it are rejected with 'timed_out'");
  args.add_bool("serve-swap",
                "hot-swap every design to an identical artifact mid-run "
                "(canary -> promote) while verifying bit-identity");
  args.add_flag("serve-canary-fraction", "0.5",
                "fraction of a design's traffic canaried during a swap");
  args.add_flag("serve-canary-requests", "4",
                "clean canary comparisons required to promote a swap");
  args.add_flag("serve-swap-tolerance-mv", "0",
                "per-node canary tolerance in mV for every hot swap (0: "
                "exact bytes, and a swap to another weight dtype such as "
                "int8 is refused)");
}

ServeFlags serve_flags_from_args(const util::ArgParser& args) {
  ServeFlags sf;
  sf.clients = args.get_int("serve-clients");
  sf.requests_per_client = args.get_int("serve-requests");
  sf.designs = args.get_int("serve-designs");
  sf.swap = args.get_bool("serve-swap");
  sf.options.num_shards = args.get_int("serve-shards");
  sf.options.max_batch = args.get_int("serve-batch");
  sf.options.queue_capacity = args.get_int("serve-queue");
  const double deadline_ms = args.get_double("serve-deadline-ms");
  if (deadline_ms > 0.0) {
    sf.options.default_deadline_seconds = deadline_ms * 1e-3;
  }
  sf.options.canary_fraction = args.get_double("serve-canary-fraction");
  sf.options.canary_requests = args.get_int("serve-canary-requests");
  sf.options.swap_tolerance_volts =
      args.get_double("serve-swap-tolerance-mv") * 1e-3;
  PDN_CHECK(sf.clients > 0 && sf.requests_per_client > 0,
            "serve flags: --serve-clients and --serve-requests must be > 0");
  PDN_CHECK(sf.designs > 0 && sf.options.num_shards > 0,
            "serve flags: --serve-designs and --serve-shards must be > 0");
  return sf;
}

ExperimentOptions options_from_args(const util::ArgParser& args) {
  ExperimentOptions o =
      options_for_scale(pdn::scale_from_string(args.get("scale")));
  if (args.get_int("vectors") > 0) o.num_vectors = args.get_int("vectors");
  if (args.get_int("epochs") > 0) o.epochs = args.get_int("epochs");
  o.num_steps = args.get_int("steps");
  o.compression_rate = args.get_double("rate");
  o.split = args.get("split") == "random" ? core::SplitStrategy::kRandom
                                          : core::SplitStrategy::kExpansion;
  o.ablate_distance = args.get_bool("ablate-distance");
  o.verbose = args.get_bool("verbose");
  const int threads = args.get_int("threads");
  if (threads > 0) util::ThreadPool::set_global_threads(threads);
  const std::string& kernel = args.get("kernel");
  if (!kernel.empty()) linalg::force_backend(linalg::parse_backend(kernel));
  o.store_dir = args.get("store-dir");
  o.checkpoint_every = args.get_int("checkpoint-every");
  o.resume = args.get_bool("resume");
  PDN_CHECK(!o.store_dir.empty() || (o.checkpoint_every <= 0 && !o.resume),
            "--checkpoint-every/--resume need --store-dir");
  return o;
}

vectors::VectorGenParams gen_params_for(const ExperimentOptions& options) {
  vectors::VectorGenParams p;
  p.num_steps = options.num_steps;
  return p;
}

DesignExperiment run_design_experiment(const pdn::DesignSpec& base_spec,
                                       const ExperimentOptions& options) {
  DesignExperiment ex;
  ex.counters_before = obs::snapshot_counters();
  obs::StageTimer total;
  obs::StageTimer stage;
  const vectors::VectorGenParams gen_params = gen_params_for(options);

  // 1) Calibrate to the Table-1 mean worst-case noise target.
  ex.spec = sim::calibrate_design(base_spec, gen_params);
  ex.grid = std::make_unique<pdn::PowerGrid>(ex.spec);
  ex.simulator = std::make_unique<sim::TransientSimulator>(
      *ex.grid, sim::TransientOptions{});

  ex.stage_seconds.emplace_back("calibrate", stage.lap("bench.calibrate"));

  if (options.verbose) {
    obs::logf("[%s] %d nodes, %d loads, %zu bumps, %dx%d tiles",
              ex.spec.name.c_str(), ex.grid->num_nodes(), ex.spec.num_loads,
              ex.grid->bumps().size(), ex.spec.tile_rows, ex.spec.tile_cols);
  }

  // 2) Golden dataset — warm vectors replay from the persistent store.
  std::unique_ptr<store::Store> run_store = open_store(options.store_dir);
  vectors::TestVectorGenerator gen(*ex.grid, gen_params, ex.spec.seed);
  ex.raw =
      core::simulate_dataset(*ex.grid, *ex.simulator, gen,
                             options.num_vectors, {}, 0, run_store.get());
  if (options.ablate_distance) ex.raw.distance.zero();

  core::TemporalCompressionOptions temporal;
  temporal.rate = options.compression_rate;
  temporal.rate_step = options.rate_step;
  core::SplitOptions split;
  split.strategy = options.split;
  ex.data = core::compile_dataset(ex.raw, temporal, split);
  ex.stage_seconds.emplace_back("dataset", stage.lap("bench.dataset"));

  // 3) Train.
  core::ModelConfig cfg;
  cfg.distance_channels = static_cast<int>(ex.grid->bumps().size());
  cfg.tile_rows = ex.spec.tile_rows;
  cfg.tile_cols = ex.spec.tile_cols;
  cfg.current_scale = ex.data.current_scale;
  cfg.noise_scale = ex.data.noise_scale;
  ex.model = std::make_unique<core::WorstCaseNoiseNet>(cfg);
  core::TrainOptions topt;
  topt.epochs = options.epochs;
  topt.lr = options.lr;
  // Exponential schedule ending at lr/50 regardless of the epoch budget
  // (a fixed per-epoch factor would over-decay long runs).
  topt.lr_decay =
      options.lr_decay > 0.0f
          ? options.lr_decay
          : std::pow(0.02f, 1.0f / static_cast<float>(options.epochs));
  topt.verbose = options.verbose;
  if (options.checkpoint_every > 0 || options.resume) {
    PDN_CHECK(run_store != nullptr, "checkpointing needs --store-dir");
    // The checkpoint is keyed by the compiled dataset, so designs sharing a
    // store never collide and a run over other data trains fresh.
    topt.checkpoint_store = run_store.get();
    topt.checkpoint_every =
        options.checkpoint_every > 0 ? options.checkpoint_every : 1;
    topt.resume = options.resume;
  }
  ex.train_report = core::train_model(*ex.model, ex.data, topt);
  ex.stage_seconds.emplace_back("train", stage.lap("bench.train"));

  // 4) Evaluate on the held-out test split. The proposed runtime is measured
  //    end-to-end from the raw vector through the pipeline (spatial +
  //    temporal compression + one CNN pass), as in the paper's Table 2,
  //    after one untimed warm-up call, as the median over kTimedPasses
  //    passes of the pass's mean time per map. The commercial runtime is not
  //    re-measured: it is simulate_dataset's time-stepping wall time
  //    (total_sim_seconds, a batched block's time split evenly over its
  //    vectors) divided by the number of simulated vectors.
  core::PipelineOptions popt;
  popt.temporal = temporal;
  core::WorstCasePipeline pipeline(*ex.grid, *ex.model, popt);

  eval::MapEvaluator evaluator(ex.spec.vdd);
  vectors::TestVectorGenerator replay(*ex.grid, gen_params, ex.spec.seed);
  std::vector<vectors::CurrentTrace> traces;
  traces.reserve(static_cast<std::size_t>(options.num_vectors));
  for (int i = 0; i < options.num_vectors; ++i) {
    traces.push_back(replay.generate());
  }

  // The first predict() pays for cold caches and scratch growth; keep it
  // out of the timing. Its map is discarded, so no accuracy figure moves.
  // A single pass holds about a dozen maps at small scale, too few to
  // outlast a busy moment on a shared host, so the passes repeat and the
  // median pass counts. predict() is deterministic: every pass returns the
  // first pass's maps, and the accuracy is taken from that one.
  if (!traces.empty()) pipeline.predict(traces.front());
  constexpr int kTimedPasses = 5;
  std::vector<double> pass_seconds(kTimedPasses, 0.0);
  for (int pass = 0; pass < kTimedPasses; ++pass) {
    for (int idx : ex.data.split.test) {
      const int raw_idx =
          ex.data.samples[static_cast<std::size_t>(idx)].raw_index;
      core::PredictionTiming timing;
      const util::MapF pred = pipeline.predict(
          traces[static_cast<std::size_t>(raw_idx)], &timing);
      pass_seconds[static_cast<std::size_t>(pass)] += timing.total_seconds;
      if (pass > 0) continue;
      evaluator.add(pred,
                    ex.raw.samples[static_cast<std::size_t>(raw_idx)].truth);
      ex.test_predictions.push_back(pred);
    }
  }
  ex.accuracy = evaluator.accuracy();
  ex.hotspots = evaluator.hotspots();

  const std::size_t tests = ex.data.split.test.size();
  PDN_CHECK(tests > 0, "experiment produced no test samples");
  std::nth_element(pass_seconds.begin(),
                   pass_seconds.begin() + kTimedPasses / 2,
                   pass_seconds.end());
  ex.proposed_seconds_per_vector =
      pass_seconds[kTimedPasses / 2] / static_cast<double>(tests);
  ex.commercial_seconds_per_vector =
      ex.raw.total_sim_seconds / static_cast<double>(ex.raw.samples.size());
  ex.speedup =
      ex.commercial_seconds_per_vector / ex.proposed_seconds_per_vector;
  ex.stage_seconds.emplace_back("evaluate", stage.lap("bench.evaluate"));
  ex.total_seconds = total.lap("bench.design");
  ex.counters_after = obs::snapshot_counters();
  return ex;
}

obs::JsonValue experiment_json(const DesignExperiment& ex) {
  obs::JsonValue j = obs::JsonValue::object();
  j.set("design", ex.spec.name);
  j.set("nodes", ex.grid->num_nodes());
  j.set("loads", ex.spec.num_loads);
  j.set("bumps", static_cast<std::int64_t>(ex.grid->bumps().size()));

  obs::JsonValue stages = obs::JsonValue::object();
  for (const auto& [name, seconds] : ex.stage_seconds) {
    stages.set(name, seconds);
  }
  j.set("stages", stages);
  j.set("total_seconds", ex.total_seconds);

  obs::JsonValue train = obs::JsonValue::object();
  train.set("seconds", ex.train_report.seconds);
  if (!ex.train_report.train_loss.empty()) {
    train.set("final_train_loss", ex.train_report.train_loss.back());
    train.set("final_val_loss", ex.train_report.val_loss.back());
  }
  j.set("train", train);

  obs::JsonValue acc = obs::JsonValue::object();
  acc.set("mean_ae_mv", ex.accuracy.mean_ae * 1e3);
  acc.set("p99_ae_mv", ex.accuracy.p99_ae * 1e3);
  acc.set("max_ae_mv", ex.accuracy.max_ae * 1e3);
  acc.set("mean_re", ex.accuracy.mean_re);
  acc.set("max_re", ex.accuracy.max_re);
  acc.set("hotspot_missing_rate", ex.hotspots.missing_rate);
  acc.set("hotspot_false_alarm_rate", ex.hotspots.false_alarm_rate);
  acc.set("hotspot_auc", ex.hotspots.auc);
  j.set("accuracy", acc);

  obs::JsonValue timing = obs::JsonValue::object();
  timing.set("proposed_seconds_per_vector", ex.proposed_seconds_per_vector);
  timing.set("commercial_seconds_per_vector",
             ex.commercial_seconds_per_vector);
  timing.set("speedup", ex.speedup);
  j.set("timing", timing);

  j.set("counters", obs::counters_json(ex.counters_before, ex.counters_after));
  return j;
}

RunMetrics::RunMetrics(std::string bench_name, const util::ArgParser& args)
    : bench_(std::move(bench_name)),
      trace_path_(args.get("trace")),
      metrics_path_(args.get("metrics-json")),
      metrics_out_(args.get("metrics-out")) {
  // Any output implies collection. With only --metrics-json the span ring
  // buffers still fill (bounded memory) but are never serialized.
  if (enabled()) obs::set_enabled(true);
  if (!trace_path_.empty()) {
    // Route through set_trace_path so the shutdown hooks flush the trace
    // even when the driver dies on an uncaught CheckError before finish().
    obs::set_trace_path(trace_path_);
  }
  if (!metrics_out_.empty()) {
    obs::SnapshotterOptions snap;
    snap.dir = metrics_out_;
    snap.interval_seconds = args.get_double("metrics-interval-ms") * 1e-3;
    snapshotter_ = std::make_unique<obs::MetricsSnapshotter>(snap);
    obs::flight().set_dump_path(metrics_out_ + "/flight.json");
  }
  start_ = obs::snapshot_counters();
  extra_ = obs::JsonValue::object();
  designs_ = obs::JsonValue::array();
}

RunMetrics::~RunMetrics() {
  if (snapshotter_) snapshotter_->stop();
}

double RunMetrics::lap(const std::string& name) {
  // StageTimer::lap wants a literal for the trace; run-level stage names are
  // dynamic, so record the boundary without a span and keep only the report.
  const double seconds = laps_.seconds();
  laps_.reset();
  stage_add(name, seconds);
  return seconds;
}

void RunMetrics::add_experiment(const DesignExperiment& ex) {
  for (const auto& [name, seconds] : ex.stage_seconds) {
    stage_add(name, seconds);
  }
  laps_.reset();  // experiment time is accounted; next lap starts here
  designs_.push(experiment_json(ex));
}

void RunMetrics::add_design(obs::JsonValue design) {
  designs_.push(std::move(design));
}

void RunMetrics::set(const std::string& key, obs::JsonValue value) {
  extra_.set(key, std::move(value));
}

void RunMetrics::stage_add(const std::string& name, double seconds) {
  for (auto& entry : stages_) {
    if (entry.first == name) {
      entry.second += seconds;
      return;
    }
  }
  stages_.emplace_back(name, seconds);
}

void RunMetrics::finish() {
  if (finished_ || !enabled()) return;
  finished_ = true;
  if (snapshotter_) snapshotter_->stop();  // final sample before the report
  if (!metrics_out_.empty()) obs::flight().dump();
  const double total = total_.seconds();

  obs::JsonValue root = obs::JsonValue::object();
  root.set("bench", bench_);
  root.set("kernel.backend",
           std::string(linalg::backend_name(linalg::active_backend())));
  if (extra_.size() > 0) root.set("options", std::move(extra_));
  obs::JsonValue stages = obs::JsonValue::object();
  double sum = 0.0;
  for (const auto& [name, seconds] : stages_) {
    stages.set(name, seconds);
    sum += seconds;
  }
  root.set("stages", stages);
  root.set("stage_seconds_sum", sum);
  root.set("total_seconds", total);
  root.set("designs", std::move(designs_));
  root.set("counters", obs::counters_json(start_, obs::snapshot_counters()));

  if (!metrics_path_.empty()) {
    std::ofstream out(metrics_path_);
    if (out) {
      out << root.dump() << '\n';
    } else {
      obs::logf("metrics: cannot write %s", metrics_path_.c_str());
    }
  }
  if (!trace_path_.empty() && !obs::write_trace(trace_path_)) {
    obs::logf("trace: cannot write %s", trace_path_.c_str());
  }
}

std::string mv(double volts) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << volts * 1e3 << "mV";
  return os.str();
}

std::string pct(double fraction) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << fraction * 1e2 << "%";
  return os.str();
}

}  // namespace pdnn::bench
