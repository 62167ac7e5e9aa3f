// Reproduces Fig. 6: impact of the temporal compression algorithm —
// (a) mean relative error vs compression rate r (error drops with larger r,
// with a knee near 0.3), and (b) prediction runtime vs r (≈ linear, because
// the fusion subnet cost is proportional to the retained steps).
//
// The golden dataset is simulated once per design and re-compiled at each
// rate; --strategy uniform swaps Algorithm 1 for uniform subsampling as an
// ablation baseline.
#include <cstdio>
#include <sstream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pdnn;
  using namespace pdnn::bench;

  util::ArgParser args(
      "fig6_compression",
      "Reproduce Fig. 6 (error & runtime vs compression rate)");
  add_common_flags(args);
  // Lighter per-point defaults: this bench retrains once per (design, rate).
  args.add_flag("vectors", "40", "test vectors per design (sweep default)");
  args.add_flag("epochs", "60", "training epochs per sweep point");
  args.add_flag("designs", "D1,D2", "designs to sweep (paper: D1 and D2)");
  args.add_flag("rates", "0.05,0.1,0.2,0.3,0.4,0.5",
                "comma-separated compression rates");
  args.add_flag("strategy", "algorithm1", "algorithm1|uniform (ablation)");
  if (!args.parse(argc, argv)) return 0;
  ExperimentOptions options = options_from_args(args);
  // The sweep shares the golden cache; checkpoints stay off because every
  // (design, rate) point trains a distinct model.
  const std::unique_ptr<store::Store> run_store =
      open_store(options.store_dir);
  RunMetrics metrics("fig6_compression", args);
  const bool uniform = args.get("strategy") == "uniform";
  metrics.set("strategy", uniform ? "uniform" : "algorithm1");

  const std::vector<double> rates = args.get_double_list("rates");
  std::vector<std::string> designs;
  {
    std::stringstream ss(args.get("designs"));
    std::string item;
    while (std::getline(ss, item, ',')) designs.push_back(item);
  }

  std::printf("Fig. 6: temporal compression sweep (scale=%s, strategy=%s)\n",
              pdn::to_string(options.scale).c_str(),
              uniform ? "uniform" : "Algorithm 1");
  std::printf("%-7s %6s | %10s %12s %12s\n", "Design", "r", "MeanRE",
              "Runtime(s)", "KeptSteps");

  for (const std::string& name : designs) {
    // Simulate the golden dataset once; recompile per rate.
    const pdn::DesignSpec base = pdn::design_by_name(name, options.scale);
    const vectors::VectorGenParams gen_params = gen_params_for(options);
    const pdn::DesignSpec spec = sim::calibrate_design(base, gen_params);
    const pdn::PowerGrid grid(spec);
    sim::TransientSimulator simulator(grid, {});
    vectors::TestVectorGenerator gen(grid, gen_params, spec.seed);
    core::RawDataset raw = core::simulate_dataset(
        grid, simulator, gen, options.num_vectors, {}, 0, run_store.get());
    metrics.lap("simulate");

    for (double rate : rates) {
      const obs::CounterSnapshot before = obs::snapshot_counters();
      core::TemporalCompressionOptions temporal;
      temporal.rate = rate;
      temporal.rate_step = options.rate_step;

      // Compile (optionally overriding Algorithm 1 with uniform sampling).
      core::CompiledDataset data;
      if (uniform) {
        data.distance = raw.distance;
        data.current_scale = raw.current_scale;
        data.noise_scale = raw.vdd;
        std::vector<std::vector<float>> sigs;
        const auto kept = core::uniform_subsample(options.num_steps, rate);
        for (int i = 0; i < static_cast<int>(raw.samples.size()); ++i) {
          const auto& s = raw.samples[static_cast<std::size_t>(i)];
          core::CompiledSample cs;
          cs.currents = core::stack_current_maps(s.current_maps, kept,
                                                 data.current_scale);
          cs.target = core::map_to_tensor(s.truth, data.noise_scale);
          cs.raw_index = i;
          data.samples.push_back(std::move(cs));
          sigs.push_back(core::sample_signature(s));
        }
        data.split = core::expansion_split(sigs, {});
      } else {
        data = core::compile_dataset(raw, temporal, {});
      }

      core::ModelConfig cfg;
      cfg.distance_channels = static_cast<int>(grid.bumps().size());
      cfg.tile_rows = spec.tile_rows;
      cfg.tile_cols = spec.tile_cols;
      cfg.current_scale = data.current_scale;
      cfg.noise_scale = data.noise_scale;
      core::WorstCaseNoiseNet model(cfg);
      core::TrainOptions topt;
      topt.epochs = options.epochs;
      topt.lr = options.lr;
      core::train_model(model, data, topt);

      // Evaluate accuracy + prediction runtime on the test split.
      core::PipelineOptions popt;
      popt.temporal = temporal;
      core::WorstCasePipeline pipeline(grid, model, popt);
      vectors::TestVectorGenerator replay(grid, gen_params, spec.seed);
      std::vector<vectors::CurrentTrace> traces;
      for (int i = 0; i < options.num_vectors; ++i) {
        traces.push_back(replay.generate());
      }
      eval::MapEvaluator evaluator(spec.vdd);
      double seconds = 0.0;
      int kept_steps = 0;
      for (int idx : data.split.test) {
        const int raw_idx =
            data.samples[static_cast<std::size_t>(idx)].raw_index;
        core::PredictionTiming timing;
        const util::MapF pred = pipeline.predict(
            traces[static_cast<std::size_t>(raw_idx)], &timing);
        seconds += timing.total_seconds;
        kept_steps = timing.kept_steps;
        evaluator.add(pred,
                      raw.samples[static_cast<std::size_t>(raw_idx)].truth);
      }
      seconds /= static_cast<double>(data.split.test.size());

      metrics.lap("sweep-point");
      std::printf("%-7s %6.2f | %9s %12.5f %12d\n", spec.name.c_str(), rate,
                  pct(evaluator.accuracy().mean_re).c_str(), seconds,
                  kept_steps);
      std::fflush(stdout);

      if (metrics.enabled()) {
        obs::JsonValue point = obs::JsonValue::object();
        point.set("design", spec.name);
        point.set("rate", rate);
        point.set("mean_re", evaluator.accuracy().mean_re);
        point.set("predict_seconds_per_vector", seconds);
        point.set("kept_steps", kept_steps);
        point.set("counters",
                  obs::counters_json(before, obs::snapshot_counters()));
        metrics.add_design(std::move(point));
      }
    }
  }

  std::printf(
      "\nExpected shape (paper Fig. 6): mean RE decreases as r grows with a "
      "knee near r=0.3 (1.19%%/1.05%% for D1/D2 at the knee); runtime grows "
      "~linearly with r.\n");
  metrics.finish();
  return 0;
}
