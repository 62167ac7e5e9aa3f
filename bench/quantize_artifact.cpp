// Post-training quantization driver (the "quantize an artifact" CLI entry):
// for each requested design, train the fp32 model, calibrate activation
// ranges by streaming the *training split* back through the prepared
// pipeline, and emit three PDNB artifacts — v1 fp32, v2 int8 (+ calibrated
// scales), v2 fp16 — then measure, on the held-out test split, how far each
// quantized pipeline's worst-case maps stray from the fp32 pipeline's.
//
// The printed table (and BENCH_quantize_artifact.json) is the accuracy
// budget recorded in EXPERIMENTS.md: per design, mean/max per-node
// |quantized - fp32| in mV plus artifact sizes. --budget-mv gates the run:
// any design whose int8 or fp16 max deviation exceeds the budget fails the
// driver (CI runs this as the quant-smoke accuracy assertion).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/artifact.hpp"
#include "quant/calibrate.hpp"
#include "quant/dtype.hpp"

namespace {

/// Accumulated per-node deviation between two sets of maps.
struct Deviation {
  double sum_abs = 0.0;
  double max_abs = 0.0;
  std::int64_t nodes = 0;

  void add(const pdnn::util::MapF& a, const pdnn::util::MapF& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = std::fabs(static_cast<double>(a.data()[i]) -
                                 static_cast<double>(b.data()[i]));
      sum_abs += d;
      if (d > max_abs) max_abs = d;
    }
    nodes += static_cast<std::int64_t>(a.size());
  }
  double mean_mv() const {
    return nodes > 0 ? sum_abs / static_cast<double>(nodes) * 1e3 : 0.0;
  }
  double max_mv() const { return max_abs * 1e3; }
};

double file_kb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdnn;

  util::ArgParser args(
      "quantize_artifact",
      "Calibrate + quantize PDNB artifacts (int8/fp16) per design and "
      "measure the accuracy cost vs the fp32 pipeline");
  bench::add_common_flags(args);
  args.add_flag("designs", "D1,D2,D3,D4",
                "comma-separated designs to quantize");
  args.add_flag("out-dir", ".",
                "directory the fp32/int8/fp16 artifacts are written into");
  // Default envelope from the committed four-design sweep (EXPERIMENTS.md):
  // per-tensor int8 weights, dequantized at load, top out at ~4.2 mV max
  // per-node deviation (D1). 25 was set when int8 also quantized
  // activations (up to ~18.4 mV) and still catches a broken scale or a
  // mis-quantized layer.
  args.add_flag("budget-mv", "25",
                "accuracy budget: max allowed per-node |quantized - fp32| "
                "deviation in mV on the test split");
  if (!args.parse(argc, argv)) return 0;

  const bench::ExperimentOptions options = bench::options_from_args(args);
  const double budget_mv = args.get_double("budget-mv");
  const std::string out_dir = args.get("out-dir");
  std::filesystem::create_directories(out_dir);

  const std::vector<std::string> design_names = args.get_list("designs");

  bench::RunMetrics metrics("quantize_artifact", args);
  metrics.set("budget_mv", budget_mv);

  std::printf(
      "quantize_artifact: budget %.3f mV (max per-node |quantized - fp32| "
      "on the test split)\n",
      budget_mv);
  std::printf("%-6s %10s | %10s %10s | %10s %10s | %9s %9s %9s\n", "design",
              "fp32 vs", "int8 mean", "int8 max", "fp16 mean", "fp16 max",
              "fp32 KB", "int8 KB", "fp16 KB");
  std::printf("%-6s %10s | %10s %10s | %10s %10s | %9s %9s %9s\n", "",
              "truth mV", "mV", "mV", "mV", "mV", "", "", "");

  bool within_budget = true;
  for (const std::string& name : design_names) {
    const pdn::DesignSpec spec = pdn::design_by_name(name, options.scale);
    bench::DesignExperiment ex = bench::run_design_experiment(spec, options);
    metrics.add_experiment(ex);

    core::TemporalCompressionOptions temporal;
    temporal.rate = options.compression_rate;
    temporal.rate_step = options.rate_step;

    const std::string base = out_dir + "/" + spec.name;
    const std::string fp32_path = base + "_fp32.pdnb";
    const std::string int8_path = base + "_int8.pdnb";
    const std::string f16_path = base + "_fp16.pdnb";
    core::save_artifact(*ex.model, temporal, fp32_path);

    // Calibration: replay the training split through a pipeline built while
    // the observer is armed. The pipeline is *constructed* inside the scope
    // so the one-time distance reduction (subnet 1) is observed too; each
    // compiled training sample is already a prepared request.
    quant::CalibrationResult calibration;
    {
      quant::ActivationCalibrator calibrator;
      const core::WorstCasePipeline calib_pipeline(
          *ex.grid, *ex.model, core::PipelineOptions{temporal});
      for (const int idx : ex.data.split.train) {
        core::PreparedRequest request;
        request.currents =
            ex.data.samples[static_cast<std::size_t>(idx)].currents;
        calib_pipeline.infer(request);
      }
      calibration = calibrator.result();
    }
    core::save_artifact_int8(*ex.model, temporal, calibration, int8_path);
    core::save_artifact_f16(*ex.model, temporal, f16_path);

    // Deviation on the held-out test split: every artifact is loaded back
    // through the container (the exact bytes a fleet would serve).
    const core::ModelArtifact fp32_art = core::load_artifact(fp32_path);
    const core::ModelArtifact int8_art = core::load_artifact(int8_path);
    const core::ModelArtifact f16_art = core::load_artifact(f16_path);
    const core::WorstCasePipeline fp32_pipe(
        *ex.grid, *fp32_art.model, core::PipelineOptions{fp32_art.temporal});
    const core::WorstCasePipeline int8_pipe(
        *ex.grid, *int8_art.model, core::PipelineOptions{int8_art.temporal});
    const core::WorstCasePipeline f16_pipe(
        *ex.grid, *f16_art.model, core::PipelineOptions{f16_art.temporal});

    Deviation int8_dev, f16_dev, truth_dev;
    for (const int idx : ex.data.split.test) {
      const auto& sample = ex.data.samples[static_cast<std::size_t>(idx)];
      core::PreparedRequest request;
      request.currents = sample.currents;
      const util::MapF fp32_map = fp32_pipe.infer(request);
      int8_dev.add(int8_pipe.infer(request), fp32_map);
      f16_dev.add(f16_pipe.infer(request), fp32_map);
      truth_dev.add(
          fp32_map,
          ex.raw.samples[static_cast<std::size_t>(sample.raw_index)].truth);
    }

    const bool design_ok =
        int8_dev.max_mv() <= budget_mv && f16_dev.max_mv() <= budget_mv;
    within_budget = within_budget && design_ok;
    std::printf(
        "%-6s %10.4f | %10.4f %10.4f | %10.4f %10.4f | %9.1f %9.1f %9.1f%s\n",
        spec.name.c_str(), truth_dev.mean_mv(), int8_dev.mean_mv(),
        int8_dev.max_mv(), f16_dev.mean_mv(), f16_dev.max_mv(),
        file_kb(fp32_path), file_kb(int8_path), file_kb(f16_path),
        design_ok ? "" : "  [OVER BUDGET]");

    obs::JsonValue row = obs::JsonValue::object();
    row.set("design", spec.name);
    row.set("fp32_vs_truth_mean_mv", truth_dev.mean_mv());
    row.set("int8_mean_ae_mv", int8_dev.mean_mv());
    row.set("int8_max_ae_mv", int8_dev.max_mv());
    row.set("fp16_mean_ae_mv", f16_dev.mean_mv());
    row.set("fp16_max_ae_mv", f16_dev.max_mv());
    row.set("fp32_kb", file_kb(fp32_path));
    row.set("int8_kb", file_kb(int8_path));
    row.set("fp16_kb", file_kb(f16_path));
    row.set("calibrated_layers",
            static_cast<std::int64_t>(calibration.activation_absmax.size()));
    row.set("within_budget", design_ok);
    metrics.add_design(std::move(row));
    metrics.lap("design." + spec.name);
  }

  metrics.set("within_budget", within_budget);
  metrics.finish();

  if (!within_budget) {
    std::printf("FAILED: quantized deviation exceeded %.3f mV budget\n",
                budget_mv);
    return 1;
  }
  std::printf("all designs within the %.3f mV budget\n", budget_mv);
  return 0;
}
