// Extension ablation (DESIGN.md §6): how much of the framework's accuracy
// comes from its structure? Compares, on the same golden data and split:
//   1. the proposed three-subnet model (learned temporal fusion + bump
//      distance features),
//   2. a plain map-to-map U-Net fed the *raw* per-tile temporal statistics
//      (max / mean / mu+3sigma) without the fusion subnet or distance input
//      (the [11]-style direct image-to-image approach).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "nn/optimizer.hpp"

namespace {

using namespace pdnn;

/// Raw temporal-statistics tensor [1, 3, m, n] for one sample (no learning
/// before the reduction — this is exactly what ablation 2 consumes).
nn::Tensor stats_tensor(const core::RawSample& sample, float scale) {
  const int rows = sample.truth.rows();
  const int cols = sample.truth.cols();
  const std::size_t tiles = static_cast<std::size_t>(rows) * cols;
  const double n = static_cast<double>(sample.current_maps.size());
  nn::Tensor t({1, 3, rows, cols});
  float* peak = t.data();
  float* mean = peak + tiles;
  float* msd = mean + tiles;
  std::vector<double> sq(tiles, 0.0);
  for (const util::MapF& m : sample.current_maps) {
    for (std::size_t i = 0; i < tiles; ++i) {
      const float v = m.storage()[i] / scale;
      peak[i] = std::max(peak[i], v);
      mean[i] += v;
      sq[i] += static_cast<double>(v) * v;
    }
  }
  for (std::size_t i = 0; i < tiles; ++i) {
    const double mu = mean[i] / n;
    const double var = std::max(0.0, sq[i] / n - mu * mu);
    mean[i] = static_cast<float>(mu);
    msd[i] = static_cast<float>(mu + 3.0 * std::sqrt(var));
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdnn::bench;

  util::ArgParser args("ablation_baselines",
                       "Ablation: proposed vs plain stats-map U-Net");
  add_common_flags(args);
  args.add_flag("design", "D1", "design to ablate on");
  if (!args.parse(argc, argv)) return 0;
  const ExperimentOptions options = options_from_args(args);
  RunMetrics metrics("ablation_baselines", args);

  // --- 1. Proposed framework ----------------------------------------------
  const pdn::DesignSpec base =
      pdn::design_by_name(args.get("design"), options.scale);
  const DesignExperiment ex = run_design_experiment(base, options);
  metrics.add_experiment(ex);

  // --- 2. Plain stats-map U-Net (no fusion subnet, no distance) ------------
  util::Rng rng(7);
  core::UNet2 plain(/*in=*/3, /*channels=*/16, /*out=*/1, rng);
  std::vector<nn::Tensor> inputs;
  inputs.reserve(ex.raw.samples.size());
  for (const auto& s : ex.raw.samples) {
    inputs.push_back(stats_tensor(s, ex.raw.current_scale));
  }
  obs::StageTimer plain_timer;
  {
    nn::Adam opt(plain.parameters(), options.lr);
    util::Rng shuffle_rng(13);
    std::vector<int> order = ex.data.split.train;
    const float decay =
        std::pow(0.02f, 1.0f / static_cast<float>(options.epochs));
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      if (epoch > 0) opt.set_learning_rate(opt.learning_rate() * decay);
      shuffle_rng.shuffle(order);
      for (int idx : order) {
        const int ri = ex.data.samples[static_cast<std::size_t>(idx)].raw_index;
        opt.zero_grad();
        nn::Var loss = nn::l1_loss(
            plain.forward(nn::Var(inputs[static_cast<std::size_t>(ri)])),
            ex.data.samples[static_cast<std::size_t>(idx)].target);
        loss.backward();
        opt.step();
      }
    }
  }
  const double plain_train_s = plain_timer.seconds();
  eval::MapEvaluator plain_eval(ex.spec.vdd);
  double plain_seconds = 0.0;
  for (int idx : ex.data.split.test) {
    const int ri = ex.data.samples[static_cast<std::size_t>(idx)].raw_index;
    obs::StageTimer t;
    nn::NoGradGuard guard;
    const nn::Var pred =
        plain.forward(nn::Var(inputs[static_cast<std::size_t>(ri)]));
    plain_seconds += t.seconds();
    plain_eval.add(core::tensor_to_map(pred.value(), ex.raw.vdd),
                   ex.raw.samples[static_cast<std::size_t>(ri)].truth);
  }
  plain_seconds /= static_cast<double>(ex.data.split.test.size());
  metrics.lap("plain-unet");

  // --- Report ---------------------------------------------------------------
  const auto pa = plain_eval.accuracy();
  if (metrics.enabled()) {
    obs::JsonValue p = obs::JsonValue::object();
    p.set("design", "plain-unet-baseline");
    p.set("train_seconds", plain_train_s);
    p.set("predict_seconds_per_vector", plain_seconds);
    p.set("mean_ae_mv", pa.mean_ae * 1e3);
    p.set("mean_re", pa.mean_re);
    metrics.add_design(std::move(p));
  }
  std::printf("Ablation on %s (scale=%s, %d vectors, %d epochs; plain U-Net "
              "train %.1fs)\n",
              ex.spec.name.c_str(), pdn::to_string(options.scale).c_str(),
              options.num_vectors, options.epochs, plain_train_s);
  std::printf("%-26s %10s %9s %8s %12s\n", "Model", "MAE(mV)", "MeanRE", "AUC",
              "runtime(s)");
  std::printf("%-26s %10.2f %8s %8.3f %12.4f\n", "Proposed (full)",
              ex.accuracy.mean_ae * 1e3, pct(ex.accuracy.mean_re).c_str(),
              ex.hotspots.auc, ex.proposed_seconds_per_vector);
  std::printf("%-26s %10.2f %8s %8.3f %12.4f\n", "Plain stats U-Net [11]-ish",
              pa.mean_ae * 1e3, pct(pa.mean_re).c_str(),
              plain_eval.hotspots().auc, plain_seconds);
  std::printf("\nExpected shape: the full framework (learned fusion + distance "
              "input) matches or beats the ablation in MAE/RE.\n");
  metrics.finish();
  return 0;
}
