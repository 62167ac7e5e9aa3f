// Reproduces Table 2: accuracy (mean/99%/max AE and RE), runtime of the
// proposed framework vs. the golden ("commercial") engine, speedup, and the
// hotspot missing rate, for all four designs.
//
// Ablations (DESIGN.md §6): --ablate-distance removes the bump-distance
// feature; --split random replaces the training-set expansion strategy.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pdnn;
  using namespace pdnn::bench;

  util::ArgParser args("table2_accuracy",
                       "Reproduce Table 2 (accuracy + runtime vs golden tool)");
  add_common_flags(args);
  args.add_flag("designs", "D1,D2,D3,D4", "comma-separated design list");
  if (!args.parse(argc, argv)) return 0;
  const ExperimentOptions options = options_from_args(args);
  RunMetrics metrics("table2_accuracy", args);
  metrics.set("scale", pdn::to_string(options.scale));
  metrics.set("vectors", options.num_vectors);
  metrics.set("epochs", options.epochs);

  std::printf(
      "Table 2: accuracy and run-time, proposed framework vs golden engine "
      "(scale=%s, %d vectors, %d epochs, r=%.2f%s%s)\n",
      pdn::to_string(options.scale).c_str(), options.num_vectors,
      options.epochs, options.compression_rate,
      options.ablate_distance ? ", distance ablated" : "",
      options.split == core::SplitStrategy::kRandom ? ", random split" : "");
  std::printf("%-7s %-9s | %-15s %-15s %-15s | %-11s %-13s %-8s | %s\n",
              "Design", "m x n", "Mean AE/RE", "99% AE/RE", "Max AE/RE",
              "Proposed(s)", "Commercial(s)", "Speedup", "HotspotMiss");

  for (const std::string& name : args.get_list("designs")) {
    const pdn::DesignSpec base = pdn::design_by_name(name, options.scale);
    const DesignExperiment ex = run_design_experiment(base, options);
    metrics.add_experiment(ex);

    char grid_str[32];
    std::snprintf(grid_str, sizeof(grid_str), "%dx%d", ex.spec.tile_rows,
                  ex.spec.tile_cols);
    std::printf(
        "%-7s %-9s | %6s/%-7s %6s/%-7s %6s/%-7s | %11.4f %13.3f %7.0fx | %s\n",
        ex.spec.name.c_str(), grid_str, mv(ex.accuracy.mean_ae).c_str(),
        pct(ex.accuracy.mean_re).c_str(), mv(ex.accuracy.p99_ae).c_str(),
        pct(ex.accuracy.p99_re).c_str(), mv(ex.accuracy.max_ae).c_str(),
        pct(ex.accuracy.max_re).c_str(), ex.proposed_seconds_per_vector,
        ex.commercial_seconds_per_vector, ex.speedup,
        pct(ex.hotspots.missing_rate).c_str());
    std::fflush(stdout);
  }

  std::printf(
      "\nPaper reference: mean RE 0.63-1.02%%, mean AE < 1mV, 99%% AE 2-3mV, "
      "speedup 25-69x, hotspot missing rate 0.28-1.95%%.\n"
      "Expected shape: ~1%%-level mean RE, >=1 order of magnitude speedup, "
      "~1%%-level missing rate.\n");
  metrics.finish();
  return 0;
}
