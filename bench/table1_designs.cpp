// Reproduces Table 1: characteristics of the four designs — node count,
// load count, mean/max worst-case noise, and hotspot ratio — measured with
// the golden engine over a sample of random vectors.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "eval/metrics.hpp"

int main(int argc, char** argv) {
  using namespace pdnn;

  util::ArgParser args("table1_designs",
                       "Reproduce Table 1 (design characteristics)");
  args.add_flag("scale", "small", "experiment scale: small|medium|paper");
  args.add_flag("vectors", "8", "sample vectors per design");
  args.add_flag("steps", "80", "time steps per vector");
  bench::add_runtime_flags(args);
  if (!args.parse(argc, argv)) return 0;

  const auto scale = pdn::scale_from_string(args.get("scale"));
  const int num_vectors = args.get_int("vectors");
  bench::apply_runtime_flags(args);
  const bench::StoreFlags store_flags = bench::store_flags_from_args(args);
  const std::unique_ptr<store::Store> run_store =
      bench::open_store(store_flags.dir);

  bench::RunMetrics metrics("table1_designs", args);
  metrics.set("scale", pdn::to_string(scale));
  metrics.set("vectors", num_vectors);
  if (run_store) metrics.set("store_dir", run_store->directory());

  vectors::VectorGenParams gen_params;
  gen_params.num_steps = args.get_int("steps");

  std::printf("Table 1: Characteristics of designs in experiment (scale=%s)\n",
              pdn::to_string(scale).c_str());
  std::printf("%-7s %9s %9s %9s %12s %11s %9s\n", "Design", "#Node", "#Iload",
              "#Bumps", "MeanWN(mV)", "MaxWN(mV)", "Hotspot");

  for (const pdn::DesignSpec& base : pdn::all_designs(scale)) {
    const obs::CounterSnapshot before = obs::snapshot_counters();
    const pdn::DesignSpec spec = sim::calibrate_design(base, gen_params);
    const pdn::PowerGrid grid(spec);
    sim::TransientSimulator simulator(grid, {});
    vectors::TestVectorGenerator gen(grid, gen_params, spec.seed);
    metrics.lap("calibrate");

    // Mean/max worst-case noise and hotspot ratio across sample vectors,
    // evaluated per tile like the paper (threshold: 10% of Vdd = 1 V). The
    // dataset engine draws traces serially and replays them through the
    // batched solver — bit-identical at any batch width — and, with
    // --store-dir, serves warm vectors straight from the persistent store.
    const core::RawDataset ds = core::simulate_dataset(
        grid, simulator, gen, num_vectors, {}, 0, run_store.get());

    double mean_wn = 0.0;
    double max_wn = 0.0;
    std::int64_t hot = 0, tiles = 0;
    for (const core::RawSample& sample : ds.samples) {
      mean_wn += sample.truth.mean();
      max_wn = std::max(max_wn, static_cast<double>(sample.truth.max_value()));
      for (float n : sample.truth.storage()) {
        ++tiles;
        if (n >= 0.1 * spec.vdd) ++hot;
      }
    }
    mean_wn /= num_vectors;
    metrics.lap("simulate");

    const double hotspot_ratio =
        static_cast<double>(hot) / static_cast<double>(tiles);
    std::printf("%-7s %9d %9d %9zu %12.1f %11.1f %8.1f%%\n", spec.name.c_str(),
                grid.num_nodes(), spec.num_loads, grid.bumps().size(),
                mean_wn * 1e3, max_wn * 1e3, 100.0 * hotspot_ratio);
    std::fflush(stdout);

    if (metrics.enabled()) {
      obs::JsonValue d = obs::JsonValue::object();
      d.set("design", spec.name);
      d.set("nodes", grid.num_nodes());
      d.set("loads", spec.num_loads);
      d.set("bumps", static_cast<std::int64_t>(grid.bumps().size()));
      d.set("mean_wn_mv", mean_wn * 1e3);
      d.set("max_wn_mv", max_wn * 1e3);
      d.set("hotspot_ratio", hotspot_ratio);
      d.set("counters",
            obs::counters_json(before, obs::snapshot_counters()));
      metrics.add_design(std::move(d));
    }
  }

  std::printf(
      "\nPaper reference (commercial designs): D1 0.58M nodes/2.5k loads/"
      "100.4/131.7/56.3%%; D2 0.58M/16.9k/91.7/128.4/30.1%%;\n"
      "D3 2.67M/122.5k/127.1/290.7/57.5%%; D4 4.40M/810k/89.0/119.9/22.5%%.\n"
      "Synthetic designs preserve the orderings; node counts are scaled.\n");
  metrics.finish();
  return 0;
}
