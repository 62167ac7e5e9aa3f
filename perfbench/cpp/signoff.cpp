// signoff: the paper's Table 2 "Proposed" path. One client calls serial fp32
// WorstCasePipeline::predict() on distinct seeded traces, interleaved across
// D1-D4, with a thread pool of 2. prepare() and one CNN pass do all the work.
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

/// setup_s is the first quartile of kSetupFirst set-ups before timing
/// starts and one after each side job, spread over the timed loop.
constexpr int kSetupFirst = 4;
constexpr int kPoolThreads = 2;
constexpr int kBatchCheckWidth = 8;
/// Timing windows are rows, one map of each design (about 10 ms). The
/// host's quiet moments last tens of milliseconds, so the 48 rows with the
/// lowest median (192 maps, a few percent of the run) find them in nearly
/// every run; a larger share mixes busy moments in and moves from run to
/// run with the host's busy share.
constexpr std::size_t kWindowMaps = 4;
constexpr std::size_t kQuietWindows = 48;

}  // namespace

Result run_signoff(const Options& opt, SpanLog& log) {
  Result r;
  util::ThreadPool::set_global_threads(kPoolThreads);

  // Fixture: calibrated designs and models trained from fixed seeds.
  BuildTotals totals;
  obs::set_enabled(opt.trace);
  const Fixture fx = make_fixture(opt.work_dir, /*with_int8=*/false, totals);
  obs::set_enabled(false);
  const int nd = static_cast<int>(fx.designs.size());

  std::vector<std::vector<vectors::CurrentTrace>> warm;
  for (int d = 0; d < nd; ++d) {
    warm.push_back(warmup_traces(*fx.designs[d].grid, d));
  }

  // Setup: grid, artifact and pipeline per design, then warm-up maps.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    std::vector<LoadedDesign> designs;
    const std::int64_t t0 = now_ns();
    for (int d = 0; d < nd; ++d) {
      designs.push_back(load_design(fx.designs[d].spec, fx.fp32_paths[d]));
      for (const vectors::CurrentTrace& w : warm[d]) {
        designs.back().pipeline->predict(w);
      }
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return designs;
  };
  std::vector<LoadedDesign> loaded;
  for (int rep = 0; rep < kSetupFirst; ++rep) loaded = set_up();

  std::vector<vectors::TestVectorGenerator> gens;
  std::vector<std::unique_ptr<StagedPredictor>> staged;
  for (int d = 0; d < nd; ++d) {
    gens.emplace_back(*loaded[d].grid, gen_params(),
                      stream_seed(opt.seed, 'S', d));
    staged.push_back(std::make_unique<StagedPredictor>(
        *loaded[d].grid, *loaded[d].artifact.model,
        loaded[d].artifact.temporal));
  }

  // Timed loop. The side jobs (golden references for the first maps, and
  // training probes), each followed by one more set-up, run between maps at
  // evenly spaced points of the timed budget. The traced run spends half
  // its time on the untraced twin of each map, so it times half as many.
  SideWork side(fx, opt.seed, 'S', opt.trace, totals);
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double side_every = budget / static_cast<double>(side.jobs() + 1);
  Ledger ledger(log);
  std::vector<std::vector<vectors::CurrentTrace>> ref_traces(
      static_cast<std::size_t>(nd));
  std::vector<std::vector<util::MapF>> ref_maps(static_cast<std::size_t>(nd));
  std::vector<double> latency_ms;
  double timed_s = 0.0;
  while (timed_s < budget || !side.done()) {
    for (int d = 0; d < nd; ++d) {
      vectors::CurrentTrace trace = gens[d].generate();
      double ms = 0.0;
      util::MapF map =
          ledger.predict(*loaded[d].pipeline, *staged[d], trace, r, &ms);
      timed_s += ms * 1e-3;
      latency_ms.push_back(ms);
      if (ref_traces[d].size() < static_cast<std::size_t>(kGoldenPerDesign)) {
        ref_traces[d].push_back(std::move(trace));
        ref_maps[d].push_back(std::move(map));
      }
    }
    if (!side.done() &&
        timed_s >= side_every * static_cast<double>(side.started() + 1)) {
      side.run_next();
      set_up();
    }
  }
  const auto maps = static_cast<std::int64_t>(latency_ms.size());
  r.attempted = maps;

  // Checks: the first maps of each design equal infer_batch at width 8,
  // and agree with the golden engine to within the sanity band.
  for (int d = 0; d < nd; ++d) {
    const core::WorstCasePipeline& pipeline = *loaded[d].pipeline;
    for (std::size_t b = 0; b < ref_traces[d].size(); b += kBatchCheckWidth) {
      std::vector<core::PreparedRequest> prepared;
      for (std::size_t i = b;
           i < ref_traces[d].size() && i < b + kBatchCheckWidth; ++i) {
        prepared.push_back(pipeline.prepare(ref_traces[d][i]));
      }
      std::vector<const core::PreparedRequest*> batch;
      for (const core::PreparedRequest& p : prepared) batch.push_back(&p);
      const std::vector<util::MapF> out = pipeline.infer_batch(batch);
      for (std::size_t i = 0; i < out.size(); ++i) {
        r.check(same_bytes(out[i], ref_maps[d][b + i]),
                fx.designs[d].spec.name + ": predict() differs from " +
                    "infer_batch at width " + std::to_string(batch.size()));
      }
    }
  }
  std::vector<util::MapF> predicted;
  std::vector<util::MapF> truth;
  for (int d = 0; d < nd; ++d) {
    predicted.insert(predicted.end(), ref_maps[d].begin(), ref_maps[d].end());
    truth.insert(truth.end(), side.truth(d).begin(), side.truth(d).end());
  }

  info("predict(): %zu maps in %zu windows of %zu, quietest %zu kept",
       latency_ms.size(), latency_ms.size() / kWindowMaps, kWindowMaps,
       kQuietWindows);
  report_serial(r, "predict()",
                quietest_windows(latency_ms, kWindowMaps, kQuietWindows));
  info("speedup (not gated): golden %.3f ms/vector / predict %.3f ms/map = "
       "%.1fx",
       side.golden_seconds_per_vector() * 1e3, 1e3 / r.metrics["maps_per_s"],
       side.golden_seconds_per_vector() * r.metrics["maps_per_s"]);

  r.set("setup_s", first_quartile(setup_s));
  r.set("peak_rss_mb", peak_rss_mb());
  report_mean_re(r, mean_re_pct(predicted, truth));
  totals.report_end_to_end(r);
  r.set("ok_pct", 100.0);
  if (opt.trace) {
    ledger.report(r);
    totals.report_layers(r);
    r.set("util.pool_busy_pct", 100.0 * ledger.pool_chunk_seconds() /
                                    (ledger.traced_seconds() * kPoolThreads));
    r.set("bench.trace_overhead_pct",
          overhead_pct(ledger.traced_seconds(), ledger.untraced_seconds()));
  }
  return r;
}

}  // namespace perfbench
