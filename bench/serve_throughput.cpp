// Exercises the sharded serving fleet (serve/server.hpp) end to end: train a
// model, round-trip it through the PDNB artifact container (and the
// content-addressed store when one is configured), register it under
// several design names, and drive the fleet two ways:
//
//   1. Closed-loop verification — 1..N client threads, shard counts {1, S},
//      optionally a mid-run artifact hot-swap per design. Every served map
//      is memcmp-verified against the serial pipeline: sharding, batching,
//      and swapping must never change the bits.
//   2. Open-loop load generation — Poisson arrivals (seeded, exponential
//      gaps) over mixed-design traffic via the async submit()/wait() API,
//      at a ramp of offered rates. Arrivals never wait on completions, so
//      the fleet sees true offered load; the highest achieved goodput
//      across the ramp is reported as the saturation rate.
//
// The run also calibrates and writes an int8 PDNB v2 candidate from the
// same trained model and — when a cross-dtype canary tolerance is set via
// --serve-swap-tolerance-mv — hot-swaps it over the fp32 incumbent through
// the canary path and verifies the post-promote maps match the int8 serial
// bits.
//
// BENCH_serve.json gains `saturation_requests_per_second` plus per-rate rows
// with client-observed p50/p95/p99; the CI gate reads the saturation figure.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/artifact.hpp"
#include "quant/calibrate.hpp"
#include "quant/dtype.hpp"
#include "serve/server.hpp"
#include "util/io.hpp"

namespace {

using SteadyClock = std::chrono::steady_clock;

bool maps_equal(const pdnn::util::MapF& a, const pdnn::util::MapF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Client-observed wall-latency summary over one run, in ms. Percentiles
/// are exact (rank ceil(q·n) of the sorted samples), not histogram-bucketed
/// — the per-run sample counts are small.
struct LatencySummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

LatencySummary summarize_latency_ms(std::vector<std::int64_t> nanos) {
  LatencySummary s;
  if (nanos.empty()) return s;
  std::sort(nanos.begin(), nanos.end());
  const auto n = static_cast<double>(nanos.size());
  const auto at = [&](double q) {
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::min(std::max<std::size_t>(rank, 1), nanos.size());
    return static_cast<double>(nanos[rank - 1]) * 1e-6;
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  s.max = static_cast<double>(nanos.back()) * 1e-6;
  double sum = 0.0;
  for (const std::int64_t v : nanos) sum += static_cast<double>(v);
  s.mean = sum / n * 1e-6;
  return s;
}

pdnn::obs::JsonValue latency_json(const LatencySummary& s) {
  pdnn::obs::JsonValue j = pdnn::obs::JsonValue::object();
  j.set("p50", s.p50);
  j.set("p95", s.p95);
  j.set("p99", s.p99);
  j.set("max", s.max);
  j.set("mean", s.mean);
  return j;
}

/// One open-loop run at a fixed offered rate.
struct OpenLoopResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  ///< kOk goodput over the run's wall time
  double seconds = 0.0;
  int ok = 0;
  int overloaded = 0;
  int other = 0;  ///< timeouts/shutdowns (none expected here)
  bool bit_identical = true;
  LatencySummary latency;
};

/// Drive `total` Poisson arrivals at `offered_rps` through submit()/wait().
/// Submitter threads claim arrival slots from a shared cursor and sleep
/// until each slot's scheduled time — submission never waits on a
/// completion, so a saturated fleet sees queue growth and sheds load
/// instead of silently slowing the generator (closed-loop coordination
/// omission). Waiter threads redeem tickets in stripe order; a waiter
/// measures each request's wall latency from its *scheduled arrival*, so
/// queueing delay at saturation is included.
OpenLoopResult run_open_loop(
    pdnn::serve::NoiseServer& server,
    const std::vector<pdnn::serve::DesignId>& ids,
    const std::vector<pdnn::vectors::CurrentTrace>& traces,
    const std::vector<pdnn::util::MapF>& expected, double offered_rps,
    int total, int threads, std::uint64_t seed) {
  using namespace pdnn;
  OpenLoopResult result;
  result.offered_rps = offered_rps;

  // Deterministic arrival schedule: exponential inter-arrival gaps at the
  // offered rate, fixed seed per run so re-runs are comparable.
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(offered_rps);
  std::vector<double> due_s(static_cast<std::size_t>(total));
  double t = 0.0;
  for (int i = 0; i < total; ++i) {
    t += gap(rng);
    due_s[static_cast<std::size_t>(i)] = t;
  }

  std::vector<serve::Ticket> tickets(static_cast<std::size_t>(total));
  std::vector<std::atomic<bool>> submitted(static_cast<std::size_t>(total));
  for (auto& f : submitted) f.store(false, std::memory_order_relaxed);
  std::vector<std::int64_t> latency_ns(static_cast<std::size_t>(total), 0);
  std::vector<serve::Status> statuses(static_cast<std::size_t>(total),
                                      serve::Status::kInvalid);
  std::atomic<int> mismatches{0};
  std::atomic<int> cursor{0};

  const SteadyClock::time_point start = SteadyClock::now();
  const auto due_at = [&](int i) {
    return start + std::chrono::duration_cast<SteadyClock::duration>(
                       std::chrono::duration<double>(
                           due_s[static_cast<std::size_t>(i)]));
  };

  std::vector<std::thread> submitters;
  for (int w = 0; w < threads; ++w) {
    submitters.emplace_back([&] {
      for (;;) {
        const int i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        const auto idx = static_cast<std::size_t>(i);
        std::this_thread::sleep_until(due_at(i));
        tickets[idx] = server.submit(ids[idx % ids.size()],
                                     traces[idx % traces.size()]);
        submitted[idx].store(true, std::memory_order_release);
      }
    });
  }
  std::vector<std::thread> waiters;
  for (int w = 0; w < threads; ++w) {
    waiters.emplace_back([&, w] {
      for (int i = w; i < total; i += threads) {
        const auto idx = static_cast<std::size_t>(i);
        while (!submitted[idx].load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        const serve::Response r = server.wait(tickets[idx]);
        latency_ns[idx] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              SteadyClock::now() - due_at(i))
                              .count();
        statuses[idx] = r.status;
        if (r.status == serve::Status::kOk &&
            !maps_equal(r.noise, expected[idx % expected.size()])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        obs::hist_record(obs::Hist::kBenchRequestNanos, latency_ns[idx]);
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  for (std::thread& th : waiters) th.join();
  result.seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();

  std::vector<std::int64_t> ok_latency;
  for (int i = 0; i < total; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    switch (statuses[idx]) {
      case serve::Status::kOk:
        ++result.ok;
        ok_latency.push_back(latency_ns[idx]);
        break;
      case serve::Status::kOverloaded:
        ++result.overloaded;
        break;
      default:
        ++result.other;
        break;
    }
  }
  result.achieved_rps =
      result.seconds > 0.0 ? result.ok / result.seconds : 0.0;
  result.bit_identical = mismatches.load(std::memory_order_relaxed) == 0;
  result.latency = summarize_latency_ms(std::move(ok_latency));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdnn;

  util::ArgParser args("serve_throughput",
                       "Sharded serving fleet vs serial predict: closed-loop "
                       "verification + open-loop saturation search");
  bench::add_common_flags(args);
  bench::add_serve_flags(args);
  args.add_flag("design", "D3", "design to serve: D1|D2|D3|D4");
  args.add_flag("artifact", "serve_model.pdnb",
                "artifact container path (written, then served from)");
  if (!args.parse(argc, argv)) return 0;

  bench::ExperimentOptions options = bench::options_from_args(args);
  // The fleet is exercised with a cheaply trained model — throughput and
  // bit-identicality do not depend on accuracy.
  if (args.get_int("vectors") <= 0) options.num_vectors = 12;
  if (args.get_int("epochs") <= 0) options.epochs = 6;
  const bench::ServeFlags serve_flags = bench::serve_flags_from_args(args);
  const std::string artifact_path = args.get("artifact");

  bench::RunMetrics metrics("serve_throughput", args);
  metrics.set("design", args.get("design"));
  metrics.set("clients", serve_flags.clients);
  metrics.set("requests_per_client", serve_flags.requests_per_client);
  metrics.set("max_batch", serve_flags.options.max_batch);
  metrics.set("shards", serve_flags.options.num_shards);
  metrics.set("designs", serve_flags.designs);
  metrics.set("swap", serve_flags.swap);

  // 1) Train a model for the design, then round-trip it through the
  //    artifact container exactly as a deployment would.
  const pdn::DesignSpec base =
      pdn::design_by_name(args.get("design"), options.scale);
  bench::DesignExperiment ex = bench::run_design_experiment(base, options);
  metrics.add_experiment(ex);

  core::TemporalCompressionOptions temporal;
  temporal.rate = options.compression_rate;
  temporal.rate_step = options.rate_step;
  core::save_artifact(*ex.model, temporal, artifact_path);
  const core::ModelArtifact artifact = core::load_artifact(artifact_path);

  // Int8 candidate built from the same trained model: calibrate activation
  // ranges on the training split, then write the PDNB v2 artifact.
  const std::string int8_path = artifact_path + ".int8";
  {
    quant::ActivationCalibrator calibrator;
    const core::WorstCasePipeline calib_pipe(
        *ex.grid, *ex.model, core::PipelineOptions{temporal});
    for (const int idx : ex.data.split.train) {
      core::PreparedRequest request;
      request.currents =
          ex.data.samples[static_cast<std::size_t>(idx)].currents;
      calib_pipe.infer(request);
    }
    core::save_artifact_int8(*ex.model, temporal, calibrator.result(),
                             int8_path);
  }

  // Startup artifact report straight from the headers — peek_artifact reads
  // version/dtype/config without touching the weight payload.
  for (const std::string& path : {artifact_path, int8_path}) {
    const core::ModelArtifact head = core::peek_artifact(path);
    std::printf("artifact: %s v%u dtype=%s tiles=%dx%d\n", path.c_str(),
                head.version, quant::dtype_name(head.dtype),
                head.config.tile_rows, head.config.tile_cols);
  }
  metrics.set("artifact_version", static_cast<std::int64_t>(
                                      core::peek_artifact(artifact_path).version));
  metrics.set("artifact_dtype",
              quant::dtype_name(core::peek_artifact(artifact_path).dtype));
  metrics.set("artifact_int8_version",
              static_cast<std::int64_t>(core::peek_artifact(int8_path).version));
  metrics.set("artifact_int8_dtype",
              quant::dtype_name(core::peek_artifact(int8_path).dtype));

  // Swap candidates are fetched from the content-addressed store when one
  // is configured (the artifact-distribution path a real fleet would use);
  // otherwise the PDNB file itself is the swap source.
  std::string swap_path = artifact_path;
  const bench::StoreFlags store_flags = bench::store_flags_from_args(args);
  if (const auto store = bench::open_store(store_flags.dir)) {
    const std::uint64_t key = store->put_file(artifact_path);
    swap_path = artifact_path + ".fetched";
    if (!store->get_file(key, swap_path)) {
      std::printf("FAILED: published artifact %s missing from store\n",
                  store::Store::key_hex(key).c_str());
      return 1;
    }
    metrics.set("artifact_key", store::Store::key_hex(key));
  }
  metrics.lap("artifact");

  // 2) One fixed request set, shared by every run so rates are comparable.
  const int total_requests =
      serve_flags.clients * serve_flags.requests_per_client;
  vectors::TestVectorGenerator gen(*ex.grid, bench::gen_params_for(options),
                                   ex.spec.seed + 1);
  std::vector<vectors::CurrentTrace> traces;
  traces.reserve(static_cast<std::size_t>(total_requests));
  for (int i = 0; i < total_requests; ++i) traces.push_back(gen.generate());

  // 3) Two single-client baselines, measured on one thread:
  //      serial      — the redesigned predict(): cached distance reduction,
  //                    the reference bits for every fleet run.
  //      serial-seed — the pre-artifact per-request flow, which re-reduced
  //                    the distance tensor through subnet 1 on every call.
  const core::WorstCasePipeline pipeline(
      *ex.grid, *artifact.model, core::PipelineOptions{artifact.temporal});
  std::vector<util::MapF> expected(static_cast<std::size_t>(total_requests));
  pipeline.predict(traces.front());  // warm-up (thread pool, scratch)
  obs::StageTimer serial_timer;
  for (int i = 0; i < total_requests; ++i) {
    expected[static_cast<std::size_t>(i)] =
        pipeline.predict(traces[static_cast<std::size_t>(i)]);
  }
  const double serial_seconds = serial_timer.lap("bench.serve_serial");
  const double serial_rps = total_requests / serial_seconds;

  serial_timer.reset();
  {
    nn::NoGradGuard no_grad;
    const nn::Var dist{pipeline.distance()};
    for (int i = 0; i < total_requests; ++i) {
      const core::PreparedRequest req =
          pipeline.prepare(traces[static_cast<std::size_t>(i)]);
      artifact.model->forward(dist, nn::Var(req.currents));
    }
  }
  const double seed_seconds = serial_timer.lap("bench.serve_serial_seed");
  const double seed_rps = total_requests / seed_seconds;

  metrics.lap("serial_baseline");
  metrics.set("serial_requests_per_second", serial_rps);
  metrics.set("serial_seed_requests_per_second", seed_rps);
  metrics.set("hardware_threads",
              static_cast<std::int64_t>(std::thread::hardware_concurrency()));

  std::printf(
      "serve_throughput: design=%s requests=%d shards=%d designs=%d "
      "max_batch=%d swap=%d hw_threads=%u\n",
      ex.spec.name.c_str(), total_requests, serve_flags.options.num_shards,
      serve_flags.designs, serve_flags.options.max_batch,
      serve_flags.swap ? 1 : 0, std::thread::hardware_concurrency());
  std::printf("%-16s %10s %10s %8s %7s %7s %7s %7s %7s\n", "mode", "seconds",
              "req/s", "speedup", "batches", "p50ms", "p95ms", "p99ms",
              "maxms");
  std::printf("%-16s %10.4f %10.2f %8s %7s %7s %7s %7s %7s\n", "serial-seed",
              seed_seconds, seed_rps, "-", "-", "-", "-", "-", "-");
  std::printf("%-16s %10.4f %10.2f %8s %7s %7s %7s %7s %7s\n", "serial",
              serial_seconds, serial_rps, "1.00", "-", "-", "-", "-", "-");

  // 4) Closed-loop verification: shard counts {1, S} × client counts, mixed
  //    designs, optional mid-run hot-swap. Every map must match the serial
  //    bits.
  std::vector<int> shard_counts{1};
  if (serve_flags.options.num_shards > 1) {
    shard_counts.push_back(serve_flags.options.num_shards);
  }
  std::vector<int> client_counts{1};
  if (serve_flags.clients > 2) client_counts.push_back(serve_flags.clients / 2);
  if (serve_flags.clients > 1) client_counts.push_back(serve_flags.clients);
  bool all_match = true;
  double best_speedup = 0.0;
  for (const int shards : shard_counts) {
    for (const int clients : client_counts) {
      serve::ServeOptions server_options = serve_flags.options;
      server_options.num_shards = shards;
      serve::NoiseServer server(server_options);
      std::vector<serve::DesignId> ids;
      for (int d = 0; d < serve_flags.designs; ++d) {
        ids.push_back(server.add_design(
            ex.spec.name + "#" + std::to_string(d), *ex.grid,
            core::load_artifact(artifact_path)));
      }

      std::vector<serve::Response> responses(
          static_cast<std::size_t>(total_requests));
      std::vector<std::int64_t> latency_ns(
          static_cast<std::size_t>(total_requests), 0);
      obs::StageTimer timer;
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          // Client c owns the requests congruent to c mod `clients`,
          // spread round-robin over the registered designs. Wall latency
          // is measured on the client's side of the queue.
          for (int i = c; i < total_requests; i += clients) {
            const auto idx = static_cast<std::size_t>(i);
            const SteadyClock::time_point begin = SteadyClock::now();
            responses[idx] =
                server.predict(ids[idx % ids.size()], traces[idx]);
            const std::int64_t ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    SteadyClock::now() - begin)
                    .count();
            latency_ns[idx] = ns;
            obs::hist_record(obs::Hist::kBenchRequestNanos, ns);
          }
        });
      }
      if (serve_flags.swap) {
        // Hot-swap every design to a bit-identical candidate while the
        // clients hammer it: the canary must stay clean and no request may
        // be dropped, duplicated, or corrupted.
        for (const serve::DesignId id : ids) {
          server.swap_artifact(id, swap_path);
        }
      }
      for (std::thread& w : workers) w.join();
      const double seconds = timer.lap("bench.serve_run");
      bool drive_match = true;
      if (serve_flags.swap) {
        // A fast run can drain before the canary saw enough traffic; drive
        // any unresolved swap to its verdict with extra (untimed, still
        // verified) requests so the promote path always executes.
        for (std::size_t d = 0; d < ids.size(); ++d) {
          for (int extra = 0; extra < 4 * serve_flags.options.canary_requests &&
                              server.swap_report(ids[d]).state ==
                                  serve::SwapState::kCanarying;
               ++extra) {
            const auto t = static_cast<std::size_t>(extra) % traces.size();
            const serve::Response r = server.predict(ids[d], traces[t]);
            if (r.status != serve::Status::kOk ||
                !maps_equal(r.noise, expected[t])) {
              drive_match = false;
            }
          }
        }
      }
      std::vector<serve::SwapReport> swaps;
      for (const serve::DesignId id : ids) {
        swaps.push_back(server.swap_report(id));
      }
      server.shutdown();
      const LatencySummary latency = summarize_latency_ms(latency_ns);

      bool match = drive_match;
      for (int i = 0; i < total_requests; ++i) {
        const serve::Response& r = responses[static_cast<std::size_t>(i)];
        if (r.status != serve::Status::kOk ||
            !maps_equal(r.noise, expected[static_cast<std::size_t>(i)])) {
          match = false;
          std::printf("MISMATCH: request %d status=%s\n", i,
                      serve::to_string(r.status));
        }
      }
      for (const serve::SwapReport& swap : swaps) {
        if (swap.diverged > 0) {
          match = false;
          std::printf("MISMATCH: identical-artifact canary diverged\n");
        }
      }
      all_match = all_match && match;

      const serve::NoiseServer::Stats stats = server.stats();
      const double rps = total_requests / seconds;
      const double speedup = rps / serial_rps;
      best_speedup = std::max(best_speedup, speedup);
      const std::string mode = "serve:" + std::to_string(shards) + "x" +
                               std::to_string(clients);
      std::printf(
          "%-16s %10.4f %10.2f %7.2fx %7lld %7.2f %7.2f %7.2f %7.2f%s\n",
          mode.c_str(), seconds, rps, speedup,
          static_cast<long long>(stats.batches), latency.p50, latency.p95,
          latency.p99, latency.max, match ? "" : "  [MISMATCH]");

      obs::JsonValue run = obs::JsonValue::object();
      run.set("mode", "closed_loop");
      run.set("shards", shards);
      run.set("clients", clients);
      run.set("seconds", seconds);
      run.set("requests_per_second", rps);
      run.set("speedup_vs_serial", speedup);
      run.set("speedup_vs_serial_seed", rps / seed_rps);
      run.set("batches", stats.batches);
      run.set("batch_width_max", stats.batch_width_max);
      run.set("queue_depth_max", stats.queue_depth_max);
      run.set("latency_ms", latency_json(latency));
      if (serve_flags.swap) {
        obs::JsonValue sj = obs::JsonValue::array();
        for (const serve::SwapReport& swap : swaps) {
          obs::JsonValue one = obs::JsonValue::object();
          one.set("state", serve::to_string(swap.state));
          one.set("canaried", swap.canaried);
          one.set("diverged", swap.diverged);
          sj.push(std::move(one));
        }
        run.set("swaps", std::move(sj));
      }
      if (obs::enabled()) {
        // Server-side per-design breakdown (telemetry-only): completed
        // count and the deterministic end-to-end latency histogram.
        const serve::NoiseServer::DesignStats ds =
            server.design_stats(ids.front());
        obs::JsonValue dj = obs::JsonValue::object();
        dj.set("design", ds.name);
        dj.set("completed", ds.completed);
        dj.set("request_nanos", ds.request_nanos.to_json());
        run.set("design_stats", std::move(dj));
      }
      run.set("bit_identical", match);
      metrics.add_design(std::move(run));
    }
  }
  metrics.lap("closed_loop");

  // 5) Cross-dtype hot-swap: with a canary tolerance configured, promote
  //    the int8 candidate over the fp32 incumbent through the canary path.
  //    During the canary the fp32 incumbent answers; after promotion the
  //    responses must be the int8 pipeline's exact bits, and the recorded
  //    divergence must sit inside the tolerance (else the canary would have
  //    rolled it back).
  if (serve_flags.options.swap_tolerance_volts > 0.0 &&
      serve_flags.options.canary_fraction > 0.0 &&
      serve_flags.options.canary_requests > 0) {
    bool swap_ok = true;
    serve::NoiseServer server(serve_flags.options);
    const serve::DesignId id = server.add_design(
        ex.spec.name + "#xdtype", *ex.grid, core::load_artifact(artifact_path));
    server.swap_artifact(id, int8_path);
    const int drive_cap = 16 * serve_flags.options.canary_requests;
    for (int i = 0; i < drive_cap && server.swap_report(id).state ==
                                        serve::SwapState::kCanarying;
         ++i) {
      server.predict(id, traces[static_cast<std::size_t>(i) % traces.size()]);
    }
    const serve::SwapReport report = server.swap_report(id);
    if (report.state != serve::SwapState::kPromoted) swap_ok = false;
    // Untimed reference bits from the serial int8 pipeline.
    const core::ModelArtifact int8_artifact = core::load_artifact(int8_path);
    const core::WorstCasePipeline int8_pipeline(
        *ex.grid, *int8_artifact.model,
        core::PipelineOptions{int8_artifact.temporal});
    for (int i = 0; i < 4 && swap_ok; ++i) {
      const auto t = static_cast<std::size_t>(i);
      const serve::Response r = server.predict(id, traces[t]);
      if (r.status != serve::Status::kOk ||
          !maps_equal(r.noise, int8_pipeline.predict(traces[t]))) {
        swap_ok = false;
      }
    }
    server.shutdown();
    std::printf(
        "%-16s state=%s canaried=%d diverged=%d max_div=%.4fmV "
        "tol=%.4fmV%s\n",
        "swap:fp32->int8", serve::to_string(report.state), report.canaried,
        report.diverged, report.max_divergence_volts * 1e3,
        serve_flags.options.swap_tolerance_volts * 1e3,
        swap_ok ? "" : "  [MISMATCH]");
    if (!swap_ok) {
      std::printf(
          "MISMATCH: cross-dtype swap did not promote to the int8 bits\n");
    }
    all_match = all_match && swap_ok;

    obs::JsonValue run = obs::JsonValue::object();
    run.set("mode", "cross_dtype_swap");
    run.set("state", serve::to_string(report.state));
    run.set("canaried", report.canaried);
    run.set("diverged", report.diverged);
    run.set("max_divergence_mv", report.max_divergence_volts * 1e3);
    run.set("tolerance_mv", serve_flags.options.swap_tolerance_volts * 1e3);
    run.set("promoted_bits_match_int8_serial", swap_ok);
    metrics.add_design(std::move(run));
    metrics.lap("cross_dtype_swap");
  }

  // 6) Open-loop saturation search: ramp the offered rate (doubling per
  //    level) and record goodput + client-observed latency at each level.
  //    Saturation = the highest achieved goodput anywhere on the ramp.
  const double first_rate = serve_flags.open_rate > 0.0
                                ? serve_flags.open_rate
                                : std::max(1.0, 0.5 * serial_rps);
  const int open_total = total_requests;
  const int open_threads = std::min(serve_flags.clients, 8);
  double saturation_rps = 0.0;
  LatencySummary saturation_latency;
  bool open_match = true;
  std::printf("%-16s %10s %10s %8s %7s %7s %7s %7s %7s\n", "open-loop",
              "offered", "goodput", "ok", "shed", "p50ms", "p95ms", "p99ms",
              "maxms");
  {
    serve::NoiseServer server(serve_flags.options);
    std::vector<serve::DesignId> ids;
    for (int d = 0; d < serve_flags.designs; ++d) {
      ids.push_back(server.add_design(ex.spec.name + "#" + std::to_string(d),
                                      *ex.grid,
                                      core::load_artifact(artifact_path)));
    }
    double rate = first_rate;
    for (int step = 0; step < serve_flags.ramp_steps; ++step, rate *= 2.0) {
      const OpenLoopResult r = run_open_loop(
          server, ids, traces, expected, rate, open_total, open_threads,
          /*seed=*/0x9e3779b9u + static_cast<std::uint64_t>(step));
      open_match = open_match && r.bit_identical;
      if (r.achieved_rps > saturation_rps) {
        saturation_rps = r.achieved_rps;
        saturation_latency = r.latency;
      }
      std::printf(
          "%-16s %10.2f %10.2f %8d %7d %7.2f %7.2f %7.2f %7.2f%s\n",
          ("rate:" + std::to_string(step)).c_str(), r.offered_rps,
          r.achieved_rps, r.ok, r.overloaded, r.latency.p50, r.latency.p95,
          r.latency.p99, r.latency.max,
          r.bit_identical ? "" : "  [MISMATCH]");

      obs::JsonValue run = obs::JsonValue::object();
      run.set("mode", "open_loop");
      run.set("offered_requests_per_second", r.offered_rps);
      run.set("achieved_requests_per_second", r.achieved_rps);
      run.set("seconds", r.seconds);
      run.set("ok", r.ok);
      run.set("overloaded", r.overloaded);
      run.set("other", r.other);
      run.set("latency_ms", latency_json(r.latency));
      run.set("bit_identical", r.bit_identical);
      metrics.add_design(std::move(run));
    }
    server.shutdown();
  }
  all_match = all_match && open_match;
  metrics.lap("open_loop");

  metrics.set("bit_identical", all_match);
  metrics.set("best_speedup_vs_serial", best_speedup);
  metrics.set("saturation_requests_per_second", saturation_rps);
  metrics.set("latency_ms", latency_json(saturation_latency));
  metrics.finish();
  if (swap_path != artifact_path) std::remove(swap_path.c_str());

  // The concurrency wins (overlapped prepare, pool-parallel batched
  // prediction passes, parallel shards) need real cores; a single-CPU host
  // is compute-bound on the CNN in both paths and can only show the
  // amortization margin.
  if (std::thread::hardware_concurrency() <= 1 && best_speedup < 2.0) {
    std::printf(
        "note: single hardware thread — batching amortization only; the "
        ">=2x concurrent-serving speedup needs a multi-core host\n");
  }

  if (!all_match) {
    std::printf("FAILED: served maps diverged from serial predict()\n");
    return 1;
  }
  std::printf(
      "all served maps bit-identical to serial predict(); saturation %.2f "
      "req/s\n",
      saturation_rps);
  return 0;
}
