// Exercises the sharded serving fleet (serve/server.hpp) end to end: train a
// model, round-trip it through the PDNB artifact container (and the
// content-addressed store when one is configured), register it under
// several design names, and drive a closed-loop shard×client matrix —
// shard counts {1, S}, 1..N client threads, optionally a mid-run artifact
// hot-swap per design. Every served map is memcmp-verified against the
// serial pipeline: sharding, batching, and swapping must never change the
// bits, and any mismatch exits 1.
//
// The run also calibrates and writes an int8 PDNB v2 candidate from the
// same trained model and — when a cross-dtype canary tolerance is set via
// --serve-swap-tolerance-mv — hot-swaps it over the fp32 incumbent through
// the canary path and verifies the post-promote maps match the int8 serial
// bits.
//
// The driver reports bits and counts, not timings: a closed-loop row serves
// a handful of requests, too few for a stable rate or any tail. Saturation
// and latency are the repository benchmark's job (perfbench `fleet`).
#include <chrono>
#include <cstdio>
#include <cstring>
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

}  // namespace

int main(int argc, char** argv) {
  using namespace pdnn;

  util::ArgParser args("serve_throughput",
                       "Sharded serving fleet vs serial predict: closed-loop "
                       "bit-identity under sharding, batching and hot swap");
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

  // 2) One fixed request set, shared by every run.
  const int total_requests =
      serve_flags.clients * serve_flags.requests_per_client;
  vectors::TestVectorGenerator gen(*ex.grid, bench::gen_params_for(options),
                                   ex.spec.seed + 1);
  std::vector<vectors::CurrentTrace> traces;
  traces.reserve(static_cast<std::size_t>(total_requests));
  for (int i = 0; i < total_requests; ++i) traces.push_back(gen.generate());

  // 3) Single-client serial predict(): the reference bits for every fleet
  //    run.
  const core::WorstCasePipeline pipeline(
      *ex.grid, *artifact.model, core::PipelineOptions{artifact.temporal});
  std::vector<util::MapF> expected(static_cast<std::size_t>(total_requests));
  for (int i = 0; i < total_requests; ++i) {
    expected[static_cast<std::size_t>(i)] =
        pipeline.predict(traces[static_cast<std::size_t>(i)]);
  }

  metrics.lap("serial_baseline");
  metrics.set("hardware_threads",
              static_cast<std::int64_t>(std::thread::hardware_concurrency()));

  std::printf(
      "serve_throughput: design=%s requests=%d shards=%d designs=%d "
      "max_batch=%d swap=%d hw_threads=%u\n",
      ex.spec.name.c_str(), total_requests, serve_flags.options.num_shards,
      serve_flags.designs, serve_flags.options.max_batch,
      serve_flags.swap ? 1 : 0, std::thread::hardware_concurrency());
  std::printf("%-16s %7s %7s  %s\n", "mode", "batches", "width", "bits");
  std::printf("%-16s %7s %7s  %s\n", "serial", "-", "-", "reference");

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
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          // Client c owns the requests congruent to c mod `clients`,
          // spread round-robin over the registered designs. Each request's
          // client-side wall time feeds the bench.request_nanos histogram
          // of the telemetry sinks.
          for (int i = c; i < total_requests; i += clients) {
            const auto idx = static_cast<std::size_t>(i);
            const SteadyClock::time_point begin = SteadyClock::now();
            responses[idx] =
                server.predict(ids[idx % ids.size()], traces[idx]);
            obs::hist_record(
                obs::Hist::kBenchRequestNanos,
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    SteadyClock::now() - begin)
                    .count());
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
      bool drive_match = true;
      if (serve_flags.swap) {
        // A fast run can drain before the canary saw enough traffic; drive
        // any unresolved swap to its verdict with extra (still verified)
        // requests so the promote path always executes.
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
      const std::string mode = "serve:" + std::to_string(shards) + "x" +
                               std::to_string(clients);
      std::printf("%-16s %7lld %7lld  %s\n", mode.c_str(),
                  static_cast<long long>(stats.batches),
                  static_cast<long long>(stats.batch_width_max),
                  match ? "identical" : "MISMATCH");

      obs::JsonValue run = obs::JsonValue::object();
      run.set("mode", "closed_loop");
      run.set("shards", shards);
      run.set("clients", clients);
      run.set("batches", stats.batches);
      run.set("batch_width_max", stats.batch_width_max);
      run.set("queue_depth_max", stats.queue_depth_max);
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
    // Reference bits from the serial int8 pipeline.
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

  metrics.set("bit_identical", all_match);
  metrics.finish();
  if (swap_path != artifact_path) std::remove(swap_path.c_str());

  if (!all_match) {
    std::printf("FAILED: served maps diverged from serial predict()\n");
    return 1;
  }
  std::printf("all served maps bit-identical to serial predict()\n");
  return 0;
}
