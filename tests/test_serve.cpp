// Concurrent inference-fleet tests. Suite names start with "Serve" or
// "Swap" so the TSan CI job picks them up alongside the ThreadPool/
// Parallel/Obs suites.
//
// The load-bearing property: a served prediction is byte-for-byte identical
// to the serial pipeline at every shard count, client count, and batch
// width — including across a mid-run artifact hot-swap. The rest exercises
// the robustness paths deterministically via pause()/resume(): a paused
// fleet lets tests fill a bounded shard queue (overload), expire deadlines
// (timeout), and stack requests for the shutdown drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "quant/calibrate.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "vectors/generator.hpp"

namespace pdnn {
namespace {

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 6;
  s.tile_cols = 6;
  s.nodes_per_tile = 2;
  s.top_stride = 3;
  s.bump_pitch = 2;
  s.num_loads = 14;
  s.unit_current = 5e-3;
  s.seed = 41;
  return s;
}

bool maps_equal(const util::MapF& a, const util::MapF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Grid + randomly initialized model + traces; accuracy is irrelevant to
/// the serving semantics under test.
struct Fixture {
  pdn::PowerGrid grid{tiny_spec()};
  core::ModelConfig config;
  std::unique_ptr<core::WorstCaseNoiseNet> model;
  core::TemporalCompressionOptions temporal;
  std::vector<vectors::CurrentTrace> traces;

  explicit Fixture(int num_traces) {
    config.distance_channels = static_cast<int>(grid.bumps().size());
    config.tile_rows = 6;
    config.tile_cols = 6;
    config.init_seed = 7;
    model = std::make_unique<core::WorstCaseNoiseNet>(config);
    temporal.rate = 0.25;
    vectors::VectorGenParams params;
    params.num_steps = 24;
    vectors::TestVectorGenerator gen(grid, params, 99);
    traces.reserve(static_cast<std::size_t>(num_traces));
    for (int i = 0; i < num_traces; ++i) traces.push_back(gen.generate());
  }

  core::ModelArtifact artifact() const {
    // Unique per test process: ctest runs the discovered tests in parallel.
    const std::string path =
        testing::TempDir() + "serve_fixture_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".pdnb";
    core::save_artifact(*model, temporal, path);
    core::ModelArtifact art = core::load_artifact(path);
    std::remove(path.c_str());
    return art;
  }

  core::WorstCasePipeline pipeline() const {
    return core::WorstCasePipeline(grid, *model,
                                   core::PipelineOptions{temporal});
  }

  /// Persist `m` as a PDNB file swap_artifact() can load; caller removes it.
  std::string artifact_file(core::WorstCaseNoiseNet& m,
                            const std::string& tag) const {
    const std::string path =
        testing::TempDir() + "serve_swap_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        tag + ".pdnb";
    core::save_artifact(m, temporal, path);
    return path;
  }

  /// Persist an int8-quantized artifact of `model`, calibrated by replaying
  /// this fixture's traces; caller removes the file.
  std::string int8_artifact_file(const std::string& tag) const {
    const std::string path =
        testing::TempDir() + "serve_swap_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        tag + ".int8.pdnb";
    quant::CalibrationResult calibration;
    {
      quant::ActivationCalibrator calibrator;
      const core::WorstCasePipeline calib = pipeline();
      for (const auto& trace : traces) calib.predict(trace);
      calibration = calibrator.result();
    }
    core::save_artifact_int8(*model, temporal, calibration, path);
    return path;
  }

  /// A model with different weights (fresh init seed) — its outputs diverge
  /// from `model`'s, which is exactly what a canary must catch.
  std::unique_ptr<core::WorstCaseNoiseNet> divergent_model() const {
    core::ModelConfig other = config;
    other.init_seed = config.init_seed + 1;
    return std::make_unique<core::WorstCaseNoiseNet>(other);
  }

  /// Wait (bounded) for `pred` to become true while the server is paused.
  template <typename Pred>
  static bool eventually(Pred pred) {
    for (int i = 0; i < 2000; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }
};

TEST(ServePipeline, BatchWidthDoesNotChangeBits) {
  Fixture f(5);
  const core::WorstCasePipeline pipeline = f.pipeline();
  std::vector<core::PreparedRequest> prepared;
  std::vector<util::MapF> serial;
  for (const auto& trace : f.traces) {
    prepared.push_back(pipeline.prepare(trace));
    serial.push_back(pipeline.infer(prepared.back()));
  }
  for (const int width : {2, 5}) {
    for (std::size_t begin = 0; begin + width <= prepared.size(); ++begin) {
      std::vector<const core::PreparedRequest*> batch;
      for (int i = 0; i < width; ++i) batch.push_back(&prepared[begin + i]);
      const std::vector<util::MapF> fused = pipeline.infer_batch(batch);
      for (int i = 0; i < width; ++i) {
        EXPECT_TRUE(maps_equal(fused[static_cast<std::size_t>(i)],
                               serial[begin + static_cast<std::size_t>(i)]))
            << "width " << width << " request "
            << begin + static_cast<std::size_t>(i);
      }
    }
  }
}

TEST(ServeServer, MatchesSerialPredictAtEveryClientCount) {
  Fixture f(8);
  const core::WorstCasePipeline pipeline = f.pipeline();
  std::vector<util::MapF> expected;
  for (const auto& trace : f.traces) {
    expected.push_back(pipeline.predict(trace));
  }

  for (const int clients : {1, 4, 8}) {
    serve::NoiseServer server;
    const serve::DesignId id =
        server.add_design("tiny", f.grid, f.artifact());
    std::vector<serve::Response> responses(f.traces.size());
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < f.traces.size();
             i += static_cast<std::size_t>(clients)) {
          responses[i] = server.predict(id, f.traces[i]);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    server.shutdown();

    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_EQ(responses[i].status, serve::Status::kOk) << "client count "
                                                         << clients;
      EXPECT_TRUE(maps_equal(responses[i].noise, expected[i]))
          << "request " << i << " at " << clients << " clients";
      EXPECT_GE(responses[i].batch_width, 1);
      EXPECT_GT(responses[i].kept_steps, 0);
    }
  }
}

TEST(ServeServer, OverloadedWhenBoundedQueueIsFull) {
  Fixture f(3);
  serve::ServeOptions options;
  options.queue_capacity = 2;
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());

  server.pause();  // nothing dequeues: the third concurrent request must
                   // bounce off the full queue instead of growing it
  std::vector<serve::Response> responses(3);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      const auto idx = static_cast<std::size_t>(i);
      responses[idx] = server.predict(id, f.traces[idx]);
    });
  }
  ASSERT_TRUE(Fixture::eventually([&] {
    return server.stats().overloads == 1 && server.queue_depth() == 2;
  }));
  server.resume();
  for (std::thread& c : clients) c.join();
  server.shutdown();

  int ok = 0, overloaded = 0;
  for (const serve::Response& r : responses) {
    if (r.status == serve::Status::kOk) ++ok;
    if (r.status == serve::Status::kOverloaded) ++overloaded;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(overloaded, 1);
  EXPECT_EQ(server.stats().overloads, 1);
  EXPECT_EQ(server.stats().completed, 2);
}

TEST(ServeServer, DeadlinePassedInQueueTimesOut) {
  Fixture f(1);
  serve::NoiseServer server;
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());

  server.pause();
  serve::Response response;
  std::thread client([&] {
    response = server.predict(id, f.traces.front(), /*deadline_seconds=*/1e-3);
  });
  ASSERT_TRUE(Fixture::eventually([&] { return server.queue_depth() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.resume();  // by now the deadline has passed; the worker must reject
  client.join();
  server.shutdown();

  EXPECT_EQ(response.status, serve::Status::kTimedOut);
  EXPECT_GT(response.queue_seconds, 0.0);
  EXPECT_EQ(server.stats().timeouts, 1);
  EXPECT_EQ(server.stats().completed, 0);
}

TEST(ServeServer, ShutdownDrainsQueuedRequestsThenRejects) {
  Fixture f(3);
  serve::NoiseServer server;
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());

  server.pause();
  std::vector<serve::Response> responses(3);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      const auto idx = static_cast<std::size_t>(i);
      responses[idx] = server.predict(id, f.traces[idx]);
    });
  }
  ASSERT_TRUE(Fixture::eventually([&] { return server.queue_depth() == 3; }));
  server.shutdown();  // graceful: everything queued is still served
  for (std::thread& c : clients) c.join();

  for (const serve::Response& r : responses) {
    EXPECT_EQ(r.status, serve::Status::kOk);
  }
  EXPECT_EQ(server.stats().completed, 3);

  const serve::Response after = server.predict(id, f.traces.front());
  EXPECT_EQ(after.status, serve::Status::kShutdown);
}

TEST(ServeServer, StatsAndStatusStrings) {
  Fixture f(4);
  serve::ServeOptions options;
  options.max_batch = 2;
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  for (const auto& trace : f.traces) {
    EXPECT_EQ(server.predict(id, trace).status, serve::Status::kOk);
  }
  server.shutdown();

  const serve::NoiseServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 4);
  EXPECT_EQ(stats.completed, 4);
  EXPECT_GE(stats.batches, 2);  // one client: widths 1..2 with max_batch 2
  EXPECT_LE(stats.batch_width_max, 2);
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_EQ(stats.overloads, 0);

  EXPECT_STREQ(serve::to_string(serve::Status::kOk), "ok");
  EXPECT_STREQ(serve::to_string(serve::Status::kOverloaded), "overloaded");
  EXPECT_STREQ(serve::to_string(serve::Status::kTimedOut), "timed_out");
  EXPECT_STREQ(serve::to_string(serve::Status::kShutdown), "shutdown");
}

TEST(ServeTelemetry, ResponsesCarryUniqueIdsAndDesignStatsAccrueWhenEnabled) {
  Fixture f(6);
  obs::set_enabled(true);
  obs::reset_histograms();
  serve::NoiseServer server;
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());

  std::vector<std::int64_t> ids;
  for (const auto& trace : f.traces) {
    const serve::Response r = server.predict(id, trace);
    EXPECT_EQ(r.status, serve::Status::kOk);
    ids.push_back(r.request_id);
  }
  server.shutdown();

  // Request ids are positive and strictly increasing for a single client
  // (the counter is process-global and monotonic).
  EXPECT_GT(ids.front(), 0);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_GT(ids[i], ids[i - 1]) << "request ids must be unique";
  }

  // Per-design breakdown and the global serve histograms both saw all six
  // requests.
  const serve::NoiseServer::DesignStats ds = server.design_stats(id);
  EXPECT_EQ(ds.name, "tiny");
  EXPECT_EQ(ds.completed, 6);
  EXPECT_EQ(ds.request_nanos.count(), 6);
  EXPECT_GT(ds.request_nanos.min(), 0);
  EXPECT_EQ(obs::hist_merged(obs::Hist::kServeRequestNanos).count(), 6);
  EXPECT_EQ(obs::hist_merged(obs::Hist::kServePrepareNanos).count(), 6);
  EXPECT_GE(obs::hist_merged(obs::Hist::kServeBatchWidth).count(), 1);

  obs::set_enabled(false);
  obs::reset_histograms();
}

TEST(ServeTelemetry, DisabledInstrumentationStillAssignsIdsButNoStats) {
  obs::set_enabled(false);
  Fixture f(3);
  serve::NoiseServer server;
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  std::int64_t last_id = 0;
  for (const auto& trace : f.traces) {
    const serve::Response r = server.predict(id, trace);
    EXPECT_EQ(r.status, serve::Status::kOk);
    EXPECT_GT(r.request_id, last_id);
    last_id = r.request_id;
  }
  server.shutdown();

  // Telemetry-only state must stay untouched when instrumentation is off.
  const serve::NoiseServer::DesignStats ds = server.design_stats(id);
  EXPECT_EQ(ds.completed, 0);
  EXPECT_TRUE(ds.request_nanos.empty());
}

TEST(ServeServer, RejectsUnknownDesignAndPeekedArtifacts) {
  Fixture f(1);
  serve::NoiseServer server;
  EXPECT_THROW(server.predict(serve::DesignId{3}, f.traces.front()),
               util::CheckError);
  EXPECT_THROW(server.predict(serve::DesignId{}, f.traces.front()),
               util::CheckError);

  // An artifact that was only peeked has no model to serve.
  const std::string path = testing::TempDir() + "serve_peeked.pdnb";
  core::save_artifact(*f.model, f.temporal, path);
  core::ModelArtifact peeked = core::peek_artifact(path);
  std::remove(path.c_str());
  EXPECT_THROW(server.add_design("tiny", f.grid, std::move(peeked)),
               util::CheckError);
}

TEST(ServeServer, DefaultResponseAndTicketAreInvalidUntilServed) {
  const serve::Response response;
  EXPECT_EQ(response.status, serve::Status::kInvalid);
  EXPECT_EQ(response.shard, -1);
  EXPECT_STREQ(serve::to_string(serve::Status::kInvalid), "invalid");

  serve::Ticket ticket;
  EXPECT_FALSE(ticket.valid());
  EXPECT_EQ(ticket.request_id(), 0);

  const serve::DesignId unset;
  EXPECT_FALSE(unset.valid());
}

TEST(ServeServer, SubmitThenWaitMatchesSerialAndConsumesTickets) {
  Fixture f(6);
  const core::WorstCasePipeline pipeline = f.pipeline();
  std::vector<util::MapF> expected;
  for (const auto& trace : f.traces) {
    expected.push_back(pipeline.predict(trace));
  }

  serve::NoiseServer server;
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  // Open-loop: all submissions land before the first wait, so later
  // requests ride fused batches without any client blocking on earlier
  // completions.
  std::vector<serve::Ticket> tickets;
  for (const auto& trace : f.traces) {
    tickets.push_back(server.submit(id, trace));
    ASSERT_TRUE(tickets.back().valid());
    EXPECT_GT(tickets.back().request_id(), 0);
  }
  for (std::size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_GT(tickets[i].request_id(), tickets[i - 1].request_id());
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const serve::Response r = server.wait(tickets[i]);
    EXPECT_FALSE(tickets[i].valid()) << "wait() must consume the ticket";
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_EQ(r.request_id, tickets[i].request_id());
    EXPECT_TRUE(maps_equal(r.noise, expected[i])) << "request " << i;
  }
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 6);

  serve::Ticket spent;
  EXPECT_THROW(server.wait(spent), util::CheckError);
}

TEST(ServeServer, DefaultDeadlineAppliesAndExplicitNonPositiveDisables) {
  Fixture f(2);
  serve::ServeOptions options;
  options.default_deadline_seconds = 1e-3;
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());

  server.pause();
  // First request inherits the 1 ms default; the second explicitly disables
  // its deadline, so only the first may expire while the fleet is paused.
  serve::Ticket with_default = server.submit(id, f.traces[0]);
  serve::Ticket no_deadline = server.submit(id, f.traces[1], 0.0);
  ASSERT_TRUE(Fixture::eventually([&] { return server.queue_depth() == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.resume();

  EXPECT_EQ(server.wait(with_default).status, serve::Status::kTimedOut);
  EXPECT_EQ(server.wait(no_deadline).status, serve::Status::kOk);
  server.shutdown();
  EXPECT_EQ(server.stats().timeouts, 1);
}

TEST(ServeFleet, ShardAndClientCountsNeverChangeServedBytes) {
  Fixture f(8);
  const core::WorstCasePipeline pipeline = f.pipeline();
  std::vector<util::MapF> expected;
  for (const auto& trace : f.traces) {
    expected.push_back(pipeline.predict(trace));
  }

  constexpr int kDesigns = 3;
  for (const int shards : {1, 2, 4}) {
    for (const int clients : {1, 8}) {
      serve::ServeOptions options;
      options.num_shards = shards;
      serve::NoiseServer server(options);
      std::vector<serve::DesignId> ids;
      for (int d = 0; d < kDesigns; ++d) {
        ids.push_back(server.add_design("design" + std::to_string(d), f.grid,
                                        f.artifact()));
        const int shard = server.shard_of(ids.back());
        EXPECT_GE(shard, 0);
        EXPECT_LT(shard, shards);
      }

      const std::size_t total = kDesigns * f.traces.size();
      std::vector<serve::Response> responses(total);
      std::vector<std::thread> workers;
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          for (std::size_t i = static_cast<std::size_t>(c); i < total;
               i += static_cast<std::size_t>(clients)) {
            const std::size_t d = i / f.traces.size();
            const std::size_t t = i % f.traces.size();
            responses[i] = server.predict(ids[d], f.traces[t]);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      server.shutdown();

      // Any worker may serve any design, so a response names the worker
      // that served it, and each worker's completions count exactly those.
      std::vector<std::int64_t> served(static_cast<std::size_t>(shards), 0);
      for (std::size_t i = 0; i < total; ++i) {
        const std::size_t t = i % f.traces.size();
        ASSERT_EQ(responses[i].status, serve::Status::kOk)
            << shards << " shards, " << clients << " clients";
        EXPECT_TRUE(maps_equal(responses[i].noise, expected[t]))
            << "request " << i << " at " << shards << " shards, " << clients
            << " clients";
        ASSERT_GE(responses[i].shard, 0);
        ASSERT_LT(responses[i].shard, shards);
        ++served[static_cast<std::size_t>(responses[i].shard)];
      }
      for (int s = 0; s < shards; ++s) {
        EXPECT_EQ(served[static_cast<std::size_t>(s)],
                  server.shard_stats(s).totals.completed)
            << "shard " << s << " at " << shards << " shards, " << clients
            << " clients";
        EXPECT_EQ(server.shard_queue_depth(s), 0);
      }
      EXPECT_EQ(server.stats().completed, static_cast<std::int64_t>(total));
    }
  }
}

TEST(ServeFleet, ShardingIsStableAcrossServersAndOverloadIsPerShard) {
  Fixture f(1);
  serve::ServeOptions options;
  options.num_shards = 4;
  options.queue_capacity = 1;
  serve::NoiseServer server(options);
  serve::NoiseServer other(options);
  std::vector<serve::DesignId> ids;
  for (int d = 0; d < 8; ++d) {
    ids.push_back(server.add_design("d" + std::to_string(d), f.grid,
                                    f.artifact()));
    // The home shard depends only on (shard count, design id): a second
    // fleet queues the same design on the same shard.
    other.add_design("d" + std::to_string(d), f.grid, f.artifact());
    EXPECT_EQ(server.shard_of(ids.back()), other.shard_of(ids.back()));
  }
  other.shutdown();

  // Saturate one design's shard; a design on a *different* shard must still
  // be admitted (its queue is independent).
  serve::DesignId victim = ids[0];
  serve::DesignId bystander{};
  for (const serve::DesignId id : ids) {
    if (server.shard_of(id) != server.shard_of(victim)) {
      bystander = id;
      break;
    }
  }
  ASSERT_TRUE(bystander.valid()) << "8 designs on 4 shards must spread";

  server.pause();
  serve::Ticket queued = server.submit(victim, f.traces[0]);
  serve::Ticket bounced = server.submit(victim, f.traces[0]);
  serve::Ticket admitted = server.submit(bystander, f.traces[0]);
  EXPECT_EQ(server.shard_queue_depth(server.shard_of(victim)), 1);
  EXPECT_EQ(server.shard_queue_depth(server.shard_of(bystander)), 1);
  server.resume();

  EXPECT_EQ(server.wait(bounced).status, serve::Status::kOverloaded);
  EXPECT_EQ(server.wait(queued).status, serve::Status::kOk);
  EXPECT_EQ(server.wait(admitted).status, serve::Status::kOk);
  server.shutdown();
  EXPECT_EQ(server.stats().overloads, 1);
}

TEST(SwapServer, IdenticalCandidateCanariesCleanlyThenPromotes) {
  Fixture f(8);
  const core::WorstCasePipeline pipeline = f.pipeline();
  serve::ServeOptions options;
  options.canary_fraction = 1.0;
  options.canary_requests = 3;
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  const std::string path = f.artifact_file(*f.model, "same");

  serve::SwapReport report = server.swap_artifact(id, path);
  EXPECT_EQ(report.state, serve::SwapState::kCanarying);
  EXPECT_EQ(server.swap_report(id).state, serve::SwapState::kCanarying);

  // The incumbent answers every request while the canary runs, and the
  // candidate is bit-identical, so every comparison is clean.
  for (const auto& trace : f.traces) {
    const serve::Response r = server.predict(id, trace);
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_TRUE(maps_equal(r.noise, pipeline.predict(trace)));
  }
  ASSERT_TRUE(Fixture::eventually([&] {
    return server.swap_report(id).state == serve::SwapState::kPromoted;
  }));
  report = server.swap_report(id);
  EXPECT_GE(report.canaried, 3);
  EXPECT_EQ(report.diverged, 0);
  server.shutdown();
  std::remove(path.c_str());

  EXPECT_STREQ(serve::to_string(serve::SwapState::kNone), "none");
  EXPECT_STREQ(serve::to_string(serve::SwapState::kCanarying), "canarying");
  EXPECT_STREQ(serve::to_string(serve::SwapState::kPromoted), "promoted");
  EXPECT_STREQ(serve::to_string(serve::SwapState::kRolledBack),
               "rolled_back");
}

TEST(SwapServer, DivergentCandidateRollsBackAndIncumbentKeepsServing) {
  Fixture f(8);
  const core::WorstCasePipeline pipeline = f.pipeline();
  serve::ServeOptions options;
  options.canary_fraction = 1.0;
  options.canary_requests = 100;  // can only resolve via divergence
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  const std::string path = f.artifact_file(*f.divergent_model(), "diverged");

  EXPECT_EQ(server.swap_artifact(id, path).state,
            serve::SwapState::kCanarying);
  for (const auto& trace : f.traces) {
    const serve::Response r = server.predict(id, trace);
    ASSERT_EQ(r.status, serve::Status::kOk);
    // Clients never see candidate bytes, before or after the rollback.
    EXPECT_TRUE(maps_equal(r.noise, pipeline.predict(trace)));
  }
  ASSERT_TRUE(Fixture::eventually([&] {
    return server.swap_report(id).state == serve::SwapState::kRolledBack;
  }));
  const serve::SwapReport report = server.swap_report(id);
  EXPECT_GE(report.diverged, 1);
  EXPECT_GE(report.canaried, report.diverged);
  EXPECT_GT(report.max_divergence_volts, 0.0);  // the tolerance it needed

  const serve::Response after = server.predict(id, f.traces.front());
  ASSERT_EQ(after.status, serve::Status::kOk);
  EXPECT_TRUE(maps_equal(after.noise, pipeline.predict(f.traces.front())));
  server.shutdown();
  std::remove(path.c_str());
}

TEST(SwapServer, RetrainedCandidatePromotesWithinTolerance) {
  // A same-dtype candidate with different weights, as a retrained model
  // has, is judged by the same tolerance as a cross-dtype one.
  Fixture f(8);
  const core::WorstCasePipeline incumbent = f.pipeline();
  const std::unique_ptr<core::WorstCaseNoiseNet> next = f.divergent_model();
  const core::WorstCasePipeline retrained(f.grid, *next,
                                          core::PipelineOptions{f.temporal});
  double true_divergence = 0.0;
  std::vector<util::MapF> expected_next;
  for (const auto& trace : f.traces) {
    const util::MapF old_map = incumbent.predict(trace);
    expected_next.push_back(retrained.predict(trace));
    for (std::size_t i = 0; i < old_map.size(); ++i) {
      true_divergence = std::max(
          true_divergence,
          std::abs(static_cast<double>(old_map.data()[i]) -
                   static_cast<double>(expected_next.back().data()[i])));
    }
  }
  ASSERT_GT(true_divergence, 0.0);

  serve::ServeOptions options;
  options.canary_fraction = 1.0;
  options.canary_requests = 3;
  options.swap_tolerance_volts = true_divergence * 2.0;
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  const std::string path = f.artifact_file(*next, "retrained");
  EXPECT_EQ(server.swap_artifact(id, path).state,
            serve::SwapState::kCanarying);
  for (std::size_t i = 0; i < f.traces.size(); ++i) {
    const serve::Response r = server.predict(id, f.traces[i]);
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_TRUE(maps_equal(r.noise, incumbent.predict(f.traces[i])) ||
                maps_equal(r.noise, expected_next[i]))
        << "request " << i;
  }
  ASSERT_TRUE(Fixture::eventually([&] {
    return server.swap_report(id).state == serve::SwapState::kPromoted;
  }));
  const serve::SwapReport report = server.swap_report(id);
  EXPECT_EQ(report.diverged, 0);
  EXPECT_GE(report.canaried, 3);
  EXPECT_GT(report.max_divergence_volts, 0.0);
  EXPECT_LE(report.max_divergence_volts, options.swap_tolerance_volts);

  const serve::Response after = server.predict(id, f.traces.front());
  ASSERT_EQ(after.status, serve::Status::kOk);
  EXPECT_TRUE(maps_equal(after.noise, expected_next.front()));
  server.shutdown();
  std::remove(path.c_str());
}

TEST(SwapServer, DisabledCanaryPromotesImmediately) {
  Fixture f(2);
  serve::ServeOptions options;
  options.canary_fraction = 0.0;
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());

  const std::unique_ptr<core::WorstCaseNoiseNet> next = f.divergent_model();
  const std::string path = f.artifact_file(*next, "direct");
  EXPECT_EQ(server.swap_artifact(id, path).state,
            serve::SwapState::kPromoted);
  std::remove(path.c_str());

  // With the canary disabled the new artifact serves right away.
  const core::WorstCasePipeline promoted(
      f.grid, *next, core::PipelineOptions{f.temporal});
  const serve::Response r = server.predict(id, f.traces.front());
  ASSERT_EQ(r.status, serve::Status::kOk);
  EXPECT_TRUE(maps_equal(r.noise, promoted.predict(f.traces.front())));
  server.shutdown();
}

TEST(SwapServer, CrossDtypeSwapRequiresExplicitTolerance) {
  Fixture f(4);
  serve::ServeOptions options;
  options.canary_fraction = 1.0;  // canary on, but swap_tolerance_volts == 0
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  const std::string path = f.int8_artifact_file("untol");
  try {
    server.swap_artifact(id, path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fp32"), std::string::npos) << what;
    EXPECT_NE(what.find("int8"), std::string::npos) << what;
    EXPECT_NE(what.find("tolerance"), std::string::npos) << what;
  }
  // The rejected swap left the incumbent untouched and serving.
  EXPECT_EQ(server.swap_report(id).state, serve::SwapState::kNone);
  EXPECT_EQ(server.predict(id, f.traces.front()).status, serve::Status::kOk);
  server.shutdown();
  std::remove(path.c_str());
}

TEST(SwapServer, CrossDtypeCanaryPromotesWithinToleranceThenServesInt8Bits) {
  Fixture f(8);
  const core::WorstCasePipeline fp32_pipeline = f.pipeline();
  const std::string path = f.int8_artifact_file("promote");

  // Serial int8 reference: the post-promote fleet must reproduce these
  // bytes, and the canary tolerance is derived from the actual divergence.
  const core::ModelArtifact int8_artifact = core::load_artifact(path);
  const core::WorstCasePipeline int8_pipeline(
      f.grid, *int8_artifact.model, core::PipelineOptions{f.temporal});
  double true_divergence = 0.0;
  std::vector<util::MapF> expected_int8;
  for (const auto& trace : f.traces) {
    const util::MapF fp32 = fp32_pipeline.predict(trace);
    expected_int8.push_back(int8_pipeline.predict(trace));
    const util::MapF& int8 = expected_int8.back();
    for (std::size_t i = 0; i < fp32.size(); ++i) {
      true_divergence = std::max(
          true_divergence, std::abs(static_cast<double>(fp32.data()[i]) -
                                    static_cast<double>(int8.data()[i])));
    }
  }
  ASSERT_GT(true_divergence, 0.0) << "int8 candidate should not be "
                                     "bit-identical to the fp32 incumbent";

  serve::ServeOptions options;
  options.canary_fraction = 1.0;
  options.canary_requests = 3;
  options.swap_tolerance_volts = true_divergence * 2.0;
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  EXPECT_EQ(server.swap_artifact(id, path).state,
            serve::SwapState::kCanarying);

  // Every response is exactly one of the two models' bytes: the fp32
  // incumbent while canarying, the int8 candidate once promoted mid-loop.
  for (std::size_t i = 0; i < f.traces.size(); ++i) {
    const serve::Response r = server.predict(id, f.traces[i]);
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_TRUE(maps_equal(r.noise, fp32_pipeline.predict(f.traces[i])) ||
                maps_equal(r.noise, expected_int8[i]))
        << "request " << i << " returned neither incumbent nor candidate "
        << "bytes";
  }
  ASSERT_TRUE(Fixture::eventually([&] {
    return server.swap_report(id).state == serve::SwapState::kPromoted;
  }));
  const serve::SwapReport report = server.swap_report(id);
  EXPECT_EQ(report.diverged, 0);
  EXPECT_GE(report.canaried, 3);
  EXPECT_GT(report.max_divergence_volts, 0.0);
  EXPECT_LE(report.max_divergence_volts, options.swap_tolerance_volts);

  // Post-promote responses are byte-identical to the serial int8 pipeline.
  for (std::size_t i = 0; i < f.traces.size(); ++i) {
    const serve::Response r = server.predict(id, f.traces[i]);
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_TRUE(maps_equal(r.noise, expected_int8[i])) << "request " << i;
  }
  server.shutdown();
  std::remove(path.c_str());
}

TEST(SwapServer, CrossDtypeDivergenceBeyondToleranceRollsBack) {
  Fixture f(6);
  const core::WorstCasePipeline fp32_pipeline = f.pipeline();
  const std::string path = f.int8_artifact_file("rollback");

  serve::ServeOptions options;
  options.canary_fraction = 1.0;
  options.canary_requests = 100;  // can only resolve via divergence
  options.swap_tolerance_volts = 1e-12;  // quantization error dwarfs this
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  EXPECT_EQ(server.swap_artifact(id, path).state,
            serve::SwapState::kCanarying);

  for (const auto& trace : f.traces) {
    const serve::Response r = server.predict(id, trace);
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_TRUE(maps_equal(r.noise, fp32_pipeline.predict(trace)));
  }
  ASSERT_TRUE(Fixture::eventually([&] {
    return server.swap_report(id).state == serve::SwapState::kRolledBack;
  }));
  const serve::SwapReport report = server.swap_report(id);
  EXPECT_GE(report.diverged, 1);
  EXPECT_GT(report.max_divergence_volts, options.swap_tolerance_volts);

  // The fp32 incumbent keeps serving its exact bytes after the rollback.
  const serve::Response after = server.predict(id, f.traces.front());
  ASSERT_EQ(after.status, serve::Status::kOk);
  EXPECT_TRUE(
      maps_equal(after.noise, fp32_pipeline.predict(f.traces.front())));
  server.shutdown();
  std::remove(path.c_str());
}

TEST(SwapUnderLoad, NeverDropsDuplicatesOrCorruptsRequests) {
  Fixture f(8);
  const core::WorstCasePipeline pipeline = f.pipeline();
  std::vector<util::MapF> expected;
  for (const auto& trace : f.traces) {
    expected.push_back(pipeline.predict(trace));
  }

  serve::ServeOptions options;
  options.num_shards = 2;
  options.canary_fraction = 1.0;
  options.canary_requests = 2;
  serve::NoiseServer server(options);
  constexpr int kDesigns = 2;
  std::vector<serve::DesignId> ids;
  for (int d = 0; d < kDesigns; ++d) {
    ids.push_back(server.add_design("d" + std::to_string(d), f.grid,
                                    f.artifact()));
  }
  const std::string path = f.artifact_file(*f.model, "load");

  // 8 clients hammer both designs while the main thread hot-swaps each
  // design to a bit-identical candidate mid-run.
  constexpr int kClients = 8;
  const std::size_t per_client = f.traces.size() * kDesigns;
  std::vector<serve::Response> responses(kClients * per_client);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t d = i % kDesigns;
        const std::size_t t = i % f.traces.size();
        responses[static_cast<std::size_t>(c) * per_client + i] =
            server.predict(ids[d], f.traces[t]);
      }
    });
  }
  for (const serve::DesignId id : ids) {
    EXPECT_EQ(server.swap_artifact(id, path).state,
              serve::SwapState::kCanarying);
  }
  for (std::thread& c : clients) c.join();
  server.shutdown();
  std::remove(path.c_str());

  // Exactly one terminal response per submission, every byte correct.
  std::vector<std::int64_t> seen_ids;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::size_t t = (i % per_client) % f.traces.size();
    ASSERT_EQ(responses[i].status, serve::Status::kOk) << "request " << i;
    EXPECT_TRUE(maps_equal(responses[i].noise, expected[t]))
        << "request " << i << " diverged across the hot-swap";
    seen_ids.push_back(responses[i].request_id);
  }
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_TRUE(std::adjacent_find(seen_ids.begin(), seen_ids.end()) ==
              seen_ids.end())
      << "a request was answered twice";
  EXPECT_EQ(server.stats().completed,
            static_cast<std::int64_t>(responses.size()));
  for (const serve::DesignId id : ids) {
    const serve::SwapReport report = server.swap_report(id);
    EXPECT_EQ(report.diverged, 0);
    EXPECT_NE(report.state, serve::SwapState::kRolledBack);
  }
}

TEST(SwapUnderLoad, StolenBatchesKeepTheirGeneration) {
  // At 2 shards ids 0 and 2 both have shard 0 as home and id 1 gets no
  // traffic, so every batch worker 1 runs is taken from shard 0's queue.
  // A direct swap of id 0 mid-run must still answer each request with the
  // generation it was prepared against, and never touch id 2's bytes.
  Fixture f(8);
  const core::WorstCasePipeline old_pipeline = f.pipeline();
  const std::unique_ptr<core::WorstCaseNoiseNet> next = f.divergent_model();
  const core::WorstCasePipeline new_pipeline(
      f.grid, *next, core::PipelineOptions{f.temporal});
  std::vector<util::MapF> old_maps;
  std::vector<util::MapF> new_maps;
  for (const auto& trace : f.traces) {
    old_maps.push_back(old_pipeline.predict(trace));
    new_maps.push_back(new_pipeline.predict(trace));
  }

  serve::ServeOptions options;
  options.num_shards = 2;
  options.canary_fraction = 0.0;  // swap_artifact() promotes directly
  serve::NoiseServer server(options);
  std::vector<serve::DesignId> ids;
  for (int d = 0; d < 3; ++d) {
    ids.push_back(server.add_design("d" + std::to_string(d), f.grid,
                                    f.artifact()));
  }
  ASSERT_EQ(server.shard_of(ids[0]), 0);
  ASSERT_EQ(server.shard_of(ids[2]), 0);
  const std::string path = f.artifact_file(*next, "stolen");

  // Request k of a client goes to id 0 when k is even, id 2 when odd.
  constexpr int kClients = 8;
  constexpr std::size_t kPerClient = 32;
  std::vector<serve::Response> responses(kClients * kPerClient);
  std::vector<char> after_swap(responses.size(), 0);
  std::atomic<bool> swapped{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const std::size_t at = static_cast<std::size_t>(c) * kPerClient + k;
        after_swap[at] = swapped.load() ? 1 : 0;
        responses[at] = server.predict(ids[k % 2 == 0 ? 0 : 2],
                                       f.traces[(k / 2) % f.traces.size()]);
      }
    });
  }
  // Swap mid-run, once kPerClient requests have been answered.
  EXPECT_TRUE(Fixture::eventually([&] {
    return server.stats().completed >= static_cast<std::int64_t>(kPerClient);
  }));
  EXPECT_EQ(server.swap_artifact(ids[0], path).state,
            serve::SwapState::kPromoted);
  swapped.store(true);
  for (std::thread& c : clients) c.join();
  server.shutdown();
  std::remove(path.c_str());

  std::size_t submitted_after = 0;
  std::vector<std::int64_t> seen_ids;
  for (std::size_t at = 0; at < responses.size(); ++at) {
    const std::size_t k = at % kPerClient;
    const std::size_t t = (k / 2) % f.traces.size();
    const serve::Response& r = responses[at];
    ASSERT_EQ(r.status, serve::Status::kOk) << "request " << at;
    seen_ids.push_back(r.request_id);
    if (k % 2 == 1) {
      EXPECT_TRUE(maps_equal(r.noise, old_maps[t]))
          << "request " << at << " to id 2 got another generation";
    } else if (after_swap[at]) {
      ++submitted_after;
      EXPECT_TRUE(maps_equal(r.noise, new_maps[t]))
          << "request " << at << " submitted after the swap got old bytes";
    } else {
      EXPECT_TRUE(maps_equal(r.noise, old_maps[t]) ||
                  maps_equal(r.noise, new_maps[t]))
          << "request " << at << " matched neither generation";
    }
  }
  EXPECT_GT(submitted_after, 0u);
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_TRUE(std::adjacent_find(seen_ids.begin(), seen_ids.end()) ==
              seen_ids.end())
      << "a request was answered twice";
  EXPECT_EQ(server.stats().completed,
            static_cast<std::int64_t>(responses.size()));
  EXPECT_EQ(server.shard_stats(1).totals.requests, 0);
  EXPECT_GT(server.shard_stats(1).totals.completed, 0)
      << "worker 1 never took a batch from shard 0's queue";
}

TEST(SwapUnderLoad, StolenBatchesCanaryExactlyCanaryRequests) {
  // The canaried variant. While the fleet is paused, the first request of
  // every client queues on shard 0, all for id 0; on resume both workers
  // take a batch of id 0 at once. The canaries the first batch picked are
  // reserved, so the second picks none and exactly canary_requests
  // comparisons run.
  Fixture f(8);
  const core::WorstCasePipeline pipeline = f.pipeline();
  std::vector<util::MapF> expected;
  for (const auto& trace : f.traces) {
    expected.push_back(pipeline.predict(trace));
  }
  obs::set_enabled(true);
  const obs::CounterSnapshot before = obs::snapshot_counters();

  constexpr int kClients = 8;
  serve::ServeOptions options;
  options.num_shards = 2;
  options.max_batch = kClients / 2;  // the queued requests make 2 batches
  options.canary_fraction = 1.0;
  options.canary_requests = 2;
  serve::NoiseServer server(options);
  std::vector<serve::DesignId> ids;
  for (int d = 0; d < 3; ++d) {
    ids.push_back(server.add_design("d" + std::to_string(d), f.grid,
                                    f.artifact()));
  }
  const std::string path = f.artifact_file(*f.model, "canary");

  server.pause();
  constexpr std::size_t kPerClient = 16;
  std::vector<serve::Response> responses(kClients * kPerClient);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t k = 0; k < kPerClient; ++k) {
        responses[static_cast<std::size_t>(c) * kPerClient + k] =
            server.predict(ids[k % 2 == 0 ? 0 : 2],
                           f.traces[(k / 2) % f.traces.size()]);
      }
    });
  }
  EXPECT_TRUE(Fixture::eventually(
      [&] { return server.shard_queue_depth(0) == kClients; }));
  EXPECT_EQ(server.swap_artifact(ids[0], path).state,
            serve::SwapState::kCanarying);
  server.resume();
  for (std::thread& c : clients) c.join();
  server.shutdown();
  std::remove(path.c_str());
  const obs::CounterSnapshot after = obs::snapshot_counters();
  obs::flight().clear();
  obs::set_enabled(false);
  obs::reset_histograms();

  for (std::size_t at = 0; at < responses.size(); ++at) {
    const std::size_t t = ((at % kPerClient) / 2) % f.traces.size();
    ASSERT_EQ(responses[at].status, serve::Status::kOk) << "request " << at;
    EXPECT_TRUE(maps_equal(responses[at].noise, expected[t]))
        << "request " << at;
  }
  const serve::SwapReport report = server.swap_report(ids[0]);
  EXPECT_EQ(report.state, serve::SwapState::kPromoted);
  EXPECT_EQ(report.canaried, 2);
  EXPECT_EQ(report.diverged, 0);
  EXPECT_EQ(obs::counter_reading(before, after,
                                 obs::Counter::kServeSwapCanaries), 2)
      << "comparisons ran beyond canary_requests";
}

TEST(SwapTelemetry, LifecycleEventsLandInCountersAndFlightRecorder) {
  Fixture f(6);
  obs::set_enabled(true);
  obs::flight().clear();
  const obs::CounterSnapshot before = obs::snapshot_counters();

  serve::ServeOptions options;
  options.canary_fraction = 1.0;
  options.canary_requests = 2;
  serve::NoiseServer server(options);
  const serve::DesignId id = server.add_design("tiny", f.grid, f.artifact());
  const std::string good = f.artifact_file(*f.model, "good");
  const std::string bad = f.artifact_file(*f.divergent_model(), "bad");

  server.swap_artifact(id, bad);
  for (const auto& trace : f.traces) server.predict(id, trace);
  ASSERT_TRUE(Fixture::eventually([&] {
    return server.swap_report(id).state == serve::SwapState::kRolledBack;
  }));
  server.swap_artifact(id, good);
  for (const auto& trace : f.traces) server.predict(id, trace);
  ASSERT_TRUE(Fixture::eventually([&] {
    return server.swap_report(id).state == serve::SwapState::kPromoted;
  }));
  server.shutdown();
  std::remove(good.c_str());
  std::remove(bad.c_str());

  const obs::CounterSnapshot after = obs::snapshot_counters();
  EXPECT_EQ(obs::counter_reading(before, after,
                                 obs::Counter::kServeSwapsBegun), 2);
  EXPECT_GE(obs::counter_reading(before, after,
                                 obs::Counter::kServeSwapCanaries), 3);
  EXPECT_GE(obs::counter_reading(before, after,
                                 obs::Counter::kServeSwapDivergences), 1);
  EXPECT_EQ(obs::counter_reading(before, after,
                                 obs::Counter::kServeSwapPromotes), 1);
  EXPECT_EQ(obs::counter_reading(before, after,
                                 obs::Counter::kServeSwapRollbacks), 1);

  // The flight recorder saw the full lifecycle, in order: a swap begins
  // before its canaries, and the rollback precedes the second swap's
  // promotion. Events are chronological in the dump, so substring
  // positions in the compact JSON encode ordering.
  const std::string dump = obs::flight().to_json().dump(0);
  const auto count = [&dump](const std::string& kind) {
    const std::string token = "\"kind\":\"" + kind + "\"";
    int n = 0;
    for (std::size_t at = dump.find(token); at != std::string::npos;
         at = dump.find(token, at + token.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("swap"), 2);
  EXPECT_GE(count("canary"), 3);
  EXPECT_EQ(count("swap_rollback"), 1);
  EXPECT_EQ(count("swap_promote"), 1);
  const auto first = [&dump](const std::string& kind) {
    return dump.find("\"kind\":\"" + kind + "\"");
  };
  EXPECT_LT(first("swap"), first("canary"));
  EXPECT_LT(first("swap_rollback"), first("swap_promote"));

  obs::flight().clear();
  obs::set_enabled(false);
  obs::reset_histograms();
}

}  // namespace
}  // namespace pdnn
