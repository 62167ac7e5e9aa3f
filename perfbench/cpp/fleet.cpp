// fleet: a serve::NoiseServer with 2 shards, max_batch 8 and a thread pool
// of 1, fed by one submitter thread (this one) and one waiter thread. D1-D4
// are registered under their own names and placed by the server's own
// hashing; D1 and D3 serve fp32 artifacts, D2 and D4 int8 PDNB v2 ones.
//
// The timed part is kCycles cycles, so that each phase samples the host
// over the whole run:
//   Phase 1, open loop: Poisson arrivals at the fixed offered rate for 70%
//   of the run's seconds; in the middle cycle D1 is hot-swapped to a
//   byte-identical copy of its artifact. Latency is timed from each
//   request's due time and printed, not reported (see kClosedMeasured).
//   Phase 2, closed loop: a fixed number of requests in flight for a fixed
//   number of requests; its completion rate is the saturation rate and its
//   request latencies are the reported latency.
// Between cycles, with the server idle, come one more set-up (of a second
// server), a share of the serial references and a share of the side jobs.
//
// Queueing, shard placement, batching, the int8 path and the swap write
// path do their work only here.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace serve = pdnn::serve;

/// setup_s is the first quartile of kSetupFirst set-ups before timing
/// starts and one after each cycle.
constexpr int kSetupFirst = 3;
constexpr int kPoolThreads = 1;
/// Model building and golden references run like the other workloads.
constexpr int kBuildPoolThreads = 2;
constexpr int kShards = 2;
constexpr int kMaxBatch = 8;
constexpr int kTracesPerDesign = 64;  ///< distinct traces each design serves
constexpr int kCycles = 10;
constexpr double kOpenShare = 0.7;  ///< share of the seconds in phase 1
constexpr int kSwapCycle = kCycles / 2;
constexpr int kSwapDesign = 0;  ///< D1
constexpr int kReferencePasses = 2;
/// Requests come in shuffled rounds of 16 holding this many of D1..D4.
/// An int8 map takes 3-6x as long as an fp32 one here, so with more int8
/// traffic the median open-loop latency would fall between the fp32 and
/// the int8 latency modes (or among fp32 requests queued behind an int8
/// one) and jump between them from run to run; at 1 in 8 it falls among
/// fp32 requests served without waiting, and int8 sets the tail.
constexpr std::array<int, 4> kRoundShare = {7, 1, 7, 1};
/// Every request of the run counts toward the latency and saturation
/// metrics; none is picked out as quiet. A request's latency
/// depends on the requests queued ahead of it and on which design it asks
/// for, so windows of requests do not repeat one piece of work, and the
/// windows picked for a low median latency carry a tail that follows
/// their int8 requests rather than the host. Over a whole run the figures
/// move less.
///
/// A closed-loop segment submits kClosedRamp requests (the ramp to the full
/// window in flight), then kClosedMeasured more, whose completion rate and
/// latencies (submission to response) are reported: 960 latencies, tail
/// p95, at any host speed. The open loop's latencies are printed but not
/// reported: in five runs of one busy spell of the shared host, the open
/// loop's median rose by 40-80 % while the closed loop lost 7 % of its
/// rate. At about half the server's capacity the open loop's threads go
/// idle between requests, and waking them most likely costs milliseconds
/// in such a spell, for every request; the closed loop's threads never
/// idle. No selection within a run holds the open loop to a bound of 25 %.
constexpr std::size_t kClosedRamp = 16;
constexpr std::size_t kClosedMeasured = 96;
/// The serial references are timed like signoff's maps: rows of one map of
/// each design (about 30 ms), the kReferenceQuiet rows with the lowest
/// median of the 128 kept (32 maps).
constexpr std::size_t kReferenceRow = 4;
constexpr std::size_t kReferenceQuiet = 8;

bool serves_int8(int design) { return design % 2 == 1; }

struct Request {
  int design = 0;
  int trace = 0;
};

/// One request from submission to its response.
struct Record {
  int phase = 0;
  int segment = 0;  ///< cycle of the run
  Request req;
  std::int64_t due_ns = 0;
  std::int64_t submit_begin_ns = 0;
  std::int64_t submit_end_ns = 0;
  std::int64_t done_ns = 0;
  serve::Response response;
};

/// Hands tickets from the submitter to the waiter in submission order and
/// tracks how many are in flight; both sides block, neither spins.
class Handoff {
 public:
  void push(Record record, serve::Ticket ticket) {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(std::move(record), std::move(ticket));
    ++in_flight_;
    cv_.notify_all();
  }
  /// Blocks for the next ticket; false once closed and drained.
  bool pop(Record* record, serve::Ticket* ticket) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return false;
    *record = std::move(queue_.front().first);
    *ticket = std::move(queue_.front().second);
    queue_.pop_front();
    return true;
  }
  void done() {
    const std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    cv_.notify_all();
  }
  void wait_below(int window) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return in_flight_ < window; });
  }
  void wait_drained() { wait_below(1); }
  void close() {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<Record, serve::Ticket>> queue_;
  int in_flight_ = 0;
  bool closed_ = false;
};

/// The waiter thread. Closes the handoff and joins on every exit path,
/// exceptions included, so the thread never outlives the data it uses.
class Waiter {
 public:
  Waiter(Handoff& handoff, const std::function<void()>& body)
      : handoff_(handoff), thread_(body) {}
  ~Waiter() { join(); }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;
  void join() {
    handoff_.close();
    if (thread_.joinable()) thread_.join();
  }

 private:
  Handoff& handoff_;
  std::thread thread_;
};

/// Seeded request stream: designs in shuffled rounds of fixed shares, so
/// every seed and every timing window offers the same mix; traces uniform
/// over each design's set.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed) {}
  Request next() {
    if (round_.empty()) {
      for (int d = 0; d < static_cast<int>(kRoundShare.size()); ++d) {
        round_.insert(round_.end(), kRoundShare[d], d);
      }
      rng_.shuffle(round_);
    }
    Request req;
    req.design = round_.back();
    round_.pop_back();
    req.trace = rng_.uniform_int(0, kTracesPerDesign - 1);
    return req;
  }
  /// Exponential inter-arrival gap at `rate` per second, in ns.
  std::int64_t gap_ns(double rate) {
    return static_cast<std::int64_t>(-std::log(1.0 - rng_.uniform()) / rate *
                                     1e9);
  }

 private:
  pdnn::util::Rng rng_;
  std::vector<int> round_;
};

struct PhaseTotals {
  Outcomes outcomes;
  double seconds = 0.0;  ///< summed over segments, first submit to last done
};

PhaseTotals summarize_phase(const std::vector<Record>& records, int phase,
                            const char* name) {
  PhaseTotals t;
  for (int k = 0; k < kCycles; ++k) {
    std::int64_t first_ns = -1;
    std::int64_t last_done_ns = 0;
    for (const Record& rec : records) {
      if (rec.phase != phase || rec.segment != k) continue;
      if (first_ns < 0) first_ns = rec.submit_begin_ns;
      last_done_ns = std::max(last_done_ns, rec.done_ns);
      ++t.outcomes.attempted;
      switch (rec.response.status) {
        case serve::Status::kOk: ++t.outcomes.ok; break;
        case serve::Status::kOverloaded: ++t.outcomes.overloaded; break;
        case serve::Status::kTimedOut: ++t.outcomes.timed_out; break;
        default: break;
      }
    }
    if (first_ns >= 0) {
      t.seconds += static_cast<double>(last_done_ns - first_ns) * 1e-9;
    }
  }
  info("phase %s: attempted %lld, ok %lld, overloaded %lld, timed out %lld, "
       "failed %.3f%%",
       name, static_cast<long long>(t.outcomes.attempted),
       static_cast<long long>(t.outcomes.ok),
       static_cast<long long>(t.outcomes.overloaded),
       static_cast<long long>(t.outcomes.timed_out), t.outcomes.failed_pct());
  return t;
}

/// The serving server with the grids it references, which outlive it.
struct Serving {
  std::vector<std::unique_ptr<pdn::PowerGrid>> grids;
  std::unique_ptr<serve::NoiseServer> server;
  std::vector<serve::DesignId> ids;
};

/// What the measured part of a closed loop gave: the requests after each
/// segment's first kClosedRamp, which complete in submission order, the
/// order of `records`.
struct ClosedLoop {
  /// Completions per second, from the completion that ends each segment's
  /// ramp to the segment's last completion.
  double rate = 0.0;
  /// Submission to response, ms, of each OK request.
  std::vector<double> latency_ms;
};

ClosedLoop closed_loop(const std::vector<Record>& records, int phase) {
  ClosedLoop out;
  std::size_t completions = 0;
  double seconds = 0.0;
  for (int k = 0; k < kCycles; ++k) {
    std::vector<const Record*> seg;
    for (const Record& rec : records) {
      if (rec.phase == phase && rec.segment == k) seg.push_back(&rec);
    }
    PDN_CHECK(seg.size() == kClosedRamp + kClosedMeasured,
              "closed loop: segment " + std::to_string(k) + " completed " +
                  std::to_string(seg.size()) + " requests");
    for (std::size_t i = kClosedRamp; i < seg.size(); ++i) {
      if (seg[i]->response.status != serve::Status::kOk) continue;
      out.latency_ms.push_back(
          static_cast<double>(seg[i]->done_ns - seg[i]->submit_begin_ns) *
          1e-6);
    }
    completions += kClosedMeasured;
    seconds += static_cast<double>(seg.back()->done_ns -
                                   seg[kClosedRamp - 1]->done_ns) *
               1e-9;
  }
  out.rate = static_cast<double>(completions) / seconds;
  return out;
}

}  // namespace

Result run_fleet(const Options& opt, SpanLog& log) {
  Result r;
  pdnn::util::ThreadPool::set_global_threads(kBuildPoolThreads);
  BuildTotals totals;
  obs::set_enabled(opt.trace);
  const Fixture fx = make_fixture(opt.work_dir, /*with_int8=*/true, totals);
  obs::set_enabled(false);
  pdnn::util::ThreadPool::set_global_threads(kPoolThreads);
  const int nd = static_cast<int>(fx.designs.size());
  std::vector<std::string> serving_path;
  for (int d = 0; d < nd; ++d) {
    serving_path.push_back(serves_int8(d) ? fx.int8_paths[d]
                                          : fx.fp32_paths[d]);
  }
  const std::string swap_path = opt.work_dir + "/D1_fp32_swap.pdnb";
  std::filesystem::copy_file(serving_path[kSwapDesign], swap_path,
                             std::filesystem::copy_options::overwrite_existing);

  std::vector<std::vector<vectors::CurrentTrace>> traces(
      static_cast<std::size_t>(nd));
  std::vector<std::vector<vectors::CurrentTrace>> warm;
  for (int d = 0; d < nd; ++d) {
    vectors::TestVectorGenerator gen(*fx.designs[d].grid, gen_params(),
                                     stream_seed(opt.seed, 'F', d));
    for (int i = 0; i < kTracesPerDesign; ++i) {
      traces[d].push_back(gen.generate());
    }
    warm.push_back(warmup_traces(*fx.designs[d].grid, d));
  }

  // Setup: grids, the server, one registration per design, warm-up maps.
  serve::ServeOptions so;
  so.num_shards = kShards;
  so.max_batch = kMaxBatch;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    auto s = std::make_unique<Serving>();
    const std::int64_t t0 = now_ns();
    for (int d = 0; d < nd; ++d) {
      s->grids.push_back(std::make_unique<pdn::PowerGrid>(fx.designs[d].spec));
    }
    s->server = std::make_unique<serve::NoiseServer>(so);
    for (int d = 0; d < nd; ++d) {
      s->ids.push_back(s->server->add_design(
          fx.designs[d].spec.name, *s->grids[d],
          core::load_artifact(serving_path[d])));
    }
    for (int d = 0; d < nd; ++d) {
      for (const vectors::CurrentTrace& w : warm[d]) {
        r.check(s->server->predict(s->ids[d], w).status == serve::Status::kOk,
                "warm-up request failed");
      }
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return s;
  };
  std::unique_ptr<Serving> serving;
  for (int rep = 0; rep < kSetupFirst; ++rep) {
    serving.reset();
    serving = set_up();
  }
  serve::NoiseServer& server = *serving->server;
  const std::vector<serve::DesignId>& ids = serving->ids;
  for (int d = 0; d < nd; ++d) {
    info("%s: %s artifact on shard %d", fx.designs[d].spec.name.c_str(),
         serves_int8(d) ? "int8" : "fp32", server.shard_of(ids[d]));
  }
  const serve::NoiseServer::Stats stats_before = server.stats();
  std::vector<std::int64_t> shard_before;
  for (int s = 0; s < kShards; ++s) {
    shard_before.push_back(server.shard_stats(s).totals.completed);
  }

  // Serial references: every design's traces through a pipeline loaded from
  // the artifact that served them, two passes, designs interleaved so every
  // timing window holds the same mix. Rows (one trace of each design) are
  // shared out over the gaps between cycles.
  std::vector<LoadedDesign> served;
  std::vector<std::unique_ptr<StagedPredictor>> staged;
  for (int d = 0; d < nd; ++d) {
    served.push_back(load_design(fx.designs[d].spec, serving_path[d]));
    staged.push_back(std::make_unique<StagedPredictor>(
        *served[d].grid, *served[d].artifact.model,
        served[d].artifact.temporal));
  }
  std::vector<std::vector<util::MapF>> ref(static_cast<std::size_t>(nd));
  Ledger ledger(log);
  std::vector<double> ref_ms;
  const int ref_rows = kReferencePasses * kTracesPerDesign;
  const auto reference_row = [&](int row) {
    const int i = row % kTracesPerDesign;
    for (int d = 0; d < nd; ++d) {
      double ms = 0.0;
      util::MapF map = ledger.predict(*served[d].pipeline, *staged[d],
                                      traces[d][static_cast<std::size_t>(i)],
                                      r, &ms);
      ref_ms.push_back(ms);
      if (row < kTracesPerDesign) {
        ref[d].push_back(std::move(map));
      } else {
        r.check(same_bytes(map, ref[d][static_cast<std::size_t>(i)]),
                "serial predict() is not repeatable");
      }
    }
  };
  SideWork side(fx, opt.seed, 'F', opt.trace, totals);

  // Waiter: redeems tickets in submission order and stamps completion.
  Handoff handoff;
  std::vector<Record> records;
  std::atomic<std::int64_t> swap_begin_ns{0};
  std::int64_t swap_resolved_ns = 0;
  Waiter waiter(handoff, [&] {
    Record rec;
    serve::Ticket ticket;
    while (handoff.pop(&rec, &ticket)) {
      rec.response = server.wait(ticket);
      rec.done_ns = now_ns();
      const std::int64_t swap_ns = swap_begin_ns.load();
      if (swap_ns != 0 && swap_resolved_ns == 0) {
        const serve::SwapState state =
            server.swap_report(ids[kSwapDesign]).state;
        if (state == serve::SwapState::kPromoted ||
            state == serve::SwapState::kRolledBack) {
          swap_resolved_ns = rec.done_ns;
        }
      }
      records.push_back(std::move(rec));
      handoff.done();
    }
  });
  int segment = 0;
  const auto submit = [&](int phase, const Request& req, std::int64_t due) {
    Record rec;
    rec.phase = phase;
    rec.segment = segment;
    rec.req = req;
    rec.due_ns = due;
    rec.submit_begin_ns = now_ns();
    serve::Ticket ticket = server.submit(
        ids[req.design],
        traces[req.design][static_cast<std::size_t>(req.trace)]);
    rec.submit_end_ns = now_ns();
    handoff.push(std::move(rec), std::move(ticket));
  };

  // Phase 1 follows one seeded Poisson schedule across its segments; each
  // phase-2 segment starts a fresh seeded stream. The traced run repeats
  // each phase-2 segment untraced (phase 3) to measure the tracing
  // overhead.
  RequestStream open_stream(stream_seed(opt.seed, 'O', 0));
  const auto open_per_cycle = static_cast<int>(std::llround(
      opt.fleet_rate * opt.seconds * kOpenShare / kCycles));
  const auto closed_segment = [&](int phase) {
    RequestStream stream(stream_seed(opt.seed, 'C', segment));
    for (std::size_t i = 0; i < kClosedRamp + kClosedMeasured; ++i) {
      handoff.wait_below(opt.fleet_window);
      submit(phase, stream.next(), now_ns());
    }
    handoff.wait_drained();
  };
  double phases_s = 0.0;
  double pool_chunk_s = 0.0;
  for (segment = 0; segment < kCycles; ++segment) {
    obs::set_enabled(opt.trace);
    const CounterWindow window;
    const std::int64_t begin = now_ns();
    std::int64_t due = begin + 1000000;
    for (int i = 0; i < open_per_cycle; ++i) {
      due += open_stream.gap_ns(opt.fleet_rate);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      submit(1, open_stream.next(), due);
      if (segment == kSwapCycle && i == open_per_cycle / 2) {
        swap_begin_ns.store(now_ns());
        server.swap_artifact(ids[kSwapDesign], swap_path);
      }
    }
    handoff.wait_drained();
    closed_segment(2);
    phases_s += static_cast<double>(now_ns() - begin) * 1e-9;
    pool_chunk_s +=
        static_cast<double>(window.delta(obs::Counter::kPoolChunkNanos)) *
        1e-9;
    obs::set_enabled(false);
    if (opt.trace) closed_segment(3);

    // The gap, with the server idle: one more set-up, a share of the
    // reference rows, and a share of the side jobs on the model-building
    // pool.
    set_up();
    for (int row = segment * ref_rows / kCycles;
         row < (segment + 1) * ref_rows / kCycles; ++row) {
      reference_row(row);
    }
    pdnn::util::ThreadPool::set_global_threads(kBuildPoolThreads);
    while (side.started() <
           (static_cast<std::size_t>(segment) + 1) * side.jobs() / kCycles) {
      side.run_next();
    }
    pdnn::util::ThreadPool::set_global_threads(kPoolThreads);
  }
  waiter.join();

  const serve::SwapReport swap = server.swap_report(ids[kSwapDesign]);
  r.check(swap.state == serve::SwapState::kPromoted && swap.diverged == 0,
          std::string("hot-swap to a byte-identical artifact ended ") +
              serve::to_string(swap.state));
  const serve::NoiseServer::Stats stats_after = server.stats();
  double shard_share_max = 0.0;
  const double completed =
      static_cast<double>(stats_after.completed - stats_before.completed);
  for (int s = 0; s < kShards; ++s) {
    shard_share_max = std::max(
        shard_share_max,
        static_cast<double>(server.shard_stats(s).totals.completed -
                            shard_before[s]) /
            completed);
  }
  server.shutdown();

  const PhaseTotals open = summarize_phase(records, 1, "open");
  const PhaseTotals closed = summarize_phase(records, 2, "closed");
  const PhaseTotals untraced =
      opt.trace ? summarize_phase(records, 3, "closed-untraced")
                : PhaseTotals{};
  Outcomes all = open.outcomes;
  all += closed.outcomes;
  all += untraced.outcomes;
  r.attempted = all.attempted;
  r.failed = all.failed();

  // Every response must equal the serial reference of the artifact that
  // served it byte for byte. int8 maps must stay within the budget of their
  // fp32 model on the held-out vectors the repository defines the budget
  // on; the deviation on the served traces is printed beside it.
  for (int d = 0; d < nd; ++d) {
    if (!serves_int8(d)) continue;
    const LoadedDesign fp32 = load_design(fx.designs[d].spec, fx.fp32_paths[d]);
    double served_v = 0.0;
    for (int i = 0; i < kTracesPerDesign; ++i) {
      served_v = std::max(
          served_v,
          max_abs_diff(ref[d][static_cast<std::size_t>(i)],
                       fp32.pipeline->predict(
                           traces[d][static_cast<std::size_t>(i)])));
    }
    const Fixture::Int8Deviation& held_out = fx.int8_heldout[d];
    info("%s: int8 max deviation from fp32 %.3f mV over %d held-out vectors "
         "(budget %.1f mV); %.3f mV over %d served traces (not gated)",
         fx.designs[d].spec.name.c_str(), held_out.max_volts * 1e3,
         held_out.vectors, kInt8BudgetVolts * 1e3, served_v * 1e3,
         kTracesPerDesign);
    r.check(held_out.max_volts <= kInt8BudgetVolts,
            fx.designs[d].spec.name + ": int8 exceeds the mV budget");
  }
  std::int64_t mismatched = 0;
  for (const Record& rec : records) {
    if (rec.response.status != serve::Status::kOk) continue;
    if (!same_bytes(rec.response.noise,
                    ref[rec.req.design][static_cast<std::size_t>(rec.req.trace)])) {
      ++mismatched;
    }
  }
  r.check(mismatched == 0, std::to_string(mismatched) +
                               " fleet responses differ from serial predict()");
  std::vector<util::MapF> predicted;
  std::vector<util::MapF> truth;
  for (int d = 0; d < nd; ++d) {
    predicted.insert(predicted.end(), ref[d].begin(),
                     ref[d].begin() + kGoldenPerDesign);
    truth.insert(truth.end(), side.truth(d).begin(), side.truth(d).end());
  }

  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> queue_ms;
  double submit_s = 0.0;
  double batch_s[2] = {0.0, 0.0};
  std::int64_t batch_n[2] = {0, 0};
  for (const Record& rec : records) {
    if (rec.phase == 1) {
      lag_ms.push_back(static_cast<double>(rec.submit_begin_ns - rec.due_ns) *
                       1e-6);
      if (rec.response.status == serve::Status::kOk) {
        latency_ms.push_back(static_cast<double>(rec.done_ns - rec.due_ns) *
                             1e-6);
        queue_ms.push_back(rec.response.queue_seconds * 1e3);
      }
    }
    if (rec.phase == 3) continue;
    submit_s += static_cast<double>(rec.submit_end_ns - rec.submit_begin_ns) *
                1e-9;
    if (rec.response.status == serve::Status::kOk) {
      const int k = serves_int8(rec.req.design) ? 1 : 0;
      batch_s[k] += rec.response.infer_seconds;
      ++batch_n[k];
    }
    const int span = log.add("bench.request", rec.due_ns, rec.done_ns, -1,
                             rec.response.request_id);
    log.add("serve.submit", rec.submit_begin_ns, rec.submit_end_ns, span,
            rec.response.request_id);
  }

  r.set("setup_s", first_quartile(setup_s));
  r.set("peak_rss_mb", peak_rss_mb());
  {
    const std::vector<double> quiet =
        quietest_windows(ref_ms, kReferenceRow, kReferenceQuiet);
    double seconds = 0.0;
    for (const double ms : quiet) seconds += ms * 1e-3;
    r.set("maps_per_s", static_cast<double>(quiet.size()) / seconds);
  }
  {
    const LatencySummary open_latency = summarize_latency(latency_ms);
    info("open-loop latency from due time (not reported): %zu samples, "
         "p50 %.4f ms, tail p%g %.4f ms",
         open_latency.count, open_latency.p50, open_latency.tail_pct,
         open_latency.tail);
  }
  const ClosedLoop loop = closed_loop(records, 2);
  report_latency(r, "closed-loop (from submission)", loop.latency_ms);
  report_mean_re(r, mean_re_pct(predicted, truth));
  totals.report_end_to_end(r);
  r.set("saturation_rps", loop.rate);
  r.set("ok_pct", all.ok_pct());
  info("offered %.1f req/s open loop, %d in flight closed loop, %d cycles",
       opt.fleet_rate, opt.fleet_window, kCycles);
  if (opt.trace) {
    ledger.report(r);
    totals.report_layers(r);
    r.set("bench.trace_overhead_pct",
          overhead_pct(closed.seconds / static_cast<double>(closed.outcomes.ok),
                       untraced.seconds /
                           static_cast<double>(untraced.outcomes.ok)));
    r.set("util.pool_busy_pct",
          100.0 * pool_chunk_s / (phases_s * kPoolThreads));
    r.set("serve.submit_ms",
          submit_s * 1e3 /
              static_cast<double>(open.outcomes.attempted +
                                  closed.outcomes.attempted));
    const LatencySummary q = summarize_latency(queue_ms);
    r.set("serve.queue_wait_p50_ms", q.p50);
    r.set("serve.queue_wait_tail_ms", q.tail);
    r.set("serve.batch_ms.fp32",
          batch_n[0] > 0 ? batch_s[0] * 1e3 / static_cast<double>(batch_n[0])
                         : 0.0);
    r.set("serve.batch_ms.int8",
          batch_n[1] > 0 ? batch_s[1] * 1e3 / static_cast<double>(batch_n[1])
                         : 0.0);
    const std::int64_t batches = stats_after.batches - stats_before.batches;
    r.set("serve.batch_fill", completed / static_cast<double>(batches) /
                                  static_cast<double>(kMaxBatch));
    r.set("serve.shard_share_max", shard_share_max);
    r.set("serve.rejected",
          static_cast<double>(stats_after.overloads - stats_before.overloads +
                              stats_after.timeouts - stats_before.timeouts));
    r.set("serve.swap_promote_ms",
          static_cast<double>(swap_resolved_ns - swap_begin_ns.load()) * 1e-6);
    r.set("serve.canaries", swap.canaried);
    r.set("bench.generator_lag_tail_ms", summarize_latency(lag_ms).tail);
  }
  return r;
}

}  // namespace perfbench
