#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace pdnn::serve {

const char* to_string(Status status) {
  switch (status) {
    case Status::kInvalid: return "invalid";
    case Status::kOk: return "ok";
    case Status::kOverloaded: return "overloaded";
    case Status::kTimedOut: return "timed_out";
    case Status::kShutdown: return "shutdown";
  }
  return "?";
}

const char* to_string(SwapState state) {
  switch (state) {
    case SwapState::kNone: return "none";
    case SwapState::kCanarying: return "canarying";
    case SwapState::kPromoted: return "promoted";
    case SwapState::kRolledBack: return "rolled_back";
  }
  return "?";
}

namespace {
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Canary comparison. With tolerance <= 0 the maps must be byte-identical;
/// with a positive tolerance every node must agree within `tolerance`
/// volts. The largest |a - b| seen is folded into *max_diff either way the
/// comparison resolves. A NaN anywhere fails.
bool maps_close(const util::MapF& a, const util::MapF& b, double tolerance,
                double* max_diff) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  bool within = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a.data()[i]) -
                               static_cast<double>(b.data()[i]));
    if (d > *max_diff) *max_diff = d;
    if (!(d <= tolerance)) within = false;  // NaN compares false -> fail
  }
  if (tolerance <= 0.0) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  }
  return within;
}

/// Process-unique monotonic request ids, shared by every NoiseServer so one
/// trace never carries two requests with the same id. Assigned even when
/// instrumentation is off — the id rides in the Response either way and a
/// relaxed fetch_add is as cheap as the bookkeeping around it.
std::atomic<std::int64_t> g_next_request_id{1};

/// Virtual ring points per shard. Enough that the arcs even out across a
/// handful of shards; small enough that the ring stays a few cache lines.
constexpr int kVirtualPointsPerShard = 64;

/// splitmix64 finalizer over an FNV-1a digest. FNV's multiply only carries
/// entropy upward, so the short near-identical keys hashed here ("shard",
/// s, v) come out clustered in the high bits — exactly the bits that order
/// the ring. The finalizer spreads them uniformly.
std::uint64_t ring_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

struct NoiseServer::Impl {
  /// One deployable (artifact, pipeline) pair. Requests hold a shared_ptr
  /// so an entry replaced by a hot-swap stays alive until its last
  /// in-flight request completes.
  struct DesignEntry {
    core::ModelArtifact artifact;  // owns the model the pipeline references
    core::WorstCasePipeline pipeline;

    DesignEntry(const pdn::PowerGrid& grid, core::ModelArtifact art)
        : artifact(std::move(art)),
          pipeline(grid, *artifact.model,
                   core::PipelineOptions{artifact.temporal}) {}
  };

  /// One registered design. Immutable routing fields are set at
  /// registration; the deployment state (active/candidate/swap bookkeeping)
  /// and the telemetry accumulators are guarded by the owning shard's
  /// mutex — a design's traffic flows through exactly one shard worker.
  struct DesignSlot {
    DesignId id;
    std::string name;
    const pdn::PowerGrid* grid = nullptr;
    int shard = 0;

    std::shared_ptr<DesignEntry> active;
    std::shared_ptr<DesignEntry> candidate;  // non-null while canarying
    SwapReport swap;
    double canary_accum = 0.0;   ///< deterministic fraction accumulator
    std::int64_t swap_seq = 0;   ///< invalidates stale canary results

    // Telemetry-only (accrues while obs::enabled()).
    std::int64_t completed = 0;
    obs::Histogram request_nanos;
  };

  struct Request {
    DesignSlot* slot = nullptr;
    std::shared_ptr<DesignEntry> entry;  ///< pipeline it was prepared with
    core::PreparedRequest prepared;
    Clock::time_point enqueued;
    Clock::time_point deadline;
    bool has_deadline = false;
    std::int64_t id = 0;
    std::int64_t enqueued_ns = 0;  ///< obs trace clock; 0 when obs is off
    std::promise<Response> promise;
  };

  /// One worker thread's world: queue, wakeup, local stats.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Request> queue;
    bool paused = false;
    bool stopping = false;
    Stats stats;
    obs::Histogram queue_depth;  ///< sampled at each admission (telemetry)
    std::thread worker;
  };

  explicit Impl(const ServeOptions& options) : options_(options) {
    PDN_CHECK(options_.num_shards > 0, "NoiseServer: num_shards must be > 0");
    PDN_CHECK(options_.max_batch > 0, "NoiseServer: max_batch must be > 0");
    PDN_CHECK(options_.queue_capacity > 0,
              "NoiseServer: queue_capacity must be > 0");
    // Consistent-hash ring: kVirtualPointsPerShard points per shard, sorted
    // by hash. A design routes to the shard owning the first point at or
    // after its own hash (wrapping), so growing the fleet remaps only the
    // designs whose arc moved.
    ring_.reserve(static_cast<std::size_t>(options_.num_shards) *
                  kVirtualPointsPerShard);
    for (int s = 0; s < options_.num_shards; ++s) {
      for (int v = 0; v < kVirtualPointsPerShard; ++v) {
        util::Fnv1a64 h;
        h.add_string("serve.shard").add(s).add(v);
        ring_.push_back({ring_mix(h.digest()), s});
      }
    }
    std::sort(ring_.begin(), ring_.end());
    shards_.reserve(static_cast<std::size_t>(options_.num_shards));
    for (int s = 0; s < options_.num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
    obs::counter_max(obs::Counter::kServeShardsMax, options_.num_shards);
    for (int s = 0; s < options_.num_shards; ++s) {
      shards_[static_cast<std::size_t>(s)]->worker =
          std::thread([this, s] { run(s); });
    }
  }

  int shard_for(DesignId design) const {
    util::Fnv1a64 h;
    h.add_string("serve.design").add(design.value);
    const std::pair<std::uint64_t, int> key{ring_mix(h.digest()), 0};
    auto it = std::lower_bound(ring_.begin(), ring_.end(), key);
    if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
    return it->second;
  }

  DesignSlot* find_slot(DesignId design, const char* who) const {
    std::lock_guard<std::mutex> lock(registry_mu_);
    PDN_CHECK(design.valid() &&
                  design.value < static_cast<int>(designs_.size()),
              std::string(who) + ": unknown design id " +
                  std::to_string(design.value));
    return designs_[static_cast<std::size_t>(design.value)].get();
  }

  /// Shard worker loop: wait for work, slice a same-entry batch off the
  /// queue front, run one fused forward pass, deliver responses, then run
  /// any canary comparisons for an in-progress hot-swap. Exits once a
  /// shutdown is requested and the shard's queue has drained.
  void run(int shard_index) {
    Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
    std::unique_lock<std::mutex> lock(shard.mu);
    for (;;) {
      shard.cv.wait(lock, [&shard] {
        return shard.stopping || (!shard.paused && !shard.queue.empty());
      });
      if (shard.queue.empty()) {
        if (shard.stopping) return;
        continue;
      }

      // Strict FIFO-prefix batching: take requests from the front while
      // they target the same design entry, dropping any whose deadline
      // already passed. FIFO keeps the batch composition deterministic for
      // a given arrival order; per-request bits never depend on it
      // (pipeline.hpp). A request prepared against a pre-swap entry never
      // fuses with post-swap requests — the entry pointers differ.
      const Clock::time_point now = Clock::now();
      const bool observing = obs::enabled();
      const std::int64_t now_ns = observing ? obs::detail::now_ns() : 0;
      const DesignEntry* entry = shard.queue.front().entry.get();
      std::vector<Request> batch;
      std::vector<Request> expired;
      while (!shard.queue.empty() &&
             shard.queue.front().entry.get() == entry &&
             static_cast<int>(batch.size()) < options_.max_batch) {
        Request r = std::move(shard.queue.front());
        shard.queue.pop_front();
        if (observing && r.enqueued_ns > 0) {
          obs::hist_record(obs::Hist::kServeQueueNanos,
                           now_ns - r.enqueued_ns);
          obs::detail::record_span("serve.queue", r.enqueued_ns, now_ns,
                                   "req", r.id);
        }
        if (r.has_deadline && now >= r.deadline) {
          expired.push_back(std::move(r));
        } else {
          batch.push_back(std::move(r));
        }
      }
      // Book the batch into the shard stats while still holding the lock;
      // stats()/submit() read them under the same mutex.
      const int width = static_cast<int>(batch.size());
      shard.stats.timeouts += static_cast<std::int64_t>(expired.size());
      if (width > 0) {
        ++shard.stats.batches;
        shard.stats.batch_width_max =
            std::max(shard.stats.batch_width_max, width);
      }
      // Canary selection for an in-progress swap: a deterministic fraction
      // accumulator over the design's served-request sequence marks which
      // batch members get the extra candidate inference. Selection never
      // changes what the client receives — the incumbent always answers.
      DesignSlot* slot = width > 0 ? batch.front().slot : nullptr;
      std::shared_ptr<DesignEntry> candidate;
      std::int64_t swap_seq = 0;
      std::vector<char> canary_mask;
      if (slot != nullptr && slot->candidate &&
          batch.front().entry == slot->active) {
        candidate = slot->candidate;
        swap_seq = slot->swap_seq;
        canary_mask.assign(static_cast<std::size_t>(width), 0);
        int pending = options_.canary_requests - slot->swap.canaried;
        for (int i = 0; i < width && pending > 0; ++i) {
          slot->canary_accum += options_.canary_fraction;
          if (slot->canary_accum >= 1.0) {
            slot->canary_accum -= 1.0;
            canary_mask[static_cast<std::size_t>(i)] = 1;
            --pending;
          }
        }
      }
      lock.unlock();

      for (Request& r : expired) {
        obs::counter_add(obs::Counter::kServeTimeouts, 1);
        if (observing && r.enqueued_ns > 0) {
          obs::flight_record(obs::FlightEventKind::kTimeout, r.id,
                             r.slot->id.value, now_ns - r.enqueued_ns);
        }
        Response resp;
        resp.status = Status::kTimedOut;
        resp.queue_seconds = seconds_between(r.enqueued, now);
        resp.shard = shard_index;
        resp.request_id = r.id;
        r.promise.set_value(std::move(resp));
      }

      std::int64_t delivered = 0;
      std::int64_t done_ns = 0;
      // Incumbent maps snapshotted for the canaried requests, so responses
      // go out before the candidate inference runs.
      std::vector<util::MapF> canary_ref;
      if (width > 0) {
        obs::counter_add(obs::Counter::kServeBatches, 1);
        obs::counter_max(obs::Counter::kServeBatchWidthMax, width);
        if (observing) {
          obs::hist_record(obs::Hist::kServeBatchWidth, width);
          obs::flight_record(obs::FlightEventKind::kBatch, batch.front().id,
                             slot->id.value, width);
        }
        try {
          obs::TraceSpan span("serve.batch", "width", width);
          std::vector<const core::PreparedRequest*> prepared;
          prepared.reserve(batch.size());
          for (const Request& r : batch) prepared.push_back(&r.prepared);
          const std::int64_t infer_begin_ns =
              observing ? obs::detail::now_ns() : 0;
          const Clock::time_point start = Clock::now();
          std::vector<util::MapF> maps =
              entry->pipeline.infer_batch(prepared);
          const double infer_s = seconds_between(start, Clock::now());
          if (observing) {
            done_ns = obs::detail::now_ns();
            obs::hist_record(obs::Hist::kServeInferNanos,
                             done_ns - infer_begin_ns);
            for (const Request& r : batch) {
              obs::detail::record_span("serve.infer", infer_begin_ns,
                                       done_ns, "req", r.id);
            }
          }
          if (candidate) {
            canary_ref.resize(static_cast<std::size_t>(width));
            for (int i = 0; i < width; ++i) {
              if (canary_mask[static_cast<std::size_t>(i)]) {
                canary_ref[static_cast<std::size_t>(i)] =
                    maps[static_cast<std::size_t>(i)];
              }
            }
          }
          for (std::size_t i = 0; i < batch.size(); ++i) {
            Response resp;
            resp.status = Status::kOk;
            resp.noise = std::move(maps[i]);
            resp.queue_seconds = seconds_between(batch[i].enqueued, now);
            resp.infer_seconds = infer_s;
            resp.batch_width = width;
            resp.kept_steps = batch[i].prepared.kept_steps;
            resp.shard = shard_index;
            resp.request_id = batch[i].id;
            batch[i].promise.set_value(std::move(resp));
            ++delivered;
          }
        } catch (...) {
          // Deliver the failure to every caller in the batch; the worker
          // itself stays up for subsequent requests.
          const std::exception_ptr error = std::current_exception();
          for (Request& r : batch) r.promise.set_exception(error);
          candidate.reset();  // skip canarying a batch that failed
        }
      }

      // Canary comparisons, after the clients have their responses: run
      // the candidate pipeline on the same prepared inputs and compare
      // against the incumbent map under the swap tolerance. A candidate
      // that throws is treated as a divergence — it must not be promoted.
      int compared = 0;
      int diverged = 0;
      double max_diff = 0.0;
      if (candidate) {
        for (int i = 0; i < width; ++i) {
          if (!canary_mask[static_cast<std::size_t>(i)]) continue;
          bool match = false;
          const std::int64_t canary_begin_ns =
              observing ? obs::detail::now_ns() : 0;
          try {
            const util::MapF canary_map = candidate->pipeline.infer(
                batch[static_cast<std::size_t>(i)].prepared);
            match =
                maps_close(canary_map, canary_ref[static_cast<std::size_t>(i)],
                           options_.swap_tolerance_volts, &max_diff);
          } catch (...) {
            match = false;
          }
          if (observing) {
            obs::hist_record(obs::Hist::kServeCanaryNanos,
                             obs::detail::now_ns() - canary_begin_ns);
          }
          ++compared;
          if (!match) ++diverged;
          obs::counter_add(obs::Counter::kServeSwapCanaries, 1);
          obs::flight_record(obs::FlightEventKind::kCanary,
                             batch[static_cast<std::size_t>(i)].id,
                             slot->id.value, match ? 1 : 0);
        }
        if (diverged > 0) {
          obs::counter_add(obs::Counter::kServeSwapDivergences, diverged);
        }
      }

      lock.lock();
      shard.stats.completed += delivered;
      if (candidate && slot->swap_seq == swap_seq &&
          slot->candidate == candidate) {
        // Fold this batch's canary verdicts into the swap (ignored when a
        // newer swap_artifact() superseded the candidate mid-flight).
        slot->swap.canaried += compared;
        slot->swap.diverged += diverged;
        slot->swap.max_divergence_volts =
            std::max(slot->swap.max_divergence_volts, max_diff);
        if (diverged > 0) {
          slot->candidate.reset();
          slot->swap.state = SwapState::kRolledBack;
          obs::counter_add(obs::Counter::kServeSwapRollbacks, 1);
          obs::flight_record(obs::FlightEventKind::kSwapRollback, 0,
                             slot->id.value, slot->swap.diverged);
        } else if (slot->swap.canaried >= options_.canary_requests) {
          slot->active = std::move(slot->candidate);
          slot->candidate.reset();
          slot->swap.state = SwapState::kPromoted;
          obs::counter_add(obs::Counter::kServeSwapPromotes, 1);
          obs::flight_record(obs::FlightEventKind::kSwapPromote, 0,
                             slot->id.value, slot->swap.canaried);
        }
      }
      if (observing && delivered > 0) {
        // Per-design breakdown: end-to-end latency measured on the obs
        // clock from admission to batch completion. Telemetry-only state,
        // so it accrues only while instrumentation is on.
        slot->completed += delivered;
        for (const Request& r : batch) {
          if (r.enqueued_ns > 0) {
            slot->request_nanos.record(done_ns - r.enqueued_ns);
          }
        }
      }
    }
  }

  ServeOptions options_;
  std::vector<std::pair<std::uint64_t, int>> ring_;  ///< sorted hash ring
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<DesignSlot>> designs_;
  std::atomic<bool> stopping_{false};
};

NoiseServer::NoiseServer(ServeOptions options)
    : options_(options), impl_(std::make_unique<Impl>(options_)) {}

NoiseServer::~NoiseServer() { shutdown(); }

DesignId NoiseServer::add_design(std::string name, const pdn::PowerGrid& grid,
                                 core::ModelArtifact artifact) {
  PDN_CHECK(artifact.model != nullptr,
            "NoiseServer::add_design: artifact has no model (was it peeked, "
            "not loaded?)");
  PDN_CHECK(!impl_->stopping_.load(std::memory_order_relaxed),
            "NoiseServer::add_design: server is shut down");
  auto slot = std::make_unique<Impl::DesignSlot>();
  slot->name = std::move(name);
  slot->grid = &grid;
  slot->active =
      std::make_shared<Impl::DesignEntry>(grid, std::move(artifact));
  std::lock_guard<std::mutex> lock(impl_->registry_mu_);
  const DesignId id{static_cast<int>(impl_->designs_.size())};
  slot->id = id;
  slot->shard = impl_->shard_for(id);
  impl_->designs_.push_back(std::move(slot));
  return id;
}

Ticket NoiseServer::submit(DesignId design,
                           const vectors::CurrentTrace& trace,
                           std::optional<double> deadline_seconds) {
  const std::int64_t request_id =
      g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  const bool observing = obs::enabled();

  Ticket ticket;
  ticket.id_ = request_id;
  if (observing) ticket.begin_ns_ = obs::detail::now_ns();

  Impl::DesignSlot* slot = impl_->find_slot(design, "NoiseServer::submit");
  Impl::Shard& shard = *impl_->shards_[static_cast<std::size_t>(slot->shard)];

  // A rejected submit still yields a redeemable ticket: the promise is
  // resolved inline and wait() returns immediately.
  std::promise<Response> promise;
  ticket.future_ = promise.get_future();
  const auto reject = [&](Status status) {
    Response resp;
    resp.status = status;
    resp.shard = slot->shard;
    resp.request_id = request_id;
    promise.set_value(std::move(resp));
    return std::move(ticket);
  };

  std::shared_ptr<Impl::DesignEntry> entry;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.stopping) return reject(Status::kShutdown);
    entry = slot->active;
  }

  // Per-request compression runs on the caller's thread, overlapping with
  // the shard workers' fused forward passes and other clients' prepares.
  Impl::Request request;
  request.slot = slot;
  request.entry = entry;
  request.id = request_id;
  if (observing) {
    const std::int64_t begin = obs::detail::now_ns();
    request.prepared = entry->pipeline.prepare(trace);
    const std::int64_t end = obs::detail::now_ns();
    obs::detail::record_span("serve.prepare", begin, end, "req", request_id);
    obs::hist_record(obs::Hist::kServePrepareNanos, end - begin);
  } else {
    request.prepared = entry->pipeline.prepare(trace);
  }

  const std::optional<double> deadline =
      deadline_seconds.has_value() ? deadline_seconds
                                   : options_.default_deadline_seconds;
  request.enqueued = Clock::now();
  if (observing) request.enqueued_ns = obs::detail::now_ns();
  if (deadline.has_value() && *deadline > 0.0) {
    request.has_deadline = true;
    request.deadline =
        request.enqueued + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(*deadline));
  }
  request.promise = std::move(promise);

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.stopping) {
      promise = std::move(request.promise);
      return reject(Status::kShutdown);
    }
    if (static_cast<int>(shard.queue.size()) >= options_.queue_capacity) {
      ++shard.stats.overloads;
      obs::counter_add(obs::Counter::kServeOverloads, 1);
      obs::flight_record(obs::FlightEventKind::kOverload, request_id,
                         slot->id.value, options_.queue_capacity);
      promise = std::move(request.promise);
      return reject(Status::kOverloaded);
    }
    shard.queue.push_back(std::move(request));
    ++shard.stats.requests;
    const int depth = static_cast<int>(shard.queue.size());
    shard.stats.queue_depth_max = std::max(shard.stats.queue_depth_max, depth);
    obs::counter_add(obs::Counter::kServeRequests, 1);
    obs::counter_max(obs::Counter::kServeQueueDepthMax, depth);
    obs::hist_record(obs::Hist::kServeQueueDepth, depth);
    if (observing) shard.queue_depth.record(depth);
    obs::flight_record(obs::FlightEventKind::kAdmit, request_id,
                       slot->id.value, depth);
  }
  shard.cv.notify_one();
  return ticket;
}

Response NoiseServer::wait(Ticket& ticket) {
  PDN_CHECK(ticket.valid(),
            "NoiseServer::wait: ticket is invalid (already redeemed, or "
            "default-constructed)");
  Response response = ticket.future_.get();
  if (ticket.begin_ns_ > 0 && obs::enabled()) {
    const std::int64_t end_ns = obs::detail::now_ns();
    const std::int64_t wall = end_ns - ticket.begin_ns_;
    obs::detail::record_span("serve.request", ticket.begin_ns_, end_ns,
                             "req", ticket.id_);
    obs::hist_record(obs::Hist::kServeRequestNanos, wall);
    obs::record_slow_request(ticket.id_, wall);
  }
  return response;
}

Response NoiseServer::predict(DesignId design,
                              const vectors::CurrentTrace& trace,
                              std::optional<double> deadline_seconds) {
  Ticket ticket = submit(design, trace, deadline_seconds);
  return wait(ticket);
}

SwapReport NoiseServer::swap_artifact(DesignId design,
                                      const std::string& path) {
  Impl::DesignSlot* slot =
      impl_->find_slot(design, "NoiseServer::swap_artifact");
  core::ModelArtifact artifact = core::load_artifact(path);
  PDN_CHECK(artifact.model != nullptr,
            "NoiseServer::swap_artifact: artifact has no model");
  const quant::ParamDtype incoming_dtype = artifact.dtype;
  auto entry = std::make_shared<Impl::DesignEntry>(*slot->grid,
                                                   std::move(artifact));
  Impl::Shard& shard = *impl_->shards_[static_cast<std::size_t>(slot->shard)];
  const bool direct =
      options_.canary_fraction <= 0.0 || options_.canary_requests <= 0;

  std::lock_guard<std::mutex> lock(shard.mu);
  PDN_CHECK(!shard.stopping,
            "NoiseServer::swap_artifact: server is shut down");
  // A candidate storing weights in a different dtype than the incumbent
  // cannot reproduce the incumbent's bytes; canarying it needs an explicit
  // accuracy budget.
  if (!direct && incoming_dtype != slot->active->artifact.dtype) {
    PDN_CHECK(
        options_.swap_tolerance_volts > 0.0,
        "NoiseServer::swap_artifact: candidate dtype (" +
            std::string(quant::dtype_name(incoming_dtype)) +
            ") differs from the incumbent's (" +
            quant::dtype_name(slot->active->artifact.dtype) +
            "); canarying a cross-dtype swap requires "
            "ServeOptions::swap_tolerance_volts > 0 (or disable canarying "
            "to promote directly)");
  }
  ++slot->swap_seq;  // invalidates canary verdicts for a superseded swap
  slot->canary_accum = 0.0;
  slot->swap = SwapReport{};
  obs::counter_add(obs::Counter::kServeSwapsBegun, 1);
  obs::flight_record(obs::FlightEventKind::kSwap, 0, slot->id.value,
                     direct ? 0 : options_.canary_requests);
  if (direct) {
    slot->active = std::move(entry);
    slot->candidate.reset();
    slot->swap.state = SwapState::kPromoted;
    obs::counter_add(obs::Counter::kServeSwapPromotes, 1);
    obs::flight_record(obs::FlightEventKind::kSwapPromote, 0,
                       slot->id.value, 0);
  } else {
    slot->candidate = std::move(entry);
    slot->swap.state = SwapState::kCanarying;
  }
  return slot->swap;
}

SwapReport NoiseServer::swap_report(DesignId design) const {
  Impl::DesignSlot* slot =
      impl_->find_slot(design, "NoiseServer::swap_report");
  Impl::Shard& shard = *impl_->shards_[static_cast<std::size_t>(slot->shard)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return slot->swap;
}

void NoiseServer::shutdown() {
  impl_->stopping_.store(true, std::memory_order_relaxed);
  bool joined = false;
  std::int64_t completed = 0;
  for (auto& shard : impl_->shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stopping = true;
      shard->paused = false;  // the drain must proceed even if paused
    }
    shard->cv.notify_all();
  }
  for (auto& shard : impl_->shards_) {
    if (shard->worker.joinable()) {
      shard->worker.join();
      joined = true;
    }
    std::lock_guard<std::mutex> lock(shard->mu);
    completed += shard->stats.completed;
  }
  if (joined) {
    obs::flight_record(obs::FlightEventKind::kShutdown, 0, 0, completed);
  }
}

void NoiseServer::pause() {
  for (auto& shard : impl_->shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->paused = true;
  }
}

void NoiseServer::resume() {
  for (auto& shard : impl_->shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->paused = false;
    }
    shard->cv.notify_all();
  }
}

int NoiseServer::shard_of(DesignId design) const {
  return impl_->find_slot(design, "NoiseServer::shard_of")->shard;
}

int NoiseServer::queue_depth() const {
  int depth = 0;
  for (const auto& shard : impl_->shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    depth += static_cast<int>(shard->queue.size());
  }
  return depth;
}

int NoiseServer::shard_queue_depth(int shard) const {
  PDN_CHECK(shard >= 0 && shard < options_.num_shards,
            "NoiseServer::shard_queue_depth: unknown shard " +
                std::to_string(shard));
  const Impl::Shard& s = *impl_->shards_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.mu);
  return static_cast<int>(s.queue.size());
}

NoiseServer::Stats NoiseServer::stats() const {
  Stats total;
  for (const auto& shard : impl_->shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const Stats& s = shard->stats;
    total.requests += s.requests;
    total.completed += s.completed;
    total.batches += s.batches;
    total.timeouts += s.timeouts;
    total.overloads += s.overloads;
    total.batch_width_max = std::max(total.batch_width_max, s.batch_width_max);
    total.queue_depth_max =
        std::max(total.queue_depth_max, s.queue_depth_max);
  }
  return total;
}

NoiseServer::ShardStats NoiseServer::shard_stats(int shard) const {
  PDN_CHECK(shard >= 0 && shard < options_.num_shards,
            "NoiseServer::shard_stats: unknown shard " +
                std::to_string(shard));
  const Impl::Shard& s = *impl_->shards_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.mu);
  ShardStats out;
  out.totals = s.stats;
  out.queue_depth = s.queue_depth;
  return out;
}

NoiseServer::DesignStats NoiseServer::design_stats(DesignId design) const {
  Impl::DesignSlot* slot =
      impl_->find_slot(design, "NoiseServer::design_stats");
  Impl::Shard& shard = *impl_->shards_[static_cast<std::size_t>(slot->shard)];
  std::lock_guard<std::mutex> lock(shard.mu);
  DesignStats out;
  out.name = slot->name;
  out.completed = slot->completed;
  out.request_nanos = slot->request_nanos;
  return out;
}

}  // namespace pdnn::serve
