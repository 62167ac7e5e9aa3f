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
  /// and the telemetry accumulators are guarded by the server mutex, since
  /// batches of one design may run on several workers at once.
  struct DesignSlot {
    DesignId id;
    std::string name;
    const pdn::PowerGrid* grid = nullptr;
    int shard = 0;  ///< home shard: id % num_shards

    std::shared_ptr<DesignEntry> active;
    std::shared_ptr<DesignEntry> candidate;  // non-null while canarying
    SwapReport swap;
    double canary_accum = 0.0;   ///< deterministic fraction accumulator
    int canary_reserved = 0;     ///< canaries picked by running batches
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

  /// One worker and the queue of the designs whose home it is. The queue
  /// and its admission stats belong to the home shard; batches and
  /// completions are booked to the worker that served them.
  struct Shard {
    std::deque<Request> queue;
    Stats stats;
    obs::Histogram queue_depth;  ///< sampled at each admission (telemetry)
    std::thread worker;
  };

  explicit Impl(const ServeOptions& options) : options_(options) {
    PDN_CHECK(options_.num_shards > 0, "NoiseServer: num_shards must be > 0");
    PDN_CHECK(options_.max_batch > 0, "NoiseServer: max_batch must be > 0");
    PDN_CHECK(options_.queue_capacity > 0,
              "NoiseServer: queue_capacity must be > 0");
    shards_.resize(static_cast<std::size_t>(options_.num_shards));
    obs::counter_max(obs::Counter::kServeShardsMax, options_.num_shards);
    for (int s = 0; s < options_.num_shards; ++s) {
      shards_[static_cast<std::size_t>(s)].worker =
          std::thread([this, s] { run(s); });
    }
  }

  Shard& shard(int index) { return shards_[static_cast<std::size_t>(index)]; }

  /// Requires mu_.
  DesignSlot& slot(DesignId design, const char* who) const {
    PDN_CHECK(design.valid() &&
                  design.value < static_cast<int>(designs_.size()),
              std::string(who) + ": unknown design id " +
                  std::to_string(design.value));
    return *designs_[static_cast<std::size_t>(design.value)];
  }

  /// The queue worker `self` serves next: its own while that holds work,
  /// else the longest other one; -1 when every queue is empty. Requires
  /// mu_.
  int pick_queue(int self) const {
    if (!shards_[static_cast<std::size_t>(self)].queue.empty()) return self;
    int longest = -1;
    std::size_t depth = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].queue.size() > depth) {
        depth = shards_[s].queue.size();
        longest = static_cast<int>(s);
      }
    }
    return longest;
  }

  /// Worker loop: wait for work, slice a same-entry batch off the front of
  /// the queue pick_queue() names, run one fused forward pass, deliver
  /// responses, then run any canary comparisons for an in-progress
  /// hot-swap. Exits once a shutdown is requested and every queue has
  /// drained.
  void run(int self) {
    Shard& own = shard(self);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      int from = -1;
      cv_.wait(lock, [&] {
        from = paused_ && !stopping_ ? -1 : pick_queue(self);
        return from >= 0 || stopping_;
      });
      if (from < 0) return;
      Shard& home = shard(from);

      // Strict FIFO-prefix batching: take requests from the front while
      // they target the same design entry, dropping any whose deadline
      // already passed. FIFO keeps the batch composition deterministic for
      // a given arrival order; per-request bits never depend on it
      // (pipeline.hpp). A request prepared against a pre-swap entry never
      // fuses with post-swap requests — the entry pointers differ.
      const Clock::time_point now = Clock::now();
      const bool observing = obs::enabled();
      const std::int64_t now_ns = observing ? obs::detail::now_ns() : 0;
      const DesignEntry* entry = home.queue.front().entry.get();
      std::vector<Request> batch;
      std::vector<Request> expired;
      while (!home.queue.empty() && home.queue.front().entry.get() == entry &&
             static_cast<int>(batch.size()) < options_.max_batch) {
        Request r = std::move(home.queue.front());
        home.queue.pop_front();
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
      // Book the batch while still holding the lock; stats()/submit() read
      // the stats under the same mutex. Deadlines belong to the home shard,
      // the batch to the worker that runs it.
      const int width = static_cast<int>(batch.size());
      home.stats.timeouts += static_cast<std::int64_t>(expired.size());
      if (width > 0) {
        ++own.stats.batches;
        own.stats.batch_width_max = std::max(own.stats.batch_width_max, width);
      }
      // Canary selection for an in-progress swap: a deterministic fraction
      // accumulator over the design's served-request sequence marks which
      // batch members get the extra candidate inference. Selection never
      // changes what the client receives — the incumbent always answers.
      // Canaries picked by batches still running elsewhere are reserved,
      // so concurrent batches never select more than canary_requests.
      DesignSlot* slot = width > 0 ? batch.front().slot : nullptr;
      std::shared_ptr<DesignEntry> candidate;
      std::int64_t swap_seq = 0;
      int reserved = 0;
      std::vector<char> canary_mask;
      if (slot != nullptr && slot->candidate &&
          batch.front().entry == slot->active) {
        candidate = slot->candidate;
        swap_seq = slot->swap_seq;
        canary_mask.assign(static_cast<std::size_t>(width), 0);
        const int pending = options_.canary_requests - slot->swap.canaried -
                            slot->canary_reserved;
        for (int i = 0; i < width && reserved < pending; ++i) {
          slot->canary_accum += options_.canary_fraction;
          if (slot->canary_accum >= 1.0) {
            slot->canary_accum -= 1.0;
            canary_mask[static_cast<std::size_t>(i)] = 1;
            ++reserved;
          }
        }
        slot->canary_reserved += reserved;
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
        resp.shard = from;
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
            resp.shard = self;
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
      own.stats.completed += delivered;
      if (reserved > 0 && slot->swap_seq == swap_seq) {
        slot->canary_reserved -= reserved;
      }
      if (candidate && slot->swap_seq == swap_seq &&
          slot->candidate == candidate) {
        // Fold this batch's canary verdicts into the swap (ignored when a
        // newer swap_artifact() superseded the candidate mid-flight, or a
        // concurrent batch already resolved it).
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
  /// Guards the queues, the stats, the registry, every design's swap state
  /// and the flags below. One lock lets a worker take a batch from any
  /// queue, and one condition variable lets a submit wake any idle worker.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<DesignSlot>> designs_;
  bool paused_ = false;
  bool stopping_ = false;
  std::vector<Shard> shards_;  ///< last: holds the worker threads
};

NoiseServer::NoiseServer(ServeOptions options)
    : options_(options), impl_(std::make_unique<Impl>(options_)) {}

NoiseServer::~NoiseServer() { shutdown(); }

DesignId NoiseServer::add_design(std::string name, const pdn::PowerGrid& grid,
                                 core::ModelArtifact artifact) {
  PDN_CHECK(artifact.model != nullptr,
            "NoiseServer::add_design: artifact has no model (was it peeked, "
            "not loaded?)");
  auto slot = std::make_unique<Impl::DesignSlot>();
  slot->name = std::move(name);
  slot->grid = &grid;
  slot->active =
      std::make_shared<Impl::DesignEntry>(grid, std::move(artifact));
  std::lock_guard<std::mutex> lock(impl_->mu_);
  PDN_CHECK(!impl_->stopping_, "NoiseServer::add_design: server is shut down");
  const DesignId id{static_cast<int>(impl_->designs_.size())};
  slot->id = id;
  slot->shard = id.value % options_.num_shards;
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

  Impl::DesignSlot* slot = nullptr;
  std::shared_ptr<Impl::DesignEntry> entry;
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    slot = &impl_->slot(design, "NoiseServer::submit");
    if (!impl_->stopping_) entry = slot->active;
  }

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
  if (!entry) return reject(Status::kShutdown);

  // Per-request compression runs on the caller's thread, overlapping with
  // the workers' fused forward passes and other clients' prepares.
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
    std::lock_guard<std::mutex> lock(impl_->mu_);
    Impl::Shard& home = impl_->shard(slot->shard);
    if (impl_->stopping_) {
      promise = std::move(request.promise);
      return reject(Status::kShutdown);
    }
    if (static_cast<int>(home.queue.size()) >= options_.queue_capacity) {
      ++home.stats.overloads;
      obs::counter_add(obs::Counter::kServeOverloads, 1);
      obs::flight_record(obs::FlightEventKind::kOverload, request_id,
                         slot->id.value, options_.queue_capacity);
      promise = std::move(request.promise);
      return reject(Status::kOverloaded);
    }
    home.queue.push_back(std::move(request));
    ++home.stats.requests;
    const int depth = static_cast<int>(home.queue.size());
    home.stats.queue_depth_max = std::max(home.stats.queue_depth_max, depth);
    obs::counter_add(obs::Counter::kServeRequests, 1);
    obs::counter_max(obs::Counter::kServeQueueDepthMax, depth);
    obs::hist_record(obs::Hist::kServeQueueDepth, depth);
    if (observing) home.queue_depth.record(depth);
    obs::flight_record(obs::FlightEventKind::kAdmit, request_id,
                       slot->id.value, depth);
  }
  impl_->cv_.notify_one();
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
  const pdn::PowerGrid* grid = nullptr;
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    grid = impl_->slot(design, "NoiseServer::swap_artifact").grid;
  }
  core::ModelArtifact artifact = core::load_artifact(path);
  PDN_CHECK(artifact.model != nullptr,
            "NoiseServer::swap_artifact: artifact has no model");
  const quant::ParamDtype incoming_dtype = artifact.dtype;
  auto entry = std::make_shared<Impl::DesignEntry>(*grid, std::move(artifact));
  const bool direct =
      options_.canary_fraction <= 0.0 || options_.canary_requests <= 0;

  std::lock_guard<std::mutex> lock(impl_->mu_);
  Impl::DesignSlot& slot = impl_->slot(design, "NoiseServer::swap_artifact");
  PDN_CHECK(!impl_->stopping_,
            "NoiseServer::swap_artifact: server is shut down");
  // A candidate storing weights in a different dtype than the incumbent
  // cannot reproduce the incumbent's bytes; canarying it needs an explicit
  // accuracy budget.
  if (!direct && incoming_dtype != slot.active->artifact.dtype) {
    PDN_CHECK(
        options_.swap_tolerance_volts > 0.0,
        "NoiseServer::swap_artifact: candidate dtype (" +
            std::string(quant::dtype_name(incoming_dtype)) +
            ") differs from the incumbent's (" +
            quant::dtype_name(slot.active->artifact.dtype) +
            "); canarying a cross-dtype swap requires "
            "ServeOptions::swap_tolerance_volts > 0 (or disable canarying "
            "to promote directly)");
  }
  ++slot.swap_seq;  // invalidates canary verdicts for a superseded swap
  slot.canary_accum = 0.0;
  slot.canary_reserved = 0;
  slot.swap = SwapReport{};
  obs::counter_add(obs::Counter::kServeSwapsBegun, 1);
  obs::flight_record(obs::FlightEventKind::kSwap, 0, slot.id.value,
                     direct ? 0 : options_.canary_requests);
  if (direct) {
    slot.active = std::move(entry);
    slot.candidate.reset();
    slot.swap.state = SwapState::kPromoted;
    obs::counter_add(obs::Counter::kServeSwapPromotes, 1);
    obs::flight_record(obs::FlightEventKind::kSwapPromote, 0, slot.id.value,
                       0);
  } else {
    slot.candidate = std::move(entry);
    slot.swap.state = SwapState::kCanarying;
  }
  return slot.swap;
}

SwapReport NoiseServer::swap_report(DesignId design) const {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  return impl_->slot(design, "NoiseServer::swap_report").swap;
}

void NoiseServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    impl_->stopping_ = true;
    impl_->paused_ = false;  // the drain must proceed even if paused
  }
  impl_->cv_.notify_all();
  bool joined = false;
  for (Impl::Shard& shard : impl_->shards_) {
    if (shard.worker.joinable()) {
      shard.worker.join();
      joined = true;
    }
  }
  if (joined) {
    obs::flight_record(obs::FlightEventKind::kShutdown, 0, 0,
                       stats().completed);
  }
}

void NoiseServer::pause() {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  impl_->paused_ = true;
}

void NoiseServer::resume() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    impl_->paused_ = false;
  }
  impl_->cv_.notify_all();
}

int NoiseServer::shard_of(DesignId design) const {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  return impl_->slot(design, "NoiseServer::shard_of").shard;
}

int NoiseServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  int depth = 0;
  for (const Impl::Shard& shard : impl_->shards_) {
    depth += static_cast<int>(shard.queue.size());
  }
  return depth;
}

int NoiseServer::shard_queue_depth(int shard) const {
  PDN_CHECK(shard >= 0 && shard < options_.num_shards,
            "NoiseServer::shard_queue_depth: unknown shard " +
                std::to_string(shard));
  std::lock_guard<std::mutex> lock(impl_->mu_);
  return static_cast<int>(impl_->shard(shard).queue.size());
}

NoiseServer::Stats NoiseServer::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  Stats total;
  for (const Impl::Shard& shard : impl_->shards_) {
    const Stats& s = shard.stats;
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
  std::lock_guard<std::mutex> lock(impl_->mu_);
  const Impl::Shard& s = impl_->shard(shard);
  ShardStats out;
  out.totals = s.stats;
  out.queue_depth = s.queue_depth;
  return out;
}

NoiseServer::DesignStats NoiseServer::design_stats(DesignId design) const {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  const Impl::DesignSlot& slot =
      impl_->slot(design, "NoiseServer::design_stats");
  DesignStats out;
  out.name = slot.name;
  out.completed = slot.completed;
  out.request_nanos = slot.request_nanos;
  return out;
}

}  // namespace pdnn::serve
