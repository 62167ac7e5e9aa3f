// Sharded multi-worker inference fleet (the "pdnn::serve" subsystem).
//
// A NoiseServer owns one ModelArtifact per registered design (model weights
// + spatial/temporal compressors + normalization, bundled by
// core::load_artifact) and `ServeOptions::num_shards` worker threads, each
// with one bounded FIFO queue. A design's requests queue on its home shard,
// `id % num_shards`, which also owns their admission control: a full home
// queue rejects with Status::kOverloaded without affecting designs homed
// elsewhere. A worker serves its own queue while it holds work; once it is
// empty, the worker takes its next batch from the front of the longest
// other queue, so the load spreads over every worker whatever the mix of
// designs. A batch is up to ServeOptions::max_batch same-artifact requests
// taken strictly from one queue's front. One server mutex guards every
// queue and every design's swap state, so batches of one design may run on
// several workers at once without a second lock.
//
// Client API: submit() runs the per-request compression
// (WorstCasePipeline::prepare) on the *caller's* thread, enqueues the
// prepared request on the design's home shard, and returns a movable Ticket
// without blocking; wait() blocks on the Ticket for the Response. The
// blocking predict() is the trivial composition wait(submit(...)). Open-loop
// load generators use submit()/wait() directly so arrivals are never gated
// on completions.
//
// Determinism: per-request outputs are bit-identical to a serial predict()
// at any shard count, client count, and batch width. Placement only changes
// *which* worker fuses a request and batching only changes which requests
// share a forward pass; conv lowers and multiplies each batch sample
// independently (pipeline.hpp), so neither changes per-request bits —
// locked in by the Serve/Swap tests.
//
// Artifact hot-swap: swap_artifact(design, path) loads a new PDNB artifact
// and installs it as a *candidate* for that design. While canarying, a
// configurable fraction of the design's traffic is additionally run through
// the candidate pipeline and its worst-case map is compared against the
// incumbent's on identical prepared inputs; the incumbent keeps answering
// every request. One rule judges every canaried swap: each node must agree
// within ServeOptions::swap_tolerance_volts, where 0 (the default) means the
// bytes must match exactly. After `canary_requests` clean comparisons the
// candidate is atomically promoted (new requests prepare and infer against
// it); one divergence rolls the candidate back. The SwapReport records the
// divergence count and the largest per-node divergence seen, so a rolled
// back retrained model shows the tolerance it would have needed. With
// canarying disabled (fraction <= 0 or target <= 0) the swap promotes
// immediately. In-flight requests always complete against the artifact they
// were prepared with, so a swap never drops, duplicates, or re-answers a
// request.
//
// A candidate whose weight storage differs from the incumbent's (e.g. an
// int8 PDNB v2 over the fp32 incumbent) can never reproduce its bytes, so
// starting a canaried cross-dtype swap at tolerance 0 throws: the operator
// must state the accuracy budget, it is never inferred.
//
// Robustness:
//   * Backpressure  — per-shard bounded queues; when a design's home queue
//     is full, submit() resolves the Ticket with Status::kOverloaded.
//   * Deadlines     — a request carries an optional deadline; if it is still
//     queued when the deadline passes the worker that dequeues it rejects
//     it with Status::kTimedOut instead of wasting a batch slot.
//   * Graceful drain — shutdown() stops accepting new requests, lets the
//     workers finish everything already queued, then joins them. The
//     destructor calls shutdown().
//
// Observability: every accepted request and executed batch bumps the
// serve.* counters and histograms; swap lifecycle events bump the
// serve.swap.* counters and land in the flight recorder (kSwap/kCanary/
// kSwapPromote/kSwapRollback), as do admissions, overloads, timeouts,
// batches, and the final shutdown. Per-shard queue-depth histograms and
// per-design latency histograms are server-local (shard_stats() /
// design_stats()) and accrue only while obs::enabled(); disabled
// instrumentation costs one relaxed atomic branch per site and never
// perturbs results.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/pipeline.hpp"
#include "obs/histogram.hpp"
#include "pdn/design.hpp"
#include "util/grid2d.hpp"
#include "vectors/current_trace.hpp"

namespace pdnn::serve {

/// Terminal state of one request.
enum class Status {
  kInvalid,     ///< default-constructed Response; the server never returns it
  kOk,          ///< noise map computed
  kOverloaded,  ///< rejected at enqueue: the design's home queue was full
  kTimedOut,    ///< rejected at dequeue: deadline passed while queued
  kShutdown,    ///< rejected: server is (or went) down
};

const char* to_string(Status status);

/// Typed design handle. add_design() mints them; a raw request count or
/// shard index no longer converts into a design id by accident.
struct DesignId {
  int value = -1;
  constexpr bool valid() const { return value >= 0; }
  friend constexpr bool operator==(DesignId a, DesignId b) {
    return a.value == b.value;
  }
  friend constexpr bool operator!=(DesignId a, DesignId b) {
    return !(a == b);
  }
};

struct ServeOptions {
  /// Worker threads, each with one queue. Design `id` queues on shard
  /// `id % num_shards`; a worker whose queue is empty takes batches from
  /// the longest other queue.
  int num_shards = 1;
  /// Widest fused micro-batch (requests per infer_batch call).
  int max_batch = 8;
  /// Per-shard bounded queue capacity; enqueue beyond this resolves the
  /// Ticket with kOverloaded.
  int queue_capacity = 64;
  /// Deadline applied when submit()/predict() is called without one;
  /// nullopt or <= 0 disables.
  std::optional<double> default_deadline_seconds{};
  /// Fraction of a design's traffic canaried against a swap candidate.
  double canary_fraction = 0.5;
  /// Clean canary comparisons required to promote a candidate; <= 0 (or
  /// canary_fraction <= 0) promotes immediately on swap_artifact().
  int canary_requests = 4;
  /// Absolute per-node noise-map tolerance (volts) every canaried swap is
  /// judged by. <= 0 means the candidate's maps must match the incumbent's
  /// bytes exactly, and a canaried swap to a different weight dtype (fp32
  /// vs int8/fp16) is refused.
  double swap_tolerance_volts = 0.0;
};

/// Result of one request. `noise` is defined iff status == kOk.
struct Response {
  Status status = Status::kInvalid;
  util::MapF noise;            ///< worst-case noise map (volts)
  double queue_seconds = 0.0;  ///< time spent waiting in the shard queue
  double infer_seconds = 0.0;  ///< wall time of the fused batch this rode in
  int batch_width = 0;         ///< width of that fused batch
  int kept_steps = 0;          ///< post-Algorithm-1 steps for this request
  int shard = -1;  ///< worker that served it; the home shard if rejected
  std::int64_t request_id = 0; ///< process-unique id tying traces/telemetry
};

/// Move-only handle to one in-flight request; redeem with
/// NoiseServer::wait(). A rejected submit (overload/shutdown) still yields a
/// valid Ticket whose wait() returns immediately.
class Ticket {
 public:
  Ticket() = default;
  Ticket(Ticket&&) = default;
  Ticket& operator=(Ticket&&) = default;

  /// True until wait() redeems it.
  bool valid() const { return future_.valid(); }
  std::int64_t request_id() const { return id_; }

 private:
  friend class NoiseServer;
  std::int64_t id_ = 0;
  std::int64_t begin_ns_ = 0;  ///< obs clock at submit; 0 when obs is off
  std::future<Response> future_;
};

/// Where a design's artifact hot-swap stands.
enum class SwapState {
  kNone,       ///< no swap ever initiated for the design
  kCanarying,  ///< candidate installed, comparisons in progress
  kPromoted,   ///< candidate promoted to incumbent
  kRolledBack, ///< candidate dropped after a divergence
};

const char* to_string(SwapState state);

struct SwapReport {
  SwapState state = SwapState::kNone;
  int canaried = 0;  ///< canary comparisons executed
  int diverged = 0;  ///< comparisons that failed (bytes or tolerance)
  /// Largest per-node |candidate - incumbent| (volts) across the swap's
  /// canary comparisons.
  double max_divergence_volts = 0.0;
};

class NoiseServer {
 public:
  explicit NoiseServer(ServeOptions options = {});
  ~NoiseServer();  ///< calls shutdown()

  NoiseServer(const NoiseServer&) = delete;
  NoiseServer& operator=(const NoiseServer&) = delete;

  /// Register a design. Takes ownership of the artifact (and its model);
  /// `grid` is captured by reference and must outlive the server. Call
  /// before issuing predictions for the returned id; thread-safe against
  /// concurrent submit()/predict() calls on other designs.
  DesignId add_design(std::string name, const pdn::PowerGrid& grid,
                      core::ModelArtifact artifact);

  /// Prepare one test vector on the calling thread and enqueue it on the
  /// design's home shard without blocking for the result. `deadline_seconds`
  /// nullopt uses ServeOptions::default_deadline_seconds; a value <= 0
  /// explicitly disables the deadline. Safe from many threads concurrently.
  Ticket submit(DesignId design, const vectors::CurrentTrace& trace,
                std::optional<double> deadline_seconds = std::nullopt);

  /// Block until the ticket's request reaches a terminal state and return
  /// its Response. Consumes the ticket (valid() becomes false).
  Response wait(Ticket& ticket);

  /// Blocking convenience: wait(submit(...)).
  Response predict(DesignId design, const vectors::CurrentTrace& trace,
                   std::optional<double> deadline_seconds = std::nullopt);

  /// Load a PDNB artifact from `path` and begin (or, with canarying
  /// disabled, immediately complete) a hot-swap for `design`. Returns the
  /// swap's state at return; poll swap_report() while traffic flows to see
  /// the canary resolve. A second swap_artifact() for the same design
  /// abandons any unresolved candidate and starts over.
  SwapReport swap_artifact(DesignId design, const std::string& path);

  /// Current swap state for `design`.
  SwapReport swap_report(DesignId design) const;

  /// Stop accepting requests, drain every shard, join the workers.
  /// Idempotent.
  void shutdown();

  /// Test hooks: while paused no shard dequeues, so tests can
  /// deterministically fill a queue (kOverloaded) or expire deadlines
  /// (kTimedOut). shutdown() resumes automatically so the drain completes.
  void pause();
  void resume();

  int num_shards() const { return options_.num_shards; }

  /// A design's home shard, `id % num_shards`: the queue its requests
  /// wait in and the admission control they face.
  int shard_of(DesignId design) const;

  /// Requests currently waiting across all shards (excludes any batch
  /// being executed).
  int queue_depth() const;
  /// Requests currently waiting on one shard.
  int shard_queue_depth(int shard) const;

  /// Server-local totals (the obs serve.* counters are process-global).
  /// Per shard, `requests`, `timeouts`, `overloads` and `queue_depth_max`
  /// count the shard's own queue; `completed`, `batches` and
  /// `batch_width_max` count what its worker served, from any queue.
  struct Stats {
    std::int64_t requests = 0;   ///< accepted into a shard queue
    std::int64_t completed = 0;  ///< served with kOk
    std::int64_t batches = 0;    ///< fused batches executed
    std::int64_t timeouts = 0;   ///< rejected with kTimedOut
    std::int64_t overloads = 0;  ///< rejected with kOverloaded
    int batch_width_max = 0;     ///< widest fused batch
    int queue_depth_max = 0;     ///< deepest observed single-shard queue
  };
  /// Aggregate over all shards (sums; maxes of the high-water marks).
  Stats stats() const;

  /// One shard's totals plus its queue-depth distribution sampled at each
  /// admission (histogram populated only while obs::enabled()).
  struct ShardStats {
    Stats totals;
    obs::Histogram queue_depth;
  };
  ShardStats shard_stats(int shard) const;

  /// Per-design serving breakdown, populated only while obs::enabled():
  /// completed-request count and the end-to-end latency histogram for one
  /// registered design (deterministic — see histogram.hpp).
  struct DesignStats {
    std::string name;
    std::int64_t completed = 0;
    obs::Histogram request_nanos;
  };
  DesignStats design_stats(DesignId design) const;

  const ServeOptions& options() const { return options_; }

 private:
  struct Impl;
  ServeOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pdnn::serve
