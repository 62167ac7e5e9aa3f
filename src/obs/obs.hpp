// Instrumentation subsystem: trace spans, counters, and a structured log
// sink (DESIGN.md §9). Latency histograms live in obs/histogram.hpp and the
// production telemetry sinks (metrics snapshotter, Prometheus exposition,
// flight recorder, shutdown flush) in obs/telemetry.hpp (DESIGN.md §13).
//
// Three layers, all guarded by one process-wide enable flag so that disabled
// instrumentation costs a single relaxed atomic load and branch per call
// site (locked in by the memcmp overhead tests in tests/test_obs.cpp):
//
//   * TraceSpan — scoped spans recorded into per-thread ring buffers and
//     exported as Chrome trace-event JSON (Perfetto / chrome://tracing).
//     Enabled via --trace FILE on the bench harnesses or PDNN_TRACE=FILE.
//   * Counter  — named integer counters and max-gauges (Cholesky solves,
//     solve batch widths, GEMM FLOPs, im2col scratch bytes, thread-pool
//     work). Integer adds and maxes are associative and commutative, so the
//     aggregated values are deterministic for any thread count.
//   * log()    — mutex-guarded stdout sink so per-epoch progress lines never
//     interleave with worker-thread output.
//
// Instrumentation never feeds values back into computation, so enabling it
// cannot perturb numerical results at any thread count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace pdnn::obs {

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Counter identities. Monotonic totals unless named *Max, which are
/// high-water-mark gauges updated via counter_max().
enum class Counter : int {
  kPoolRuns,            ///< ThreadPool::run invocations (any path)
  kPoolChunks,          ///< chunks submitted across all runs (queue volume)
  kPoolChunkNanos,      ///< summed wall time inside chunk bodies (latency)
  kPoolChunksPerRunMax, ///< largest single-run chunk count (queue depth)
  kCholSolves,          ///< band-Cholesky solve_multi calls
  kCholSolveColumns,    ///< right-hand sides solved (batch widths summed)
  kCholBatchWidthMax,   ///< widest multi-RHS block
  kGemmCalls,           ///< gemm_{nn,tn} calls
  kGemmFlops,           ///< 2*m*n*k multiply-add FLOPs summed
  kGemmAvx2Calls,       ///< gemm calls dispatched to the AVX2 backend
  kGemmS8Calls,         ///< retired: int8 artifacts run the fp32 kernels,
                        ///< so nothing increments it; perfbench still
                        ///< reports it (as 0)
  kKernelPackedBytes,   ///< bytes staged into packed B panels / conv planes
  kConvIm2colBytesMax,  ///< largest per-thread im2col scratch buffer
  kConvFusedCalls,      ///< conv samples computed by the fused 3x3 path
  kSimTraces,           ///< transient traces solved
  kSimSteps,            ///< backward-Euler steps across all traces
  kSimBatchWidthMax,    ///< widest lockstep transient batch
  kTrainEpochs,         ///< training epochs completed
  kTrainSamples,        ///< sample visits across all epochs
  kServeRequests,       ///< NoiseServer requests accepted into the queue
  kServeBatches,        ///< fused micro-batches executed by the worker
  kServeBatchWidthMax,  ///< widest fused micro-batch
  kServeQueueDepthMax,  ///< deepest observed request queue
  kServeTimeouts,       ///< requests rejected past their deadline
  kServeOverloads,      ///< requests rejected because a shard queue was full
  kServeShardsMax,      ///< shards configured on the widest serving fleet
  kServeSwapsBegun,     ///< artifact hot-swaps initiated
  kServeSwapCanaries,   ///< canary comparisons executed against a candidate
  kServeSwapDivergences,///< canary comparisons whose output bytes diverged
  kServeSwapPromotes,   ///< candidate artifacts atomically promoted
  kServeSwapRollbacks,  ///< candidate artifacts rolled back on divergence
  kStoreHits,           ///< run-store lookups served from a verified chunk
  kStoreMisses,         ///< run-store lookups that fell through to compute
  kStoreWrites,         ///< chunks persisted into the run store
  kStoreEvicts,         ///< corrupt/unreadable chunks dropped (miss, not crash)
  kCount
};

constexpr int kCounterCount = static_cast<int>(Counter::kCount);

/// Stable dotted name ("gemm.flops") used in metrics JSON.
const char* counter_name(Counter c);

/// True for high-water-mark gauges (reported as values, not deltas).
bool counter_is_gauge(Counter c);

namespace detail {

extern std::atomic<bool> g_enabled;
extern std::array<std::atomic<std::int64_t>, kCounterCount> g_counters;

/// Nanoseconds on the steady clock since the process-local trace epoch.
std::int64_t now_ns();

/// Append one completed span to the calling thread's ring buffer.
/// `name` and `arg_name` must be string literals (stored by pointer).
void record_span(const char* name, std::int64_t begin_ns, std::int64_t end_ns,
                 const char* arg_name, std::int64_t arg_value);

}  // namespace detail

/// Whether instrumentation is collecting. The only cost at every
/// instrumentation site when disabled.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turn collection on or off (tests, bench setup). PDNN_TRACE=FILE or
/// PDNN_OBS=1 in the environment enable it before main().
void set_enabled(bool on);

/// Whether a PDNN_OBS value turns collection on. Unset (null), empty, 0 or
/// a negative integer mean off; an integer >= 1 means on. Anything else
/// (trailing characters, garbage, out of int range) throws a
/// util::CheckError naming PDNN_OBS and the text. The variable is read
/// before main(), where such a value stops the process with that message.
bool obs_env_enabled(const char* value);

/// counter += delta when enabled; no-op (one relaxed branch) otherwise.
inline void counter_add(Counter c, std::int64_t delta) {
  if (!enabled()) return;
  detail::g_counters[static_cast<std::size_t>(c)].fetch_add(
      delta, std::memory_order_relaxed);
}

/// counter = max(counter, value) when enabled.
inline void counter_max(Counter c, std::int64_t value) {
  if (!enabled()) return;
  std::atomic<std::int64_t>& slot =
      detail::g_counters[static_cast<std::size_t>(c)];
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

std::int64_t counter_value(Counter c);
void reset_counters();

/// Point-in-time copy of every counter, for before/after deltas.
using CounterSnapshot = std::array<std::int64_t, kCounterCount>;
CounterSnapshot snapshot_counters();

/// One counter's reading over a window: delta for totals, end value for
/// gauges.
std::int64_t counter_reading(const CounterSnapshot& before,
                             const CounterSnapshot& after, Counter c);

/// {"gemm.flops": 1234, ...} over a before/after window, skipping
/// counters that stayed zero.
JsonValue counters_json(const CounterSnapshot& before,
                        const CounterSnapshot& after);

/// Same, from process start (all counters since the last reset).
JsonValue counters_json();

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// Scoped trace span. Costs one relaxed load when disabled; two clock reads
/// and one ring-buffer store when enabled. Name (and the optional argument
/// name) must be string literals.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (enabled()) {
      name_ = name;
      begin_ = detail::now_ns();
    }
  }
  TraceSpan(const char* name, const char* arg_name, std::int64_t arg_value)
      : arg_name_(arg_name), arg_value_(arg_value) {
    if (enabled()) {
      name_ = name;
      begin_ = detail::now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      detail::record_span(name_, begin_, detail::now_ns(), arg_name_,
                          arg_value_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  std::int64_t begin_ = 0;
  std::int64_t arg_value_ = 0;
};

/// Always-on stage stopwatch feeding both the public timing structs
/// (PredictionTiming, TrainReport::seconds, bench tables) and — when tracing
/// is enabled — the trace, from the same pair of clock readings. Successive
/// lap() calls are contiguous: their durations sum exactly to the elapsed
/// wall time, which is what makes per-stage metrics add up to the total.
class StageTimer {
 public:
  StageTimer() : begin_(detail::now_ns()) {}

  void reset() { begin_ = detail::now_ns(); }

  /// Seconds since construction or the last reset()/lap().
  double seconds() const {
    return static_cast<double>(detail::now_ns() - begin_) * 1e-9;
  }

  /// Close the current stage: record a span named `name` covering it (when
  /// tracing), restart the timer at the stage boundary, and return the
  /// stage's duration in seconds.
  double lap(const char* name) {
    const std::int64_t end = detail::now_ns();
    const double sec = static_cast<double>(end - begin_) * 1e-9;
    if (enabled()) record_lap(name, begin_, end);
    begin_ = end;
    return sec;
  }

 private:
  static void record_lap(const char* name, std::int64_t begin,
                         std::int64_t end) {
    detail::record_span(name, begin, end, nullptr, 0);
  }
  std::int64_t begin_;
};

/// Path the trace will be written to; enables collection. PDNN_TRACE=FILE
/// does the same before main() and also registers an at-exit writer.
void set_trace_path(const std::string& path);
const std::string& trace_path();

/// Serialize every recorded span as a Chrome trace-event JSON document.
/// Events are sorted per thread by start time (monotonic ts per tid). Must
/// not race with in-flight spans; call between parallel regions.
std::string trace_json();

/// Write trace_json() to `path` (or the configured trace_path()). Returns
/// false if no path is available or the file cannot be written.
bool write_trace(const std::string& path);
bool write_trace();

/// Drop every recorded span (tests).
void clear_trace();

// ---------------------------------------------------------------------------
// Log sink
// ---------------------------------------------------------------------------

/// Write one line to stdout atomically (a trailing newline is appended).
void log(const std::string& line);

/// printf-style log(); the formatted line is emitted under the sink mutex so
/// concurrent writers never interleave characters.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
void logf(const char* fmt, ...);

}  // namespace pdnn::obs
