#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/spec.hpp"
#include "obs/telemetry.hpp"
#include "util/cli.hpp"

namespace pdnn::obs {

namespace {

/// One completed span. Names are string literals, stored by pointer.
struct TraceEvent {
  const char* name;
  const char* arg_name;
  std::int64_t begin_ns;
  std::int64_t end_ns;
  std::int64_t arg_value;
};

/// Events kept per thread before the ring starts overwriting the oldest.
constexpr std::size_t kRingCapacity = 1 << 15;

// The registry mirrors the conv-scratch pattern: per-thread buffers
// self-register, retire their events into a global list when the thread
// exits (pool resize), and the registry itself is intentionally leaked so
// worker thread_local destructors running during static teardown stay safe.
struct ThreadBuffer {
  ThreadBuffer();
  ~ThreadBuffer();

  void record(const TraceEvent& ev) {
    if (ring.size() < kRingCapacity) {
      ring.push_back(ev);
    } else {
      ring[next] = ev;
      next = (next + 1) % kRingCapacity;
      dropped = true;
    }
  }

  int tid = 0;
  std::vector<TraceEvent> ring;
  std::size_t next = 0;
  bool dropped = false;
};

struct Registry {
  std::mutex mu;
  int next_tid = 0;
  std::vector<ThreadBuffer*> buffers;
  /// (tid, events) of exited threads.
  std::vector<std::pair<int, std::vector<TraceEvent>>> retired;
};

Registry& registry() {
  static auto* r = new Registry();
  return *r;
}

ThreadBuffer::ThreadBuffer() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  tid = r.next_tid++;
  r.buffers.push_back(this);
}

ThreadBuffer::~ThreadBuffer() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.buffers.erase(std::remove(r.buffers.begin(), r.buffers.end(), this),
                  r.buffers.end());
  if (!ring.empty()) r.retired.emplace_back(tid, std::move(ring));
}

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

std::mutex& path_mutex() {
  static auto* mu = new std::mutex();
  return *mu;
}

std::string& trace_path_slot() {
  static auto* path = new std::string();
  return *path;
}

std::mutex& log_mutex() {
  static auto* mu = new std::mutex();
  return *mu;
}

/// Reads PDNN_TRACE / PDNN_OBS before main() (static init is
/// single-threaded, so no synchronization hazards). set_trace_path installs
/// the shutdown flush hooks, so the env-enabled trace is written on exit.
/// An invalid PDNN_OBS ends the process here with the parse error: a
/// CheckError escaping a static initializer would reach std::terminate
/// without a word of what was wrong.
struct EnvInit {
  EnvInit() {
    bool obs_on = false;
    try {
      obs_on = obs_env_enabled(std::getenv("PDNN_OBS"));
    } catch (const util::CheckError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(EXIT_FAILURE);
    }
    if (const char* path = std::getenv("PDNN_TRACE");
        path != nullptr && *path != '\0') {
      set_trace_path(path);
    } else if (obs_on) {
      set_enabled(true);
    }
  }
};
EnvInit env_init;

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{false};
std::array<std::atomic<std::int64_t>, kCounterCount> g_counters{};

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void record_span(const char* name, std::int64_t begin_ns, std::int64_t end_ns,
                 const char* arg_name, std::int64_t arg_value) {
  thread_buffer().record({name, arg_name, begin_ns, end_ns, arg_value});
}

}  // namespace detail

namespace {

/// Compile-time per-counter spec: dotted export name plus the total/gauge
/// distinction, in Counter declaration order. A Counter added to the enum
/// without a row here leaves `name` null and fails the static_asserts, so
/// blank names and missing counter_is_gauge() entries cannot compile.
struct CounterSpec {
  const char* name = nullptr;
  bool gauge = false;
};

constexpr std::array<CounterSpec, kCounterCount> kCounterSpecs = {{
    {"pool.runs", false},
    {"pool.chunks", false},
    {"pool.chunk_nanos", false},
    {"pool.chunks_per_run_max", true},
    {"cholesky.solves", false},
    {"cholesky.solve_columns", false},
    {"cholesky.batch_width_max", true},
    {"gemm.calls", false},
    {"gemm.flops", false},
    {"gemm.avx2", false},
    {"gemm.s8", false},
    {"kernel.packed_bytes", false},
    {"conv.im2col_bytes_max", true},
    {"conv.fused", false},
    {"sim.traces", false},
    {"sim.steps", false},
    {"sim.batch_width_max", true},
    {"train.epochs", false},
    {"train.samples", false},
    {"serve.requests", false},
    {"serve.batches", false},
    {"serve.batch_width_max", true},
    {"serve.queue_depth_max", true},
    {"serve.timeouts", false},
    {"serve.overloads", false},
    {"serve.shard.count_max", true},
    {"serve.swap.begun", false},
    {"serve.swap.canaries", false},
    {"serve.swap.divergences", false},
    {"serve.swap.promoted", false},
    {"serve.swap.rolled_back", false},
    {"store.hit", false},
    {"store.miss", false},
    {"store.write", false},
    {"store.evict", false},
}};

static_assert(detail::specs_named_and_dotted(kCounterSpecs),
              "every Counter below kCount needs a non-empty dotted name");
static_assert(detail::specs_unique(kCounterSpecs),
              "Counter names must be unique");

}  // namespace

const char* counter_name(Counter c) {
  return kCounterSpecs[static_cast<std::size_t>(c)].name;
}

bool counter_is_gauge(Counter c) {
  return kCounterSpecs[static_cast<std::size_t>(c)].gauge;
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool obs_env_enabled(const char* value) {
  if (value == nullptr || *value == '\0') return false;
  return util::parse_number<int>("PDNN_OBS", value, "an integer") >= 1;
}

std::int64_t counter_value(Counter c) {
  return detail::g_counters[static_cast<std::size_t>(c)].load(
      std::memory_order_relaxed);
}

void reset_counters() {
  for (auto& slot : detail::g_counters) {
    slot.store(0, std::memory_order_relaxed);
  }
}

CounterSnapshot snapshot_counters() {
  CounterSnapshot snap;
  for (int i = 0; i < kCounterCount; ++i) {
    snap[static_cast<std::size_t>(i)] =
        detail::g_counters[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
  }
  return snap;
}

std::int64_t counter_reading(const CounterSnapshot& before,
                             const CounterSnapshot& after, Counter c) {
  const auto i = static_cast<std::size_t>(c);
  return counter_is_gauge(c) ? after[i] : after[i] - before[i];
}

JsonValue counters_json(const CounterSnapshot& before,
                        const CounterSnapshot& after) {
  JsonValue out = JsonValue::object();
  for (int i = 0; i < kCounterCount; ++i) {
    const Counter c = static_cast<Counter>(i);
    const std::int64_t v = counter_reading(before, after, c);
    if (v != 0) out.set(counter_name(c), v);
  }
  return out;
}

JsonValue counters_json() {
  return counters_json(CounterSnapshot{}, snapshot_counters());
}

void set_trace_path(const std::string& path) {
  {
    const std::lock_guard<std::mutex> lock(path_mutex());
    trace_path_slot() = path;
  }
  if (!path.empty()) {
    set_enabled(true);
    // The trace must land on disk even when the process dies on an
    // uncaught CheckError before the driver's own writer runs.
    register_shutdown_hooks();
  }
}

const std::string& trace_path() {
  const std::lock_guard<std::mutex> lock(path_mutex());
  return trace_path_slot();
}

std::string trace_json() {
  // Gather every (tid, events) group, live and retired, then sort each
  // thread's events by start time: spans are recorded at their *end*, so a
  // nesting parent lands after its children even though it began earlier.
  std::vector<std::pair<int, std::vector<TraceEvent>>> groups;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (const ThreadBuffer* buffer : r.buffers) {
      if (!buffer->ring.empty()) groups.emplace_back(buffer->tid, buffer->ring);
    }
    for (const auto& retired : r.retired) groups.push_back(retired);
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (auto& group : groups) {
    std::sort(group.second.begin(), group.second.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.begin_ns < b.begin_ns;
              });
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"thread-%d\"}}",
                  group.first, group.first);
    out += buf;
    for (const TraceEvent& ev : group.second) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"pdnn\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                    ev.name, group.first,
                    static_cast<double>(ev.begin_ns) * 1e-3,
                    static_cast<double>(ev.end_ns - ev.begin_ns) * 1e-3);
      out += buf;
      if (ev.arg_name != nullptr) {
        std::snprintf(buf, sizeof(buf), ",\"args\":{\"%s\":%lld}", ev.arg_name,
                      static_cast<long long>(ev.arg_value));
        out += buf;
      }
      out += '}';
    }
  }
  out += "\n]}\n";
  return out;
}

bool write_trace(const std::string& path) {
  if (path.empty()) return false;
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << trace_json();
  return static_cast<bool>(file);
}

bool write_trace() { return write_trace(trace_path()); }

void clear_trace() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (ThreadBuffer* buffer : r.buffers) {
    buffer->ring.clear();
    buffer->next = 0;
    buffer->dropped = false;
  }
  r.retired.clear();
}

void log(const std::string& line) {
  const std::lock_guard<std::mutex> lock(log_mutex());
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void logf(const char* fmt, ...) {
  char stack_buf[512];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args_copy);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof(stack_buf)) {
    va_end(args_copy);
    log(std::string(stack_buf, static_cast<std::size_t>(n)));
    return;
  }
  std::string heap_buf(static_cast<std::size_t>(n) + 1, '\0');
  std::vsnprintf(heap_buf.data(), heap_buf.size(), fmt, args_copy);
  va_end(args_copy);
  heap_buf.resize(static_cast<std::size_t>(n));
  log(heap_buf);
}

}  // namespace pdnn::obs
