// Observability subsystem (DESIGN.md §9, §13): the overhead contract
// (disabled instrumentation leaves every numerical output bit-identical),
// trace JSON well-formedness with per-thread monotonic timestamps,
// thread-count independence of the aggregated counters and histograms, and
// the telemetry sinks (metrics snapshotter, Prometheus exposition, flight
// recorder). The Hist*/Telemetry* suites are named for the TSan CI regex.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "nn/conv.hpp"
#include "nn/ops.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pdnn {
namespace {

using nn::PadMode;
using nn::Tensor;
using nn::Var;

/// Restore the default global pool when a test returns.
struct PoolGuard {
  explicit PoolGuard(int threads) {
    util::ThreadPool::set_global_threads(threads);
  }
  ~PoolGuard() { util::ThreadPool::set_global_threads(0); }
};

/// Leave the process-wide instrumentation state exactly as the test found it
/// would want it: disabled, zeroed, and with an empty span store.
struct ObsGuard {
  ObsGuard() { reset(); }
  ~ObsGuard() { reset(); }
  static void reset() {
    obs::set_enabled(false);
    obs::reset_counters();
    obs::reset_histograms();
    obs::clear_trace();
    obs::flight().clear();
    obs::flight().set_dump_path("");
  }
};

bool bit_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal());
  }
  return t;
}

pdn::DesignSpec tiny_spec() {
  pdn::DesignSpec s;
  s.name = "tiny";
  s.tile_rows = 5;
  s.tile_cols = 5;
  s.nodes_per_tile = 2;
  s.top_stride = 3;
  s.bump_pitch = 2;
  s.num_loads = 12;
  s.unit_current = 5e-3;
  s.seed = 31;
  return s;
}

/// A workload touching every instrumented layer: golden-dataset simulation
/// (band Cholesky, transient stepping, thread pool) plus a conv training
/// step (GEMM, im2col scratch, autograd).
struct WorkloadOutputs {
  core::RawDataset data;
  Tensor loss, gx, gw, gb;
};

WorkloadOutputs run_workload() {
  WorkloadOutputs out;
  {
    const pdn::PowerGrid grid(tiny_spec());
    const sim::TransientSimulator simulator(grid, {});
    vectors::VectorGenParams params;
    params.num_steps = 16;
    vectors::TestVectorGenerator gen(grid, params, 55);
    out.data = core::simulate_dataset(grid, simulator, gen, 4);
  }
  {
    util::Rng rng(31);
    const Tensor x = random_tensor({4, 3, 12, 10}, rng);
    const Tensor w = random_tensor({4, 3, 3, 3}, rng);
    const Tensor b = random_tensor({4}, rng);
    const Tensor target = random_tensor({4, 4, 12, 10}, rng);
    Var vx(x.clone(), /*requires_grad=*/true);
    Var vw(w.clone(), /*requires_grad=*/true);
    Var vb(b.clone(), /*requires_grad=*/true);
    Var loss =
        nn::l1_loss(nn::conv2d(vx, vw, vb, 1, 1, PadMode::kReplicate), target);
    loss.backward();
    out.loss = loss.value().clone();
    out.gx = vx.node()->grad.clone();
    out.gw = vw.node()->grad.clone();
    out.gb = vb.node()->grad.clone();
  }
  return out;
}

void expect_outputs_bit_equal(const WorkloadOutputs& a,
                              const WorkloadOutputs& b, const char* what) {
  ASSERT_EQ(a.data.samples.size(), b.data.samples.size()) << what;
  for (std::size_t i = 0; i < a.data.samples.size(); ++i) {
    const core::RawSample& sa = a.data.samples[i];
    const core::RawSample& sb = b.data.samples[i];
    EXPECT_TRUE(bit_equal(sa.truth.data(), sb.truth.data(),
                          sa.truth.storage().size()))
        << what << ": truth map " << i;
    ASSERT_EQ(sa.current_maps.size(), sb.current_maps.size()) << what;
    for (std::size_t t = 0; t < sa.current_maps.size(); ++t) {
      EXPECT_TRUE(bit_equal(sa.current_maps[t].data(),
                            sb.current_maps[t].data(),
                            sa.current_maps[t].storage().size()))
          << what << ": sample " << i << " map " << t;
    }
  }
  EXPECT_TRUE(bit_equal(a.loss.data(), b.loss.data(),
                        static_cast<std::size_t>(a.loss.numel())))
      << what << ": loss";
  EXPECT_TRUE(bit_equal(a.gx.data(), b.gx.data(),
                        static_cast<std::size_t>(a.gx.numel())))
      << what << ": dX";
  EXPECT_TRUE(bit_equal(a.gw.data(), b.gw.data(),
                        static_cast<std::size_t>(a.gw.numel())))
      << what << ": dW";
  EXPECT_TRUE(bit_equal(a.gb.data(), b.gb.data(),
                        static_cast<std::size_t>(a.gb.numel())))
      << what << ": db";
}

/// Minimal recursive-descent JSON syntax validator (no value tree — the
/// tests only need "is this parseable" plus targeted field scans).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- PDNN_OBS --------------------------------------------------------------

TEST(ObsEnv, UnsetEmptyZeroMeanOffAndPositiveIntegersOn) {
  EXPECT_FALSE(obs::obs_env_enabled(nullptr));
  EXPECT_FALSE(obs::obs_env_enabled(""));
  EXPECT_FALSE(obs::obs_env_enabled("0"));
  EXPECT_FALSE(obs::obs_env_enabled("-3"));
  EXPECT_TRUE(obs::obs_env_enabled("1"));
  EXPECT_TRUE(obs::obs_env_enabled("12"));
}

TEST(ObsEnv, RejectsAnythingButAWholeIntegerNamingTheVariable) {
  for (const char* text : {"1x", "abc", "99999999999", " 1", "1.0"}) {
    try {
      obs::obs_env_enabled(text);
      ADD_FAILURE() << "PDNN_OBS='" << text << "' was accepted";
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("PDNN_OBS"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + text + "'"), std::string::npos)
          << what;
    }
  }
}

TEST(ObsEnv, InvalidValueStopsTheProcessBeforeMainWithTheParseError) {
  // PDNN_OBS is read by a static initializer, so the check needs a fresh
  // process: this test binary, listing its tests under a bad value.
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const std::string cmd = "PDNN_OBS=1x '" + self + "' --gtest_list_tests 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) != 0) << status;
  EXPECT_NE(output.find("PDNN_OBS: '1x' is not an integer"), std::string::npos)
      << output;
  EXPECT_EQ(output.find("ObsEnv."), std::string::npos) << output;
}

// --- Counters --------------------------------------------------------------

TEST(ObsCounters, DisabledCallsAreNoOps) {
  ObsGuard guard;
  obs::counter_add(obs::Counter::kSimSteps, 40);
  obs::counter_max(obs::Counter::kCholBatchWidthMax, 16);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSimSteps), 0);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCholBatchWidthMax), 0);

  obs::set_enabled(true);
  obs::counter_add(obs::Counter::kSimSteps, 40);
  obs::counter_add(obs::Counter::kSimSteps, 2);
  obs::counter_max(obs::Counter::kCholBatchWidthMax, 16);
  obs::counter_max(obs::Counter::kCholBatchWidthMax, 8);  // below the max
  EXPECT_EQ(obs::counter_value(obs::Counter::kSimSteps), 42);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCholBatchWidthMax), 16);
}

TEST(ObsCounters, ReadingIsDeltaForTotalsAndEndValueForGauges) {
  ObsGuard guard;
  obs::set_enabled(true);
  obs::counter_add(obs::Counter::kGemmCalls, 5);
  obs::counter_max(obs::Counter::kSimBatchWidthMax, 4);
  const obs::CounterSnapshot before = obs::snapshot_counters();
  obs::counter_add(obs::Counter::kGemmCalls, 3);
  obs::counter_max(obs::Counter::kSimBatchWidthMax, 2);  // high water stays 4
  const obs::CounterSnapshot after = obs::snapshot_counters();

  EXPECT_EQ(obs::counter_reading(before, after, obs::Counter::kGemmCalls), 3);
  EXPECT_EQ(
      obs::counter_reading(before, after, obs::Counter::kSimBatchWidthMax), 4);

  // counters_json reports dotted names and skips untouched counters.
  const std::string json = obs::counters_json(before, after).dump();
  EXPECT_NE(json.find("\"gemm.calls\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sim.batch_width_max\": 4"), std::string::npos) << json;
  EXPECT_EQ(json.find("sim.steps"), std::string::npos) << json;
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << json;
}

TEST(ObsCounters, EveryCounterHasAStableUniqueName) {
  // The compile-time spec tables already reject blank/missing/duplicate
  // names; this locks the runtime view of the same contract.
  for (int i = 0; i < obs::kCounterCount; ++i) {
    const char* name = obs::counter_name(static_cast<obs::Counter>(i));
    EXPECT_STRNE(name, "?") << "counter " << i;
    EXPECT_NE(std::strchr(name, '.'), nullptr) << name;
    for (int j = i + 1; j < obs::kCounterCount; ++j) {
      EXPECT_STRNE(name, obs::counter_name(static_cast<obs::Counter>(j)))
          << "counters " << i << " and " << j << " share a name";
    }
  }
}

TEST(ObsCounters, DeterministicAcrossThreadCounts) {
  ObsGuard guard;
  obs::set_enabled(true);

  obs::CounterSnapshot per_thread_counts[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    obs::reset_counters();
    PoolGuard pool(thread_counts[i]);
    run_workload();
    per_thread_counts[i] = obs::snapshot_counters();
  }

  for (int c = 0; c < obs::kCounterCount; ++c) {
    const auto counter = static_cast<obs::Counter>(c);
    // Wall-time sums are the one intentionally nondeterministic reading.
    if (counter == obs::Counter::kPoolChunkNanos) continue;
    EXPECT_EQ(per_thread_counts[0][static_cast<std::size_t>(c)],
              per_thread_counts[1][static_cast<std::size_t>(c)])
        << obs::counter_name(counter) << " differs between 1 and 4 threads";
  }
  // The workload must actually have exercised the solver and NN layers for
  // the comparison above to mean anything.
  EXPECT_GT(per_thread_counts[0][static_cast<std::size_t>(
                obs::Counter::kCholSolveColumns)],
            0);
  EXPECT_GT(
      per_thread_counts[0][static_cast<std::size_t>(obs::Counter::kGemmFlops)],
      0);
  EXPECT_GT(
      per_thread_counts[0][static_cast<std::size_t>(obs::Counter::kSimSteps)],
      0);
}

// --- Overhead contract -------------------------------------------------------

TEST(ObsOverhead, OutputsBitIdenticalWithTracingOnAndOff) {
  ObsGuard guard;
  for (int threads : {1, 8}) {
    PoolGuard pool(threads);

    obs::set_enabled(false);
    const WorkloadOutputs off = run_workload();

    obs::set_enabled(true);
    const WorkloadOutputs on = run_workload();
    obs::set_enabled(false);

    const std::string what =
        "tracing on vs off, " + std::to_string(threads) + " threads";
    expect_outputs_bit_equal(off, on, what.c_str());
  }
}

TEST(ObsOverhead, OutputsBitIdenticalWithTelemetrySinksActive) {
  // The strongest form of the overhead contract: a live snapshotter thread
  // sampling concurrently plus an armed flight recorder must not perturb a
  // single output bit relative to a fully disabled run.
  ObsGuard guard;
  const std::string dir = testing::TempDir() + "obs_overhead_telemetry";
  for (int threads : {1, 8}) {
    PoolGuard pool(threads);

    obs::set_enabled(false);
    const WorkloadOutputs off = run_workload();

    WorkloadOutputs on;
    {
      obs::SnapshotterOptions options;
      options.dir = dir;
      options.interval_seconds = 0.005;
      obs::MetricsSnapshotter snapshotter(options);  // enables obs
      obs::flight().set_dump_path(dir + "/flight.json");
      on = run_workload();
      snapshotter.stop();
    }
    obs::set_enabled(false);
    obs::flight().set_dump_path("");

    const std::string what =
        "telemetry on vs off, " + std::to_string(threads) + " threads";
    expect_outputs_bit_equal(off, on, what.c_str());
  }
  std::filesystem::remove_all(dir);
}

// --- Trace export ------------------------------------------------------------

TEST(ObsTrace, JsonIsWellFormedWithMonotonicPerThreadTimestamps) {
  ObsGuard guard;
  obs::set_enabled(true);
  {
    PoolGuard pool(4);
    run_workload();
  }
  {
    obs::TraceSpan span("test.outer", "value", 7);
    obs::TraceSpan inner("test.inner");
  }
  const std::string json = obs::trace_json();
  obs::set_enabled(false);

  JsonValidator v(json);
  ASSERT_TRUE(v.valid());
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  for (const char* name :
       {"pool.run", "pool.chunk", "chol.solve_multi", "conv2d.forward",
        "test.outer", "test.inner"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << "missing span " << name;
  }

  // Events are emitted one per line; "X" events must be sorted by ts within
  // each tid (chrome://tracing / Perfetto require begin-time order).
  std::istringstream lines(json);
  std::string line;
  std::map<int, double> last_ts;
  int events = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const std::size_t tid_pos = line.find("\"tid\":");
    const std::size_t ts_pos = line.find("\"ts\":");
    ASSERT_NE(tid_pos, std::string::npos) << line;
    ASSERT_NE(ts_pos, std::string::npos) << line;
    const int tid = std::atoi(line.c_str() + tid_pos + 6);
    const double ts = std::atof(line.c_str() + ts_pos + 5);
    ASSERT_GE(ts, 0.0) << line;
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "ts went backwards on tid " << tid;
    }
    last_ts[tid] = ts;
    ++events;
  }
  EXPECT_GT(events, 10);
}

TEST(ObsTrace, WriteTraceRoundTrips) {
  ObsGuard guard;
  obs::set_enabled(true);
  { obs::TraceSpan span("test.write", "n", 3); }
  obs::set_enabled(false);

  const std::string path = "test_obs_trace.json";
  ASSERT_TRUE(obs::write_trace(path));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  file.close();
  std::remove(path.c_str());

  const std::string json = buffer.str();
  JsonValidator v(json);
  EXPECT_TRUE(v.valid());
  EXPECT_NE(json.find("\"test.write\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":3}"), std::string::npos);
}

TEST(ObsTrace, ClearTraceDropsEverything) {
  ObsGuard guard;
  obs::set_enabled(true);
  { obs::TraceSpan span("test.dropme"); }
  obs::clear_trace();
  const std::string json = obs::trace_json();
  obs::set_enabled(false);
  EXPECT_EQ(json.find("test.dropme"), std::string::npos);
}

// --- StageTimer --------------------------------------------------------------

TEST(ObsStageTimer, LapsAreContiguousAndSumToTotal) {
  ObsGuard guard;
  obs::StageTimer total;
  obs::StageTimer stage;
  double work = 0.0;
  for (int i = 0; i < 200000; ++i) work += static_cast<double>(i) * 1e-9;
  const double a = stage.lap("test.stage_a");
  for (int i = 0; i < 200000; ++i) work += static_cast<double>(i) * 1e-9;
  const double b = stage.lap("test.stage_b");
  const double t = total.lap("test.total");
  EXPECT_GT(work, 0.0);
  EXPECT_GT(a, 0.0);
  EXPECT_GT(b, 0.0);
  // The two stages tile the total window (modulo the construction gap and
  // the final two clock reads — sub-microsecond on any sane machine).
  EXPECT_NEAR(a + b, t, 1e-3);
  EXPECT_LE(a + b, t + 1e-9);
}

TEST(ObsStageTimer, LapEmitsSpanOnlyWhenEnabled) {
  ObsGuard guard;
  {
    obs::StageTimer timer;
    timer.lap("test.disabled_lap");
  }
  EXPECT_EQ(obs::trace_json().find("test.disabled_lap"), std::string::npos);

  obs::set_enabled(true);
  {
    obs::StageTimer timer;
    timer.lap("test.enabled_lap");
  }
  const std::string json = obs::trace_json();
  obs::set_enabled(false);
  EXPECT_NE(json.find("test.enabled_lap"), std::string::npos);
}

// --- Log sink ----------------------------------------------------------------

TEST(ObsLog, LogfFormatsAndAppendsNewline) {
  testing::internal::CaptureStdout();
  obs::logf("epoch %2d/%d  loss %.3f", 3, 10, 0.125);
  obs::log("plain line");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out, "epoch  3/10  loss 0.125\nplain line\n");
}

// --- Histograms (DESIGN.md §13) ---------------------------------------------

TEST(HistBuckets, UnitValuesAreExactAndEveryNameIsStableAndUnique) {
  // Values below 2^kSubBits occupy exact unit buckets.
  for (std::int64_t v = 0; v < obs::Histogram::kSubCount; ++v) {
    const int idx = obs::Histogram::bucket_index(v);
    EXPECT_EQ(idx, static_cast<int>(v));
    EXPECT_EQ(obs::Histogram::bucket_lower(idx), v);
    EXPECT_EQ(obs::Histogram::bucket_upper(idx), v);
  }
  for (int i = 0; i < obs::kHistCount; ++i) {
    const char* name = obs::hist_name(static_cast<obs::Hist>(i));
    ASSERT_NE(name, nullptr) << "hist " << i;
    EXPECT_NE(std::strchr(name, '.'), nullptr) << name;
    for (int j = i + 1; j < obs::kHistCount; ++j) {
      EXPECT_STRNE(name, obs::hist_name(static_cast<obs::Hist>(j)))
          << "hists " << i << " and " << j << " share a name";
    }
  }
}

TEST(HistBuckets, BoundariesAreExactAndRelativeWidthIsBounded) {
  // Every power of two starts a fresh bucket, edges are exact, and each
  // bucket's width is lower/2^kSubBits — the 6.25% relative-error bound.
  for (int shift = obs::Histogram::kSubBits; shift < 63; ++shift) {
    const std::int64_t pow2 = std::int64_t{1} << shift;
    const int idx = obs::Histogram::bucket_index(pow2);
    EXPECT_EQ(obs::Histogram::bucket_lower(idx), pow2) << "2^" << shift;
    EXPECT_EQ(obs::Histogram::bucket_index(pow2 - 1), idx - 1);
  }
  for (const int idx : {obs::Histogram::kSubCount, 100, 500,
                        obs::Histogram::kBucketCount - 2}) {
    const std::int64_t lower = obs::Histogram::bucket_lower(idx);
    const std::int64_t upper = obs::Histogram::bucket_upper(idx);
    const int block = idx / obs::Histogram::kSubCount;
    EXPECT_EQ(upper - lower + 1, std::int64_t{1} << (block - 1)) << idx;
    EXPECT_LE((upper - lower + 1) * obs::Histogram::kSubCount, lower) << idx;
    EXPECT_EQ(obs::Histogram::bucket_index(lower), idx);
    EXPECT_EQ(obs::Histogram::bucket_index(upper), idx);
  }
  // Clamps: negatives to bucket 0, INT64_MAX to the top bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(-5), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(INT64_MAX),
            obs::Histogram::kBucketCount - 1);
  EXPECT_EQ(obs::Histogram::bucket_upper(obs::Histogram::kBucketCount - 1),
            INT64_MAX);
}

TEST(HistPercentiles, ExactRanksOnAKnownDistribution) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0);  // empty
  for (int i = 0; i < 50; ++i) h.record(5);
  for (int i = 0; i < 45; ++i) h.record(10);
  for (int i = 0; i < 5; ++i) h.record(15);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 50 * 5 + 45 * 10 + 5 * 15);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 15);
  EXPECT_EQ(h.percentile(0.50), 5);
  EXPECT_EQ(h.percentile(0.95), 10);
  EXPECT_EQ(h.percentile(0.99), 15);
  EXPECT_EQ(h.percentile(0.0), 5);   // clamped to min
  EXPECT_EQ(h.percentile(1.0), 15);  // clamped to max
}

TEST(HistMerge, ValueClassMergeMatchesSequentialRecording) {
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::int64_t> dist(0, std::int64_t{1} << 40);
  obs::Histogram whole;
  obs::Histogram parts[4];
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = dist(rng);
    whole.record(v);
    parts[i % 4].record(v);
  }
  obs::Histogram merged;
  for (const obs::Histogram& p : parts) merged.merge(p);
  EXPECT_EQ(whole.serialize(), merged.serialize());
  EXPECT_EQ(whole.percentile(0.99), merged.percentile(0.99));
}

TEST(HistMerge, RegistryIsBitIdenticalAcrossThreadCounts) {
  // The tentpole determinism contract: the same value multiset recorded
  // through the lock-free per-thread slabs serializes byte-identically
  // whether one thread or eight recorded it.
  ObsGuard guard;
  obs::set_enabled(true);

  std::mt19937_64 rng(23);
  std::uniform_int_distribution<std::int64_t> dist(0, std::int64_t{1} << 50);
  std::vector<std::int64_t> values(10000);
  for (std::int64_t& v : values) v = dist(rng);

  obs::reset_histograms();
  for (const std::int64_t v : values) {
    obs::hist_record(obs::Hist::kBenchRequestNanos, v);
  }
  const std::string one = obs::hist_merged(obs::Hist::kBenchRequestNanos)
                              .serialize();

  obs::reset_histograms();
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&values, t] {
      // Strided partition: recording order across threads is arbitrary.
      for (std::size_t i = static_cast<std::size_t>(t); i < values.size();
           i += 8) {
        obs::hist_record(obs::Hist::kBenchRequestNanos, values[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::string eight = obs::hist_merged(obs::Hist::kBenchRequestNanos)
                                .serialize();

  EXPECT_EQ(one.size(), eight.size());
  EXPECT_EQ(std::memcmp(one.data(), eight.data(), one.size()), 0)
      << "per-thread slab merge is not bit-identical across thread counts";
}

TEST(HistMerge, SlowRequestWindowKeepsTopKSlowestFirst) {
  ObsGuard guard;
  obs::set_enabled(true);
  for (std::int64_t id = 1; id <= 20; ++id) {
    obs::record_slow_request(id, id * 100);
  }
  const std::vector<obs::SlowRequest> top = obs::take_slow_requests();
  ASSERT_EQ(top.size(),
            static_cast<std::size_t>(obs::kSlowRequestCapacity));
  EXPECT_EQ(top.front().request_id, 20);  // slowest first
  EXPECT_EQ(top.front().nanos, 2000);
  EXPECT_EQ(top.back().request_id, 13);
  EXPECT_TRUE(obs::take_slow_requests().empty());  // take drains the window
}

// --- Telemetry sinks (DESIGN.md §13) ----------------------------------------

TEST(TelemetrySnapshotter, WritesValidJsonlAndPrometheusText) {
  ObsGuard guard;
  const std::string dir = testing::TempDir() + "telemetry_snapshotter";
  {
    obs::SnapshotterOptions options;
    options.dir = dir;
    options.interval_seconds = 0.01;
    obs::MetricsSnapshotter snapshotter(options);
    EXPECT_TRUE(obs::enabled());  // construction enables collection
    obs::counter_add(obs::Counter::kServeRequests, 3);
    for (const std::int64_t v : {100, 2000, 30000}) {
      obs::hist_record(obs::Hist::kServeRequestNanos, v);
    }
    obs::record_slow_request(7, 30000);
    snapshotter.snapshot_now();
    snapshotter.stop();
    EXPECT_GE(snapshotter.samples(), 2);  // explicit + final
  }

  // Every JSONL line parses and carries the sampled state.
  std::ifstream jsonl(dir + "/metrics.jsonl");
  ASSERT_TRUE(jsonl.good());
  std::string line;
  int lines = 0;
  bool saw_hist = false;
  bool saw_slow = false;
  while (std::getline(jsonl, line)) {
    JsonValidator v(line);
    EXPECT_TRUE(v.valid()) << line;
    EXPECT_NE(line.find("\"seq\""), std::string::npos);
    EXPECT_NE(line.find("\"ts_ns\""), std::string::npos);
    if (line.find("\"serve.request_nanos\"") != std::string::npos) {
      saw_hist = true;
    }
    // JSONL lines are compact: no space after the colon.
    if (line.find("\"request_id\":7") != std::string::npos) saw_slow = true;
    ++lines;
  }
  EXPECT_GE(lines, 2);
  EXPECT_TRUE(saw_hist);
  EXPECT_TRUE(saw_slow);

  // The Prometheus exposition: sanitized pdnn_* names, counters suffixed
  // _total, histogram _count consistent with the +Inf bucket.
  std::ifstream promf(dir + "/metrics.prom");
  ASSERT_TRUE(promf.good());
  std::stringstream buffer;
  buffer << promf.rdbuf();
  const std::string prom = buffer.str();
  EXPECT_NE(prom.find("# TYPE pdnn_serve_requests_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("pdnn_serve_requests_total 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pdnn_serve_request_nanos histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("pdnn_serve_request_nanos_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("pdnn_serve_request_nanos_count 3"), std::string::npos);
  EXPECT_NE(prom.find("pdnn_serve_request_nanos_sum 32100"),
            std::string::npos);
  // Every sample line is `name[{le="..."}] value` or a # TYPE comment.
  std::istringstream prom_lines(prom);
  while (std::getline(prom_lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.compare(0, 5, "pdnn_"), 0) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    JsonValidator number(value);
    EXPECT_TRUE(number.valid()) << line;  // numbers are valid JSON values
  }
  std::filesystem::remove_all(dir);
}

TEST(TelemetryFlight, RingWrapsChronologicallyAndCountsDrops) {
  obs::FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i) {
    recorder.record(obs::FlightEventKind::kMark, /*request_id=*/i);
  }
  EXPECT_EQ(recorder.size(), 8u);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.dropped(), 12);

  // The dump holds exactly the 8 newest events, oldest first.
  const std::string json = recorder.to_json().dump();
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << json;
  std::size_t pos = 0;
  std::vector<int> ids;
  while ((pos = json.find("\"request_id\": ", pos)) != std::string::npos) {
    pos += std::strlen("\"request_id\": ");
    ids.push_back(std::atoi(json.c_str() + pos));
  }
  ASSERT_EQ(ids.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ids[static_cast<std::size_t>(i)],
                                        12 + i);

  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(TelemetryFlight, AutoDumpsOnFirstRejectionOnly) {
  obs::FlightRecorder recorder(32);
  const std::string path = testing::TempDir() + "flight_auto_dump.json";
  std::remove(path.c_str());
  recorder.set_dump_path(path);

  recorder.record(obs::FlightEventKind::kAdmit, 1);
  EXPECT_FALSE(std::ifstream(path).good()) << "admit must not dump";

  recorder.record(obs::FlightEventKind::kTimeout, 1, 0, 5000);
  std::ifstream first(path);
  ASSERT_TRUE(first.good()) << "first timeout must dump the post-mortem";
  std::stringstream buffer;
  buffer << first.rdbuf();
  const std::string json = buffer.str();
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << json;
  EXPECT_NE(json.find("\"kind\": \"timeout\""), std::string::npos);

  // A rejection storm must not re-dump; the file stays at 2 events even
  // after more failures land in the ring.
  recorder.record(obs::FlightEventKind::kOverload, 2);
  recorder.record(obs::FlightEventKind::kTimeout, 3);
  std::stringstream again;
  again << std::ifstream(path).rdbuf();
  EXPECT_EQ(again.str(), json) << "auto-dump fired more than once";

  std::remove(path.c_str());
}

TEST(TelemetryFlight, ConcurrentRecordingIsSafeAndLosslessUnderCapacity) {
  obs::FlightRecorder recorder(4096);
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&recorder, t] {
      for (int i = 0; i < 200; ++i) {
        recorder.record(obs::FlightEventKind::kMark, t * 1000 + i);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(recorder.size(), 1600u);
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(TelemetryFlight, FlushTelemetryWritesConfiguredSinks) {
  ObsGuard guard;
  const std::string path = testing::TempDir() + "flight_flush.json";
  std::remove(path.c_str());
  obs::flight().set_dump_path(path);
  obs::set_enabled(true);
  obs::flight_record(obs::FlightEventKind::kMark, 42);
  obs::flush_telemetry();
  std::stringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  EXPECT_NE(buffer.str().find("\"request_id\": 42"), std::string::npos);
  std::remove(path.c_str());
}

// --- JSON builder ------------------------------------------------------------

TEST(ObsJson, PreservesInsertionOrderAndEscapes) {
  obs::JsonValue root = obs::JsonValue::object();
  root.set("zeta", 1);
  root.set("alpha", "quote\"backslash\\newline\n");
  obs::JsonValue arr = obs::JsonValue::array();
  arr.push(1.5);
  arr.push(true);
  root.set("list", std::move(arr));
  root.set("zeta", 2);  // overwrite keeps the original position

  const std::string json = root.dump();
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << json;
  EXPECT_LT(json.find("zeta"), json.find("alpha"));
  EXPECT_LT(json.find("alpha"), json.find("list"));
  EXPECT_NE(json.find("\"zeta\": 2"), std::string::npos);
  EXPECT_NE(json.find("\\\"backslash\\\\newline\\n"), std::string::npos);
}

}  // namespace
}  // namespace pdnn
