// Tests for the benchmark's own statistics: the tail-percentile rule, the
// quiet-window selection, the accuracy sanity band, request outcome
// accounting, and the layer-ledger arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats.hpp"
#include "util/check.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, HighestRungWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 0.0);  // even the median has < 10 beyond
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(1999), 99.0);
  EXPECT_EQ(tail_percentile(2000), 99.5);
  EXPECT_EQ(tail_percentile(9999), 99.5);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(20000), 99.95);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(10000000), 99.99);
}

TEST(TailPercentile, ChosenRungLeavesAtLeastTenSamplesBeyond) {
  for (std::size_t n = 20; n < 30000; n += 7) {
    const double p = tail_percentile(n);
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    EXPECT_GE(beyond, 10.0 - 1e-9) << "n=" << n << " p=" << p;
  }
}

TEST(SummarizeLatency, MedianAndTailOfKnownSamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);  // 1..1000 ms
  const LatencySummary s = summarize_latency(samples);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_EQ(s.tail_pct, 99.0);
  // Linear interpolation at rank 0.99 * 999 = 989.01 over sorted 1..1000.
  EXPECT_NEAR(s.tail, 990.01, 1e-9);
  std::size_t beyond = 0;
  for (const double v : samples) beyond += v > s.tail ? 1 : 0;
  EXPECT_EQ(beyond, 10u);
}

TEST(SummarizeLatency, IgnoresInputOrder) {
  std::vector<double> a;
  for (int i = 0; i < 500; ++i) a.push_back((i * 37) % 500);
  std::vector<double> b = a;
  std::sort(b.begin(), b.end());
  const LatencySummary sa = summarize_latency(a);
  const LatencySummary sb = summarize_latency(b);
  EXPECT_EQ(sa.p50, sb.p50);
  EXPECT_EQ(sa.tail, sb.tail);
  EXPECT_EQ(sa.tail_pct, 95.0);
}

TEST(SummarizeLatency, RejectsTooFewSamples) {
  EXPECT_THROW(summarize_latency(std::vector<double>(19, 1.0)),
               pdnn::util::CheckError);
  EXPECT_NO_THROW(summarize_latency(std::vector<double>(20, 1.0)));
}

TEST(QuietWindows, RanksWindowsByTheirMedian) {
  // Windows of 3: medians 5, 1, 2, 9, 2; the tail {7} is never chosen.
  const std::vector<double> ops = {5, 5, 5, 1, 1, 50, 2, 2, 2,
                                   9, 9, 9, 2, 3, 1, 7};
  EXPECT_EQ(quiet_windows(ops, 3, 1), (std::vector<std::size_t>{1}));
  // The tie between windows 2 and 4 goes to the earlier one.
  EXPECT_EQ(quiet_windows(ops, 3, 2), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(quiet_windows(ops, 3, 3), (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(quiet_windows(ops, 3, 5),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  // Window 1 is kept with its outlier: one slow operation does not decide.
  EXPECT_EQ(quietest_windows(ops, 3, 2),
            (std::vector<double>{1, 1, 50, 2, 2, 2}));
}

TEST(QuietWindows, TakeWindowsFollowsTheGivenIndices) {
  const std::vector<double> values = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(take_windows(values, {0, 2}, 2),
            (std::vector<double>{0, 1, 4, 5}));
  EXPECT_THROW(take_windows(values, {3}, 2), pdnn::util::CheckError);
}

TEST(QuietWindows, SlowStretchesDoNotMoveTheResult) {
  // A run whose second half is twice as slow keeps the fast half's rate.
  std::vector<double> ops(1000, 0.002);
  for (std::size_t i = 500; i < ops.size(); ++i) ops[i] = 0.004;
  const std::vector<double> kept = quietest_windows(ops, 50, 5);
  EXPECT_EQ(kept.size(), 250u);
  for (const double v : kept) EXPECT_EQ(v, 0.002);
}

TEST(QuietWindows, PeriodicStallsMoveTheTailAndTheRate) {
  // signoff's selection: rows of 4 maps, the 48 with the lowest median
  // kept (192 maps, tail p90). 4000 maps of 1 ms whose second half the host
  // slows to 2 ms; stalls the code causes (20 ms) stay in the kept rows.
  std::vector<double> clean(4000, 1.0);
  for (std::size_t i = 2000; i < clean.size(); ++i) clean[i] = 2.0;
  const auto stalled_every = [&](std::size_t period) {
    std::vector<double> ops = clean;
    for (std::size_t i = 0; i < ops.size(); i += period) ops[i] = 20.0;
    return ops;
  };
  const auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return total;
  };
  const std::vector<double> kept_clean = quietest_windows(clean, 4, 48);
  ASSERT_EQ(kept_clean.size(), 192u);
  const LatencySummary clean_s = summarize_latency(kept_clean);
  EXPECT_EQ(clean_s.tail_pct, 90.0);
  EXPECT_EQ(clean_s.tail, 1.0);

  // A stall every 50th map: 4 of the 192 kept maps stall. The rate falls
  // by the stalls' share; the p90 tail, 19 maps deep, does not see 4.
  const std::vector<double> rare = quietest_windows(stalled_every(50), 4, 48);
  ASSERT_EQ(rare.size(), 192u);
  for (const double v : rare) EXPECT_NE(v, 2.0);  // slow half dropped
  EXPECT_DOUBLE_EQ(sum(rare) - sum(kept_clean), 4 * 19.0);
  EXPECT_EQ(summarize_latency(rare).tail, 1.0);

  // A stall every 5th map, at most one per row: 39 of 192 kept maps stall,
  // more than a tenth, so the tail reads the stall; the median does not.
  const std::vector<double> often = quietest_windows(stalled_every(5), 4, 48);
  ASSERT_EQ(often.size(), 192u);
  EXPECT_DOUBLE_EQ(sum(often) - sum(kept_clean), 39 * 19.0);
  const LatencySummary often_s = summarize_latency(often);
  EXPECT_EQ(often_s.tail, 20.0);
  EXPECT_EQ(often_s.p50, 1.0);
}

TEST(QuietWindows, RejectsTooShortRuns) {
  const std::vector<double> ops(9, 1.0);
  EXPECT_THROW(quiet_windows(ops, 4, 3), pdnn::util::CheckError);
  EXPECT_NO_THROW(quiet_windows(ops, 4, 2));
  EXPECT_THROW(quiet_windows(ops, 0, 1), pdnn::util::CheckError);
}

/// A 4x4 map whose tiles read 10, 20, ..., 160 mV.
pdnn::util::MapF ramp_map() {
  pdnn::util::MapF m(4, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) m(r, c) = 0.01f * static_cast<float>(1 + r * 4 + c);
  }
  return m;
}

pdnn::util::MapF scaled(const pdnn::util::MapF& m, float k) {
  pdnn::util::MapF out = m;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) out(r, c) = k * m(r, c);
  }
  return out;
}

TEST(MeanRe, TypicalErrorPassesTheBand) {
  const std::vector<pdnn::util::MapF> truth = {ramp_map(), ramp_map()};
  const std::vector<pdnn::util::MapF> off = {scaled(ramp_map(), 1.3f),
                                             scaled(ramp_map(), 0.7f)};
  EXPECT_NEAR(mean_re_pct(off, truth), 30.0, 1e-4);
  EXPECT_TRUE(mean_re_in_band(mean_re_pct(off, truth)));
}

TEST(MeanRe, BrokenPredictionsFallOutsideTheBand) {
  const std::vector<pdnn::util::MapF> truth = {ramp_map()};
  // An all-zero map reads 100 %.
  const std::vector<pdnn::util::MapF> zero = {pdnn::util::MapF(4, 4, 0.0f)};
  EXPECT_NEAR(mean_re_pct(zero, truth), 100.0, 1e-9);
  EXPECT_FALSE(mean_re_in_band(mean_re_pct(zero, truth)));
  // Wrong scale or sign reads 100 % or more.
  EXPECT_FALSE(mean_re_in_band(mean_re_pct({scaled(ramp_map(), 2.0f)}, truth)));
  EXPECT_FALSE(
      mean_re_in_band(mean_re_pct({scaled(ramp_map(), -1.0f)}, truth)));
  // A map compared with itself means the reference is broken.
  EXPECT_EQ(mean_re_pct(truth, truth), 0.0);
  EXPECT_FALSE(mean_re_in_band(0.0));
}

TEST(MeanRe, RejectsMismatchedSets) {
  EXPECT_THROW(mean_re_pct({}, {}), pdnn::util::CheckError);
  EXPECT_THROW(mean_re_pct({ramp_map()}, {ramp_map(), ramp_map()}),
               pdnn::util::CheckError);
}

TEST(Outcomes, FailuresCountEverythingNotOk) {
  Outcomes o;
  o.attempted = 200;
  o.ok = 190;
  o.overloaded = 6;
  o.timed_out = 3;  // one more request was lost some other way
  EXPECT_EQ(o.failed(), 10);
  EXPECT_DOUBLE_EQ(o.ok_pct(), 95.0);
  EXPECT_DOUBLE_EQ(o.failed_pct(), 5.0);
  EXPECT_DOUBLE_EQ(o.ok_pct() + o.failed_pct(), 100.0);
}

TEST(Outcomes, EmptyPhaseNeitherFailsNorDividesByZero) {
  const Outcomes o;
  EXPECT_EQ(o.failed(), 0);
  EXPECT_DOUBLE_EQ(o.ok_pct(), 100.0);
  EXPECT_DOUBLE_EQ(o.failed_pct(), 0.0);
}

TEST(Outcomes, PhasesAddUp) {
  Outcomes open{1000, 1000, 0, 0};
  const Outcomes closed{500, 490, 10, 0};
  open += closed;
  EXPECT_EQ(open.attempted, 1500);
  EXPECT_EQ(open.ok, 1490);
  EXPECT_EQ(open.overloaded, 10);
  EXPECT_EQ(open.failed(), 10);
  EXPECT_NEAR(open.failed_pct(), 100.0 * 10 / 1500, 1e-12);
}

TEST(StageSum, ClosesAtOneHundredPercent) {
  EXPECT_DOUBLE_EQ(stage_sum_pct({0.1, 0.2, 0.7}, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(stage_sum_pct({0.25, 0.25}, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(stage_sum_pct({0.6, 0.6}, 1.0), 120.0);
  EXPECT_DOUBLE_EQ(stage_sum_pct({}, 2.0), 0.0);
}

TEST(StageSum, RejectsNonPositiveReference) {
  EXPECT_THROW(stage_sum_pct({1.0}, 0.0), pdnn::util::CheckError);
  EXPECT_THROW(overhead_pct(1.0, 0.0), pdnn::util::CheckError);
}

TEST(Overhead, RelativeToUntraced) {
  EXPECT_DOUBLE_EQ(overhead_pct(1.1, 1.0), 10.000000000000009);
  EXPECT_DOUBLE_EQ(overhead_pct(2.0, 2.0), 0.0);
  EXPECT_LT(overhead_pct(0.9, 1.0), 0.0);
}

}  // namespace
}  // namespace perfbench
