#include "stats.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <string>

#include "eval/metrics.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

/// Ladder entries as (percentile, 1 / tail fraction): a percentile p leaves
/// n / d samples beyond it, so it is supported when n >= kTailSamples * d.
struct Rung {
  double pct;
  std::size_t denom;
};
constexpr std::array<Rung, 9> kLadder{{{99.99, 10000},
                                       {99.95, 2000},
                                       {99.9, 1000},
                                       {99.5, 200},
                                       {99.0, 100},
                                       {95.0, 20},
                                       {90.0, 10},
                                       {75.0, 4},
                                       {50.0, 2}}};

}  // namespace

double tail_percentile(std::size_t n) {
  for (const Rung& r : kLadder) {
    if (n >= kTailSamples * r.denom) return r.pct;
  }
  return 0.0;
}

LatencySummary summarize_latency(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  s.tail_pct = tail_percentile(s.count);
  PDN_CHECK(s.tail_pct > 0.0, "summarize_latency: " +
                                  std::to_string(s.count) +
                                  " samples leave no supported tail");
  s.p50 = pdnn::eval::percentile(samples, 50.0);
  s.tail = pdnn::eval::percentile(std::move(samples), s.tail_pct);
  return s;
}

std::vector<std::size_t> quiet_windows(const std::vector<double>& rank_by,
                                       std::size_t window, std::size_t keep) {
  PDN_CHECK(window > 0 && keep > 0, "quiet_windows: empty selection");
  const std::size_t windows = rank_by.size() / window;
  PDN_CHECK(windows >= keep, "quiet_windows: " + std::to_string(windows) +
                                 " windows of " + std::to_string(window) +
                                 " operations, " + std::to_string(keep) +
                                 " needed");
  std::vector<std::pair<double, std::size_t>> medians;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin =
        rank_by.begin() + static_cast<std::ptrdiff_t>(w * window);
    medians.emplace_back(
        pdnn::eval::percentile(
            {begin, begin + static_cast<std::ptrdiff_t>(window)}, 50.0),
        w);
  }
  // Ties break toward the earlier window, so the selection is a function of
  // the timings alone.
  std::sort(medians.begin(), medians.end());
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < keep; ++i) kept.push_back(medians[i].second);
  std::sort(kept.begin(), kept.end());
  return kept;
}

std::vector<double> take_windows(const std::vector<double>& values,
                                 const std::vector<std::size_t>& windows,
                                 std::size_t window) {
  std::vector<double> out;
  for (const std::size_t w : windows) {
    PDN_CHECK((w + 1) * window <= values.size(),
              "take_windows: window " + std::to_string(w) + " out of range");
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(w * window);
    out.insert(out.end(), begin, begin + static_cast<std::ptrdiff_t>(window));
  }
  return out;
}

std::vector<double> quietest_windows(const std::vector<double>& op_seconds,
                                     std::size_t window, std::size_t keep) {
  return take_windows(op_seconds, quiet_windows(op_seconds, window, keep),
                      window);
}

double mean_re_pct(const std::vector<pdnn::util::MapF>& predicted,
                   const std::vector<pdnn::util::MapF>& truth) {
  PDN_CHECK(!predicted.empty() && predicted.size() == truth.size(),
            "mean_re_pct: mismatched map sets");
  // Vdd only sets the hotspot threshold, which mean RE does not use.
  pdnn::eval::MapEvaluator evaluator(1.0);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    evaluator.add(predicted[i], truth[i]);
  }
  return evaluator.accuracy().mean_re * 100.0;
}

bool mean_re_in_band(double pct) {
  return pct >= kMeanReLowPct && pct <= kMeanReHighPct;
}

double Outcomes::ok_pct() const {
  return attempted > 0 ? 100.0 * static_cast<double>(ok) /
                             static_cast<double>(attempted)
                       : 100.0;
}

double Outcomes::failed_pct() const {
  return attempted > 0 ? 100.0 * static_cast<double>(failed()) /
                             static_cast<double>(attempted)
                       : 0.0;
}

Outcomes& Outcomes::operator+=(const Outcomes& other) {
  attempted += other.attempted;
  ok += other.ok;
  overloaded += other.overloaded;
  timed_out += other.timed_out;
  return *this;
}

double stage_sum_pct(const std::vector<double>& stage_seconds,
                     double untraced_seconds) {
  PDN_CHECK(untraced_seconds > 0.0,
            "stage_sum_pct: untraced time must be positive");
  const double sum =
      std::accumulate(stage_seconds.begin(), stage_seconds.end(), 0.0);
  return 100.0 * sum / untraced_seconds;
}

double overhead_pct(double traced_seconds, double untraced_seconds) {
  PDN_CHECK(untraced_seconds > 0.0,
            "overhead_pct: untraced time must be positive");
  return 100.0 * (traced_seconds - untraced_seconds) / untraced_seconds;
}

}  // namespace perfbench
