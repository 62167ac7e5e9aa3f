// Statistics the benchmark reports: latency summaries with a tail percentile
// the sample supports, the selection of quiet timing windows, the accuracy
// sanity band, request outcome accounting, and the layer-ledger arithmetic
// that compares traced stage sums with the untraced total.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/grid2d.hpp"

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.5, 99.9,
/// 99.95, 99.99 that still has at least kTailSamples of `n` samples beyond
/// it, or 0 when even the median has fewer. The ladder keeps the reported
/// percentile fixed while the sample count moves by less than a factor of
/// two, so a faster run does not report a deeper tail.
double tail_percentile(std::size_t n);

/// Median and supported tail of one set of timings, in their own unit.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< which percentile `tail` is
  double tail = 0.0;
};

/// Summarize `samples`; throws util::CheckError when fewer than
/// 2 * kTailSamples samples leave no tail to report.
LatencySummary summarize_latency(std::vector<double> samples);

/// The host shares its cores with other tenants, which slows any fixed
/// piece of work by up to 2x for stretches of a fraction of a second to
/// minutes, with quiet gaps of tens of milliseconds even in busy stretches.
/// Timings of short operations are therefore taken over the quiet part of
/// a run. `rank_by` (one value per operation, in time order) is cut into
/// consecutive windows of `window` operations of equal work, and the
/// `keep` windows with the lowest median are chosen; their indices are
/// returned in time order. Ties go to the earlier window, and a trailing
/// partial window is never chosen. A median ranks the host's speed during
/// a window: one slow operation cannot push its window out, so a stall the
/// code causes now and then stays in the kept sample at its own rate.
/// Throws util::CheckError when there are fewer than `keep` full windows.
std::vector<std::size_t> quiet_windows(const std::vector<double>& rank_by,
                                       std::size_t window, std::size_t keep);

/// The values of the chosen windows, concatenated in time order.
std::vector<double> take_windows(const std::vector<double>& values,
                                 const std::vector<std::size_t>& windows,
                                 std::size_t window);

/// take_windows(op_seconds, quiet_windows(op_seconds, window, keep), window).
std::vector<double> quietest_windows(const std::vector<double>& op_seconds,
                                     std::size_t window, std::size_t keep);

/// Mean relative error (percent) of `predicted[i]` against `truth[i]`, with
/// the repository's definition |p - t| / max(t, 1 mV) (eval::MapEvaluator).
double mean_re_pct(const std::vector<pdnn::util::MapF>& predicted,
                   const std::vector<pdnn::util::MapF>& truth);

/// Sanity band for mean_re_pct. The models are trained for a small fixed
/// budget and read about 25-33 %, far above the paper's ~1 %. An all-zero
/// map reads 100 % and a map of the wrong scale or sign 100 % or more, so
/// predictions that are broken or garbled fall above the band; a value
/// below it means the reference was compared with itself.
inline constexpr double kMeanReLowPct = 1.0;
inline constexpr double kMeanReHighPct = 70.0;
bool mean_re_in_band(double pct);

/// Terminal states of the requests one phase attempted.
struct Outcomes {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t overloaded = 0;
  std::int64_t timed_out = 0;

  /// Requests that did not complete: refused, expired, or lost.
  std::int64_t failed() const { return attempted - ok; }
  /// 100 * ok / attempted; 100 when nothing was attempted.
  double ok_pct() const;
  /// 100 * failed / attempted; 0 when nothing was attempted.
  double failed_pct() const;
  Outcomes& operator+=(const Outcomes& other);
};

/// 100 * (sum of traced stage seconds) / (untraced end-to-end seconds): the
/// ledger closure check. 100 means the stages account for the whole call.
double stage_sum_pct(const std::vector<double>& stage_seconds,
                     double untraced_seconds);

/// 100 * (traced - untraced) / untraced for the same work.
double overhead_pct(double traced_seconds, double untraced_seconds);

}  // namespace perfbench
