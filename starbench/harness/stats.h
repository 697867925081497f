// Sample statistics the benchmark reports: the median and the tail rule.
#pragma once

#include <cstddef>
#include <vector>

namespace starbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// The tail of a latency sample: the highest percentile that has at least
/// `kTailBeyond` samples beyond it. That is the order statistic with exactly
/// ten larger samples, so the tail moves to p90 at 100 samples, p99 at 1000
/// and p50 at 20, always resting on the same number of observations.
struct TailPoint {
  double value = 0.0;
  double percentile = 0.0;   ///< 100 * (n - beyond) / n
  std::size_t samples = 0;   ///< n
  std::size_t beyond = 0;    ///< samples strictly above `value` in rank
  /// False when n <= kTailBeyond: no percentile has ten samples beyond it,
  /// and `value` falls back to the maximum.
  bool defined = false;
};

[[nodiscard]] TailPoint tail_point(std::vector<double> values,
                                   std::size_t beyond = kTailBeyond);

/// Median (mean of the central pair for even sizes); 0 for no samples.
[[nodiscard]] double median_of(std::vector<double> values);

/// a / b, or 0 when b is 0 (a metric whose layer did no work).
[[nodiscard]] double ratio(double a, double b);

}  // namespace starbench
