#include "harness/stats.h"

#include <algorithm>

namespace starbench {

TailPoint tail_point(std::vector<double> values, std::size_t beyond) {
  TailPoint tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= beyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  tail.value = values[n - 1 - beyond];
  tail.percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  tail.beyond = beyond;
  tail.defined = true;
  return tail;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace starbench
