// One benchmark run: a workload, a seed, and either the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/report.h"

namespace starbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The code identity the provenance records: a git commit, or run.py's
  /// digest of the sources when the checkout is not a git repository.
  std::string git_sha = "unknown";
  /// Test hook, see WorkloadConfig::perturb_request.
  long perturb_request = -1;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One JSON object: seed, host, build, load shape and sample counts.
  std::string provenance;
};

/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] RunResult run_benchmark(const RunOptions& options);

}  // namespace starbench
