// Reduction of a starsim::trace snapshot to per-span totals.
//
// A span's self time is its duration minus the part covered by child spans
// on the same thread. Work a span hands to other threads (OpenMP blocks of
// a kernel launch, a shard's worker behind a router thread) does not
// shorten it: the span was open, and blocking, for that time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace starbench {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  /// Integer arguments of the span's end events, summed (kernel_launch
  /// carries "flops" and "global_bytes").
  std::map<std::string, std::int64_t> int_args;
};

/// Totals keyed by "category.name" ("gpusim.kernel_launch").
using SpanTable = std::map<std::string, SpanTotals>;

/// Reduce balanced begin/end pairs per thread. Unmatched events (a span
/// opened before the recorder started, or still open at the snapshot) are
/// skipped. Spans nested in the benchmark's own "bench.verify" span — the
/// reference renders of the correctness gate — are left out, so the table
/// holds only work done to serve requests.
[[nodiscard]] SpanTable reduce_spans(
    const std::vector<starsim::trace::TraceEvent>& events);

/// Totals for `key`, or an empty record when no such span was recorded.
[[nodiscard]] const SpanTotals& span(const SpanTable& table,
                                     const std::string& key);

}  // namespace starbench
