// Frame-pool statistics, kept only so the benchmark harness that reports
// `gpusim.frame_pool.reuse_ratio` still builds. Kernels no longer allocate
// a coroutine frame per thread, so there is no pool: nothing is acquired,
// reuse_rate() is 0 and the metric reads 0, as expected. This header goes
// when a separate benchmark change drops that metric.
#pragma once

namespace starsim::gpusim::detail {

struct FramePoolStats {
  [[nodiscard]] double reuse_rate() const { return 0.0; }
};

[[nodiscard]] inline FramePoolStats frame_pool_stats() { return {}; }

inline void frame_pool_stats_reset() {}

}  // namespace starsim::gpusim::detail
