// The serving layer's wire types: what a client submits to a FrameService
// and what it gets back.
//
// A RenderRequest names a scene, the stars to render (either an explicit
// image-plane field or an attitude resolved against the service's shared
// catalog), and an optional pinned simulator. The response carries the
// rendered frame plus the per-request latency breakdown the paper's
// evaluation vocabulary maps onto a server: queue wait and batch wait are
// the serving layer's own costs, kernel and non-kernel time are the
// simulator's modeled breakdown (non-kernel amortized by batching).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "gpusim/sanitizer.h"
#include "starsim/attitude.h"
#include "starsim/breakdown.h"
#include "starsim/scene.h"
#include "starsim/simulator.h"
#include "starsim/star.h"

namespace starsim::serve {

/// Importance classes for admission and load shedding. Under overload the
/// service sheds lowest-priority-first (a displaced request's future fails
/// with support::OverloadShedError), and workers drain higher classes
/// before lower ones. Within a class, order stays FIFO.
enum class RequestPriority : std::uint8_t {
  kLow = 0,     ///< bulk / speculative traffic, first to shed
  kNormal = 1,  ///< the default
  kHigh = 2,    ///< hardware-in-the-loop frame deadlines ride here
};

inline constexpr std::size_t kPriorityClasses = 3;

[[nodiscard]] constexpr std::string_view to_string(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kLow: return "low";
    case RequestPriority::kNormal: return "normal";
    case RequestPriority::kHigh: return "high";
  }
  return "unknown";
}

struct RenderRequest {
  SceneConfig scene;
  /// Explicit image-plane star field. May be empty when `attitude` is set
  /// and the service was configured with a catalog.
  StarField stars;
  /// Attitude-driven request: the service projects its catalog through its
  /// camera model at admission (the per-image "catalog prep" the batch
  /// amortization literature pays once).
  std::optional<Quaternion> attitude;
  /// Pinned simulator; nullopt asks the service's sched::Scheduler.
  std::optional<SimulatorKind> simulator;
  /// Importance class consulted by admission, shedding and batch pickup.
  RequestPriority priority = RequestPriority::kNormal;
  /// Response-time budget measured from submit, in seconds. When it expires
  /// the request fails with support::DeadlineExceededError — at admission
  /// (<= 0 budgets fail immediately), at batch formation (an expired
  /// request is never rendered), or post-render when the frame finished too
  /// late. nullopt means no deadline.
  std::optional<double> deadline_s;
  /// Debugging aid: render this request under the full gpusim sanitizer
  /// (SanitizerMode::kAll on the worker's device for the duration of the
  /// batch) and return the findings in RenderResponse::sanitizer. Sanitized
  /// requests never batch with unsanitized ones and bypass the frame cache
  /// in both directions — the point is the instrumented render itself.
  bool sanitize = false;
};

/// Where one request's response time went.
struct LatencyBreakdown {
  double queue_wait_s = 0.0;   ///< submit -> coalesced into a batch
  double batch_wait_s = 0.0;   ///< batch formed -> worker starts rendering
  double render_wall_s = 0.0;  ///< measured wall inside the simulator
  double kernel_s = 0.0;       ///< modeled kernel time of this frame
  double non_kernel_s = 0.0;   ///< modeled non-kernel overhead (amortized)
  double total_s = 0.0;        ///< submit -> response ready
};

struct RenderResponse {
  /// Shared, not copied: a cached frame may back many responses.
  std::shared_ptr<const SimulationResult> result;
  /// The simulator that actually produced the frame. Equal to the resolved
  /// request simulator unless recovery degraded the render (see `degraded`).
  SimulatorKind simulator = SimulatorKind::kParallel;
  LatencyBreakdown latency;
  /// Request identity (scene + stars + simulator); the frame-cache key.
  std::uint64_t fingerprint = 0;
  /// Number of requests rendered together; 0 for cache hits.
  std::size_t batch_size = 0;
  bool from_cache = false;
  /// True when a fallback rung (worker CPU fallback, resilient-chain
  /// degradation) produced the frame instead of the requested simulator.
  /// Degraded frames are pixel-equivalent up to the executed simulator's
  /// accumulation order, not bit-identical to the requested kind, and are
  /// never inserted into the frame cache.
  bool degraded = false;
  /// Sanitizer findings of the batch that rendered this frame. Set when the
  /// request asked for a sanitized render or the worker pool runs with a
  /// worker-wide SanitizerMode; null otherwise. Shared across the batch.
  std::shared_ptr<const gpusim::SanitizerReport> sanitizer;
};

}  // namespace starsim::serve
