// FrameService — the in-process frame-serving front end.
//
// Clients submit RenderRequests and get futures; inside, the service runs
// the pipeline the large-scale simulation literature (UFig; Bai et al.)
// says heavy render traffic needs:
//
//   submit -> admission control (bounded queue: try_submit rejects when
//   full, submit blocks) -> dynamic batching (compatible requests coalesce,
//   per-scene setup paid once per batch) -> worker pool (per-worker
//   devices, optional resilience) -> LRU frame cache (bit-identical repeat
//   requests are served without rendering).
//
// Frames served through the service are bit-identical to direct
// Simulator::simulate calls with the same scene and stars — batching,
// caching and concurrency change *when* a frame is computed, never *what*.
// Aggregate stats (throughput, p50/p95/p99 latency, batch-size histogram,
// cache hit rate) come from stats(). See docs/serving.md.
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/scheduler.h"
#include "serve/batcher.h"
#include "serve/frame_cache.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/worker_pool.h"
#include "starsim/catalog.h"
#include "starsim/projection.h"
#include "support/stats.h"
#include "support/timer.h"
#include "trace/metrics.h"

namespace starsim::serve {

struct FrameServiceOptions {
  /// Render threads, each with a private device. 0 builds a service that
  /// admits but never executes (tests of admission/shutdown paths).
  int workers = 2;
  /// Admission bound: requests queued beyond this are rejected (try_submit)
  /// or block the submitter (submit).
  std::size_t queue_capacity = 64;
  /// Dynamic batching cap; 1 disables coalescing.
  std::size_t max_batch_size = 8;
  /// Rendered-frame LRU capacity in frames; 0 disables caching.
  std::size_t cache_capacity = 32;
  WorkerOptions worker{};
  /// Cost-model-driven auto-scheduler consulted for requests with no
  /// pinned simulator. Null (the default) builds one at construction from
  /// the default SchedulerOptions (GTX480, i7-860, the paper's lookup
  /// table) with max_batch_size as its batch hint; pass a shared instance
  /// to share one schedule cache across services or to model another
  /// device.
  std::shared_ptr<sched::Scheduler> scheduler;
  /// Shared catalog + camera for attitude-driven requests; prepared once,
  /// reused by every projection (the amortized "catalog prep").
  std::optional<Catalog> catalog;
  CameraModel camera{};
};

struct ServiceStats {
  std::uint64_t submitted = 0;   ///< admitted requests (incl. cache hits)
  std::uint64_t rejected = 0;    ///< bounced by admission control
  std::uint64_t completed = 0;   ///< futures resolved with a frame
  std::uint64_t failed = 0;      ///< futures resolved with an exception
  /// Lower-priority requests displaced by higher-priority admissions under
  /// overload (their futures failed with OverloadShedError; also counted
  /// in `failed`).
  std::uint64_t shed = 0;
  /// Of `shed`, requests whose own deadline had already passed when they
  /// were displaced. Without this, shedding erased the deadline-expiry
  /// attribution entirely: the request counted only as shed, and no
  /// expired_* stage recorded that its budget was blown while queued.
  std::uint64_t shed_expired = 0;
  /// shed_by_priority[band] = shed requests that held that priority
  /// (band_of(RequestPriority); low sheds first by design).
  std::array<std::uint64_t, kPriorityClasses> shed_by_priority{};
  /// Deadline expiries by detection point (all also counted in `failed`):
  /// at admission, at batch formation (the request was never rendered),
  /// and post-render (the frame finished too late to deliver).
  std::uint64_t expired_admission = 0;
  std::uint64_t expired_batch = 0;
  std::uint64_t expired_post_render = 0;
  /// Exceptions that escaped the worker batch sink (see WorkerPool).
  std::uint64_t sink_exceptions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batches = 0;
  /// Requests rendered under the sanitizer (RenderRequest::sanitize), and
  /// the total findings their batches reported. A non-zero findings count
  /// on a production scene is a bug in the simulator stack, not the scene.
  std::uint64_t sanitized_requests = 0;
  std::uint64_t sanitizer_findings = 0;
  /// Modeled render-time components summed over every frame the workers
  /// rendered (late deliveries included — the device did the work). These
  /// are the service-level equivalent of TimingBreakdown's kernel vs
  /// non-kernel split, and the totals a trace's kernel_launch spans must
  /// agree with.
  double render_kernel_s = 0.0;
  double render_non_kernel_s = 0.0;
  double render_wall_s = 0.0;
  /// gpusim kernel-counter totals over every rendered frame.
  std::uint64_t kernel_flops = 0;
  std::uint64_t kernel_global_bytes = 0;
  std::uint64_t kernel_atomic_ops = 0;
  std::uint64_t kernel_texture_fetches = 0;
  /// batch_size_histogram[s] = batches of size s ([0] unused).
  std::vector<std::uint64_t> batch_size_histogram;
  /// Quantiles/mean of per-request total latency (submit -> response).
  support::TailQuantiles latency;
  double mean_latency_s = 0.0;
  double elapsed_s = 0.0;        ///< service lifetime so far
  double throughput_rps = 0.0;   ///< completed / elapsed
  FrameCache::Stats cache;
  /// Auto-scheduler counters: schedule cache traffic, tuner invocations,
  /// modeled tuned-vs-fallback seconds.
  sched::SchedulerStats sched;

  [[nodiscard]] double cache_hit_rate() const { return cache.hit_rate(); }
  [[nodiscard]] double mean_batch_size() const;
  [[nodiscard]] std::uint64_t expired_total() const {
    return expired_admission + expired_batch + expired_post_render;
  }
  /// Every admitted request is exactly one of completed or failed once the
  /// service has quiesced; anything else is a stuck (never-resolved)
  /// future. The chaos harness asserts this reaches zero.
  [[nodiscard]] std::uint64_t in_flight() const {
    return submitted - completed - failed;
  }
};

class FrameService {
 public:
  explicit FrameService(FrameServiceOptions options = {});
  ~FrameService();

  FrameService(const FrameService&) = delete;
  FrameService& operator=(const FrameService&) = delete;

  /// Blocking admission: waits for queue space under overload. Throws
  /// support::Error when the service is stopped. Invalid requests (bad
  /// scene, unsupported simulator, attitude without a catalog) throw
  /// synchronously — they never consume queue space. A request whose
  /// deadline has already expired (deadline_s <= 0) is admitted but its
  /// future fails immediately with DeadlineExceededError.
  [[nodiscard]] std::future<RenderResponse> submit(RenderRequest request);

  /// Non-blocking admission with priority-aware load shedding: when the
  /// queue is full but holds lower-priority work, the youngest such
  /// request is displaced (its future fails with OverloadShedError, a
  /// `shed` tick) and this one takes its place. nullopt (and a `rejected`
  /// tick) when the queue is full of equal-or-higher-priority work or the
  /// service is stopped.
  [[nodiscard]] std::optional<std::future<RenderResponse>> try_submit(
      RenderRequest request);

  /// submit + wait: the synchronous convenience path.
  [[nodiscard]] RenderResponse render(RenderRequest request);

  /// Stop admission, drain every queued request through the workers, join
  /// them. Requests that no worker will ever run (workers == 0) fail their
  /// futures. Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] bool stopped() const;

  /// Drop all cached frames (counters survive).
  void invalidate_cache();
  /// Drop one cached frame by request fingerprint; true when it existed.
  bool invalidate_cached_frame(std::uint64_t fingerprint);

  [[nodiscard]] ServiceStats stats() const;
  /// Worker-pool supervision snapshot: per-worker state, device
  /// replacements, quarantines, failure streaks (docs/resilience.md).
  [[nodiscard]] PoolHealth health() const;
  /// One Prometheus text-exposition scrape unifying ServiceStats, queue
  /// depth, PoolHealth, cache stats, gpusim kernel-counter totals and
  /// sanitizer findings (docs/observability.md lists every family). When
  /// `instance` is non-empty every sample carries an `instance` label, so N
  /// services (fleet shards) can be scraped side by side without family
  /// collisions.
  [[nodiscard]] std::string scrape_metrics(
      std::string_view instance = {}) const;
  /// The metric families behind scrape_metrics(), un-rendered, for callers
  /// that aggregate several services into one exposition (the fleet router
  /// merges same-named families across shards — Prometheus requires each
  /// family to appear exactly once per scrape).
  [[nodiscard]] std::vector<trace::MetricFamily> metric_families(
      std::string_view instance = {}) const;
  [[nodiscard]] const FrameServiceOptions& options() const { return options_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// The auto-scheduler admission consults. Exposed for warm-start cache
  /// load/save around a service's lifetime (serve-bench's
  /// --schedule-cache).
  [[nodiscard]] const std::shared_ptr<sched::Scheduler>& scheduler() const {
    return options_.scheduler;
  }

 private:
  /// Validate + resolve a request into its queued form (stars projected,
  /// simulator resolved, fingerprints computed). Throws on invalid input.
  QueuedRequest admit(RenderRequest&& request);

  /// Serve from cache if possible; on hit returns the ready future.
  std::optional<std::future<RenderResponse>> serve_from_cache(
      QueuedRequest& queued);

  /// Fail an admitted-but-expired request's future with
  /// DeadlineExceededError; `counter` is the stage-specific expiry counter.
  void expire_request(QueuedRequest& queued, std::uint64_t& counter,
                      const char* stage);

  /// Render a batch and deliver every promise; false when the render threw
  /// (the worker pool's circuit breaker counts consecutive failures).
  bool execute_batch(Batch&& batch, Worker& worker);

  void record_completion(double total_latency_s);

  FrameServiceOptions options_;
  support::WallTimer lifetime_;
  BoundedQueue<QueuedRequest> queue_;
  FrameCache cache_;
  Batcher batcher_;

  mutable std::mutex stats_mutex_;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t shed_expired_ = 0;
  std::array<std::uint64_t, kPriorityClasses> shed_by_priority_{};
  std::uint64_t expired_admission_ = 0;
  std::uint64_t expired_batch_ = 0;
  std::uint64_t expired_post_render_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t sanitized_requests_ = 0;
  std::uint64_t sanitizer_findings_ = 0;
  double render_kernel_s_ = 0.0;
  double render_non_kernel_s_ = 0.0;
  double render_wall_s_ = 0.0;
  std::uint64_t kernel_flops_ = 0;
  std::uint64_t kernel_global_bytes_ = 0;
  std::uint64_t kernel_atomic_ops_ = 0;
  std::uint64_t kernel_texture_fetches_ = 0;
  std::vector<std::uint64_t> batch_size_histogram_;
  std::vector<double> latency_samples_;

  mutable std::mutex stop_mutex_;
  bool stopped_ = false;

  // Last member: its threads touch everything above, so it must die first.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace starsim::serve
