#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "serve/fingerprint.h"
#include "support/error.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace starsim::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::size_t band_of(RequestPriority priority) {
  return static_cast<std::size_t>(priority);
}

/// Terminate a request's trace flow (promise delivery, expiry, shed, or
/// orphaning). All phases of one flow share "serve"/"request" so viewers
/// bind the arrow from the submitter's slice to this thread's slice.
void end_request_flow(const QueuedRequest& queued) {
  trace::flow(trace::Phase::kFlowEnd, "serve", "request", queued.trace_flow);
}

}  // namespace

double ServiceStats::mean_batch_size() const {
  std::uint64_t total_batches = 0;
  std::uint64_t total_requests = 0;
  for (std::size_t size = 0; size < batch_size_histogram.size(); ++size) {
    total_batches += batch_size_histogram[size];
    total_requests += batch_size_histogram[size] * size;
  }
  return total_batches > 0 ? static_cast<double>(total_requests) /
                                 static_cast<double>(total_batches)
                           : 0.0;
}

FrameService::FrameService(FrameServiceOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity, kPriorityClasses),
      cache_(options_.cache_capacity),
      batcher_(options_.max_batch_size) {
  STARSIM_REQUIRE(options_.workers >= 0, "worker count must be non-negative");
  if (!options_.scheduler) {
    // Default scheduler: the dynamic-batching cap is the batch hint the
    // adaptive path's setup amortizes over.
    sched::SchedulerOptions sched_options;
    sched_options.batch_hint = std::max<std::size_t>(1, options_.max_batch_size);
    options_.scheduler = std::make_shared<sched::Scheduler>(sched_options);
  }
  pool_ = std::make_unique<WorkerPool>(
      options_.workers, options_.worker,
      [this] { return batcher_.next_batch(queue_); },
      [this](Batch&& batch, Worker& worker) {
        return execute_batch(std::move(batch), worker);
      });
}

FrameService::~FrameService() { stop(); }

QueuedRequest FrameService::admit(RenderRequest&& request) {
  request.scene.validate();
  if (request.stars.empty() && request.attitude.has_value()) {
    STARSIM_REQUIRE(options_.catalog.has_value(),
                    "attitude-driven request needs a service catalog");
    request.stars = project_to_image(options_.catalog->stars(),
                                     *request.attitude, options_.camera);
  }
  if (request.simulator == SimulatorKind::kMultiGpu) {
    STARSIM_THROW(support::PreconditionError,
                  "multi-gpu simulation owns its own devices and cannot be "
                  "served by single-device workers");
  }
  // The predictions require at least one star; an empty field renders a
  // blank frame identically fast everywhere. A pin wins, but routing it
  // through the scheduler records the modeled cost of honoring it against
  // the tuned decision (and keeps the schedule cache warm for unpinned
  // traffic on this workload).
  const SimulatorKind kind =
      request.stars.empty()
          ? request.simulator.value_or(SimulatorKind::kSequential)
          : options_.scheduler->choose(request.scene, request.stars.size(),
                                       request.simulator);
  QueuedRequest queued;
  queued.simulator = kind;
  queued.scene_key = fingerprint_scene(request.scene);
  queued.key = fingerprint_request(request.scene, request.stars, kind);
  queued.priority = request.priority;
  queued.submitted = std::chrono::steady_clock::now();
  if (request.deadline_s.has_value()) {
    queued.deadline =
        queued.submitted + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   std::max(*request.deadline_s, 0.0)));
  }
  queued.request = std::move(request);
  return queued;
}

void FrameService::expire_request(QueuedRequest& queued,
                                  std::uint64_t& counter, const char* stage) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    counter += 1;
    failed_ += 1;
  }
  end_request_flow(queued);
  queued.promise.set_exception(std::make_exception_ptr(
      support::DeadlineExceededError(
          "request deadline expired " + std::string(stage) +
          " (budget " +
          std::to_string(queued.request.deadline_s.value_or(0.0)) + " s)")));
}

std::optional<std::future<RenderResponse>> FrameService::serve_from_cache(
    QueuedRequest& queued) {
  if (!cache_.enabled()) return std::nullopt;
  // A sanitized request wants the instrumented render itself, not a frame
  // that happens to match bit-for-bit; bypass the cache without touching
  // its hit/miss counters.
  if (queued.request.sanitize) return std::nullopt;
  std::optional<CachedFrame> hit = cache_.lookup(queued.key);
  if (!hit.has_value()) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    cache_misses_ += 1;
    return std::nullopt;
  }
  if (trace::tracing_on()) [[unlikely]] {
    trace::instant("serve", "cache_hit",
                   {{"fingerprint",
                     static_cast<std::int64_t>(queued.key)}});
  }
  RenderResponse response;
  response.result = std::move(hit->result);
  response.simulator = hit->simulator;
  response.fingerprint = queued.key;
  response.from_cache = true;
  response.batch_size = 0;
  response.latency.total_s = seconds_between(
      queued.submitted, std::chrono::steady_clock::now());
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    submitted_ += 1;
    cache_hits_ += 1;
    completed_ += 1;
    latency_samples_.push_back(response.latency.total_s);
  }
  queued.promise.set_value(std::move(response));
  return queued.promise.get_future();
}

std::future<RenderResponse> FrameService::submit(RenderRequest request) {
  trace::TraceSpan span("serve", "submit");
  QueuedRequest queued = admit(std::move(request));
  if (span.armed()) [[unlikely]] {
    span.arg("priority", to_string(queued.priority))
        .arg("stars", queued.request.stars.size())
        .arg("simulator", to_string(queued.simulator))
        .arg("sanitize", queued.request.sanitize);
  }
  if (queued.expired(std::chrono::steady_clock::now())) {
    // A zero-or-negative budget cannot be met even by a cache hit: the
    // request is admitted (counted) and failed before it costs anything.
    std::future<RenderResponse> future = queued.promise.get_future();
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      submitted_ += 1;
    }
    expire_request(queued, expired_admission_, "at admission");
    return future;
  }
  if (auto hit = serve_from_cache(queued)) return std::move(*hit);
  std::future<RenderResponse> future = queued.promise.get_future();
  const std::size_t band = band_of(queued.priority);
  if (span.armed()) [[unlikely]] {
    queued.trace_flow = trace::TraceRecorder::instance().next_flow_id();
  }
  const std::uint64_t flow_id = queued.trace_flow;
  if (!queue_.push(std::move(queued), band)) {
    STARSIM_THROW(support::Error, "FrameService is stopped");
  }
  trace::flow(trace::Phase::kFlowStart, "serve", "request", flow_id);
  if (trace::tracing_on()) [[unlikely]] {
    trace::counter("serve", "queue_depth",
                   static_cast<double>(queue_.size()));
  }
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  submitted_ += 1;
  return future;
}

std::optional<std::future<RenderResponse>> FrameService::try_submit(
    RenderRequest request) {
  trace::TraceSpan span("serve", "try_submit");
  QueuedRequest queued = admit(std::move(request));
  if (span.armed()) [[unlikely]] {
    span.arg("priority", to_string(queued.priority))
        .arg("stars", queued.request.stars.size())
        .arg("simulator", to_string(queued.simulator))
        .arg("sanitize", queued.request.sanitize);
  }
  if (queued.expired(std::chrono::steady_clock::now())) {
    std::future<RenderResponse> future = queued.promise.get_future();
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      submitted_ += 1;
    }
    expire_request(queued, expired_admission_, "at admission");
    return future;
  }
  if (auto hit = serve_from_cache(queued)) return std::move(*hit);
  std::future<RenderResponse> future = queued.promise.get_future();
  const RequestPriority priority = queued.priority;
  const std::size_t band = band_of(priority);
  if (span.armed()) [[unlikely]] {
    queued.trace_flow = trace::TraceRecorder::instance().next_flow_id();
  }
  const std::uint64_t flow_id = queued.trace_flow;
  std::optional<QueuedRequest> displaced;
  const auto outcome = queue_.try_push_shedding(queued, band, displaced);
  if (outcome == BoundedQueue<QueuedRequest>::PushOutcome::kRejected) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    rejected_ += 1;
    return std::nullopt;
  }
  trace::flow(trace::Phase::kFlowStart, "serve", "request", flow_id);
  if (displaced.has_value()) {
    // Overload shedding: the youngest lowest-priority queued request made
    // room for this higher-priority one. A displaced request whose own
    // deadline already passed while it waited is attributed to both causes
    // (shed + shed_expired) — shedding must not erase the evidence that
    // its budget was blown in the queue. Account before delivering.
    const bool was_expired =
        displaced->expired(std::chrono::steady_clock::now());
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      shed_ += 1;
      shed_by_priority_[band_of(displaced->priority)] += 1;
      if (was_expired) shed_expired_ += 1;
      failed_ += 1;
    }
    if (trace::tracing_on()) [[unlikely]] {
      trace::instant(
          "serve", "shed",
          {{"priority", std::string(to_string(displaced->priority))},
           {"expired", was_expired}});
    }
    end_request_flow(*displaced);
    displaced->promise.set_exception(std::make_exception_ptr(
        support::OverloadShedError(
            "request shed under overload: displaced by a " +
            std::string(to_string(priority)) + "-priority admission")));
  }
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  submitted_ += 1;
  return future;
}

RenderResponse FrameService::render(RenderRequest request) {
  return submit(std::move(request)).get();
}

bool FrameService::execute_batch(Batch&& batch, Worker& worker) {
  trace::TraceSpan span("serve", "render_batch");
  if (span.armed()) [[unlikely]] {
    span.arg("batch_size", batch.requests.size())
        .arg("simulator", to_string(batch.simulator))
        .arg("worker", worker.index())
        .arg("priority", to_string(batch.priority));
  }
  const auto exec_start = std::chrono::steady_clock::now();

  // Deadline check at batch formation: an expired request is dropped here,
  // before any device work, so it is never rendered.
  std::vector<QueuedRequest> live;
  live.reserve(batch.requests.size());
  for (QueuedRequest& queued : batch.requests) {
    if (queued.expired(exec_start)) {
      expire_request(queued, expired_batch_, "in queue (skipped at batch "
                                             "formation, never rendered)");
    } else {
      live.push_back(std::move(queued));
    }
  }
  if (live.empty()) return true;  // nothing to render is not a device failure

  const std::size_t count = live.size();
  std::vector<StarField> fields;
  fields.reserve(count);
  for (QueuedRequest& queued : live) {
    fields.push_back(std::move(queued.request.stars));
  }

  // batch.scene() would read a moved-from request after the expiry
  // partition above; the live requests still own their scenes.
  const SceneConfig& scene = live.front().request.scene;
  // Batcher::compatible keeps sanitize uniform across a batch, so the
  // first live request speaks for all of them.
  const bool sanitized = live.front().request.sanitize;
  Worker::RenderOutcome outcome;
  try {
    outcome = worker.render(scene, batch.simulator, fields, sanitized);
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    // Account before delivering: a client that wakes on its future must
    // already see itself in the stats.
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      failed_ += count;
    }
    for (QueuedRequest& queued : live) {
      end_request_flow(queued);
      queued.promise.set_exception(error);
    }
    return false;
  }

  const auto finish = std::chrono::steady_clock::now();
  // Per-batch render totals for stats()/scrape_metrics(), summed while the
  // results are still intact (they are moved into responses below). Late
  // frames count too: the device did the work whether or not it delivered.
  double batch_kernel_s = 0.0;
  double batch_non_kernel_s = 0.0;
  double batch_wall_s = 0.0;
  std::uint64_t batch_flops = 0;
  std::uint64_t batch_global_bytes = 0;
  std::uint64_t batch_atomic_ops = 0;
  std::uint64_t batch_texture_fetches = 0;
  for (const SimulationResult& rendered : outcome.results) {
    batch_kernel_s += rendered.timing.kernel_s;
    batch_non_kernel_s += rendered.timing.non_kernel_s();
    batch_wall_s += rendered.timing.wall_s;
    batch_flops += rendered.timing.counters.flops;
    batch_global_bytes += rendered.timing.counters.global_bytes();
    batch_atomic_ops += rendered.timing.counters.atomic_ops;
    batch_texture_fetches += rendered.timing.counters.texture_fetches;
  }
  // One report per batch, shared by every response it rendered (the batch
  // ran as one instrumented device scope).
  std::shared_ptr<const gpusim::SanitizerReport> sanitizer_report;
  if (outcome.sanitizer.mode != gpusim::SanitizerMode::kOff) {
    sanitizer_report = std::make_shared<const gpusim::SanitizerReport>(
        std::move(outcome.sanitizer));
  }
  std::vector<RenderResponse> responses;
  responses.reserve(count);
  std::vector<bool> late(count, false);
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const QueuedRequest& queued = live[i];
    late[i] = queued.expired(finish);
    if (late[i]) {
      responses.emplace_back();  // placeholder; the future gets an error
      continue;
    }
    RenderResponse response;
    response.simulator = outcome.executed[i];
    response.degraded = outcome.executed[i] != batch.simulator;
    response.fingerprint = queued.key;
    response.batch_size = count;
    response.latency.queue_wait_s =
        seconds_between(queued.submitted, batch.formed);
    response.latency.batch_wait_s = seconds_between(batch.formed, exec_start);
    response.latency.render_wall_s = outcome.results[i].timing.wall_s;
    response.latency.kernel_s = outcome.results[i].timing.kernel_s;
    response.latency.non_kernel_s = outcome.results[i].timing.non_kernel_s();
    response.latency.total_s = seconds_between(queued.submitted, finish);
    response.sanitizer = sanitizer_report;
    response.result =
        std::make_shared<const SimulationResult>(std::move(outcome.results[i]));
    responses.push_back(std::move(response));
    delivered += 1;
  }

  // Account before delivering (same reason as the failure path).
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    completed_ += delivered;
    batches_ += 1;
    if (batch_size_histogram_.size() <= count) {
      batch_size_histogram_.resize(count + 1, 0);
    }
    batch_size_histogram_[count] += 1;
    if (sanitized) sanitized_requests_ += count;
    if (sanitizer_report != nullptr) {
      sanitizer_findings_ += sanitizer_report->total_findings;
    }
    render_kernel_s_ += batch_kernel_s;
    render_non_kernel_s_ += batch_non_kernel_s;
    render_wall_s_ += batch_wall_s;
    kernel_flops_ += batch_flops;
    kernel_global_bytes_ += batch_global_bytes;
    kernel_atomic_ops_ += batch_atomic_ops;
    kernel_texture_fetches_ += batch_texture_fetches;
    for (std::size_t i = 0; i < count; ++i) {
      if (!late[i]) latency_samples_.push_back(responses[i].latency.total_s);
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    if (late[i]) {
      // The frame exists but missed its deadline; the render is honest
      // waste the stats make visible.
      expire_request(live[i], expired_post_render_,
                     "post-render (frame finished too late)");
      continue;
    }
    // A degraded frame is not bit-identical to the requested simulator's
    // output; caching it under the request fingerprint would poison later
    // healthy hits. Sanitized frames stay out too: a defective kernel's
    // suppressed accesses can alter pixels, and the cache must only ever
    // hold frames the production path would have produced.
    if (!responses[i].degraded && !sanitized) {
      cache_.insert(live[i].key,
                    CachedFrame{responses[i].result, responses[i].simulator});
      if (trace::tracing_on()) [[unlikely]] {
        trace::instant("serve", "cache_insert",
                       {{"fingerprint",
                         static_cast<std::int64_t>(live[i].key)}});
      }
    }
    end_request_flow(live[i]);
    live[i].promise.set_value(std::move(responses[i]));
  }
  return true;
}

void FrameService::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Close admission; workers drain every already-admitted request (pop_run
  // keeps returning queued items after close), then exit on empty. close()
  // also wakes any submitter blocked on a full queue — its push returns
  // false and submit() throws instead of deadlocking against stop().
  queue_.close();
  pool_->join();
  // If workers retired (or the pool was built with zero workers) nothing
  // drained the queue — fail those futures rather than leaving clients
  // blocked forever.
  std::vector<QueuedRequest> orphaned;
  while (std::optional<QueuedRequest> leftover = queue_.pop()) {
    orphaned.push_back(std::move(*leftover));
  }
  if (!orphaned.empty()) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      failed_ += orphaned.size();
    }
    for (QueuedRequest& queued : orphaned) {
      end_request_flow(queued);
      queued.promise.set_exception(
          std::make_exception_ptr(support::Error(
              "FrameService stopped before the request was executed")));
    }
  }
}

bool FrameService::stopped() const {
  const std::lock_guard<std::mutex> lock(stop_mutex_);
  return stopped_;
}

void FrameService::invalidate_cache() { cache_.clear(); }

bool FrameService::invalidate_cached_frame(std::uint64_t fingerprint) {
  return cache_.invalidate(fingerprint);
}

PoolHealth FrameService::health() const { return pool_->health(); }

ServiceStats FrameService::stats() const {
  ServiceStats s;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.failed = failed_;
    s.shed = shed_;
    s.shed_expired = shed_expired_;
    s.shed_by_priority = shed_by_priority_;
    s.expired_admission = expired_admission_;
    s.expired_batch = expired_batch_;
    s.expired_post_render = expired_post_render_;
    s.cache_hits = cache_hits_;
    s.cache_misses = cache_misses_;
    s.batches = batches_;
    s.sanitized_requests = sanitized_requests_;
    s.sanitizer_findings = sanitizer_findings_;
    s.render_kernel_s = render_kernel_s_;
    s.render_non_kernel_s = render_non_kernel_s_;
    s.render_wall_s = render_wall_s_;
    s.kernel_flops = kernel_flops_;
    s.kernel_global_bytes = kernel_global_bytes_;
    s.kernel_atomic_ops = kernel_atomic_ops_;
    s.kernel_texture_fetches = kernel_texture_fetches_;
    s.batch_size_histogram = batch_size_histogram_;
    s.latency = support::tail_quantiles(latency_samples_);
    double sum = 0.0;
    for (const double sample : latency_samples_) sum += sample;
    s.mean_latency_s = latency_samples_.empty()
                           ? 0.0
                           : sum / static_cast<double>(latency_samples_.size());
  }
  s.sink_exceptions = pool_->sink_exceptions();
  s.elapsed_s = lifetime_.seconds();
  s.throughput_rps = s.elapsed_s > 0.0
                         ? static_cast<double>(s.completed) / s.elapsed_s
                         : 0.0;
  s.cache = cache_.stats();
  s.sched = options_.scheduler->stats();
  return s;
}

std::vector<trace::MetricFamily> FrameService::metric_families(
    std::string_view instance) const {
  using trace::MetricFamily;
  using trace::MetricType;
  const ServiceStats s = stats();
  const PoolHealth pool = health();
  std::vector<MetricFamily> families;

  {
    MetricFamily f{"starsim_serve_requests_total",
                   "Requests by terminal outcome since service start",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.submitted), {{"outcome", "submitted"}})
        .add(static_cast<double>(s.rejected), {{"outcome", "rejected"}})
        .add(static_cast<double>(s.completed), {{"outcome", "completed"}})
        .add(static_cast<double>(s.failed), {{"outcome", "failed"}})
        .add(static_cast<double>(s.shed), {{"outcome", "shed"}});
    families.push_back(std::move(f));
  }
  {
    // stage="shed": displaced requests whose deadline had already passed
    // when they were shed — the attribution ServiceStats used to lose.
    MetricFamily f{"starsim_serve_deadline_expired_total",
                   "Deadline expiries by the stage that detected them",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.expired_admission), {{"stage", "admission"}})
        .add(static_cast<double>(s.expired_batch), {{"stage", "batch"}})
        .add(static_cast<double>(s.expired_post_render),
             {{"stage", "post_render"}})
        .add(static_cast<double>(s.shed_expired), {{"stage", "shed"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_shed_total",
                   "Requests shed under overload, by their priority",
                   MetricType::kCounter, {}};
    for (std::size_t band = 0; band < kPriorityClasses; ++band) {
      f.add(static_cast<double>(s.shed_by_priority[band]),
            {{"priority",
              std::string(to_string(static_cast<RequestPriority>(band)))}});
    }
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_queue_depth",
                   "Requests currently waiting for a worker",
                   MetricType::kGauge, {}};
    f.add(static_cast<double>(queue_depth()));
    families.push_back(std::move(f));
  }
  families.push_back(trace::histogram_from_counts(
      "starsim_serve_batch_size", "Batch sizes formed by dynamic batching",
      s.batch_size_histogram));
  {
    MetricFamily f{"starsim_serve_batches_total",
                   "Batches executed by the worker pool",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.batches));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_latency_seconds",
                   "Request latency quantiles (submit to response)",
                   MetricType::kGauge, {}};
    f.add(s.latency.p50, {{"quantile", "0.5"}})
        .add(s.latency.p95, {{"quantile", "0.95"}})
        .add(s.latency.p99, {{"quantile", "0.99"}});
    families.push_back(std::move(f));
  }
  {
    // The paper's kernel vs non-kernel decomposition, live: a trace's
    // kernel_launch spans must sum to the kernel component within 5%.
    MetricFamily f{"starsim_serve_render_seconds_total",
                   "Modeled render time by component, summed over frames",
                   MetricType::kCounter, {}};
    f.add(s.render_kernel_s, {{"component", "kernel"}})
        .add(s.render_non_kernel_s, {{"component", "non_kernel"}})
        .add(s.render_wall_s, {{"component", "wall"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_cache_hits_total",
                   "Frame-cache hits", MetricType::kCounter, {}};
    f.add(static_cast<double>(s.cache_hits));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_cache_misses_total",
                   "Frame-cache misses", MetricType::kCounter, {}};
    f.add(static_cast<double>(s.cache_misses));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_cache_evictions_total",
                   "Frames evicted from the LRU cache",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.cache.evictions));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_cache_frames",
                   "Frames currently cached (and the configured capacity)",
                   MetricType::kGauge, {}};
    f.add(static_cast<double>(s.cache.size), {{"kind", "cached"}})
        .add(static_cast<double>(s.cache.capacity), {{"kind", "capacity"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_sanitized_requests_total",
                   "Requests rendered under the gpusim sanitizer",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.sanitized_requests));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_sanitizer_findings_total",
                   "Sanitizer findings reported by sanitized batches",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.sanitizer_findings));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_gpusim_kernel_work_total",
                   "gpusim kernel-counter totals over rendered frames",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.kernel_flops), {{"counter", "flops"}})
        .add(static_cast<double>(s.kernel_global_bytes),
             {{"counter", "global_bytes"}})
        .add(static_cast<double>(s.kernel_atomic_ops),
             {{"counter", "atomic_ops"}})
        .add(static_cast<double>(s.kernel_texture_fetches),
             {{"counter", "texture_fetches"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_workers",
                   "Workers by supervision state", MetricType::kGauge, {}};
    std::array<int, 4> by_state{};
    for (const WorkerHealth& w : pool.workers) {
      by_state[static_cast<std::size_t>(w.state)] += 1;
    }
    for (std::size_t state = 0; state < by_state.size(); ++state) {
      f.add(static_cast<double>(by_state[state]),
            {{"state",
              std::string(to_string(static_cast<WorkerState>(state)))}});
    }
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_worker_device_replacements_total",
                   "Fresh devices handed to quarantined workers",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(pool.total_device_replacements));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_sink_exceptions_total",
                   "Exceptions that escaped the worker batch sink",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.sink_exceptions));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_serve_throughput_rps",
                   "Completed requests per second of service lifetime",
                   MetricType::kGauge, {}};
    f.add(s.throughput_rps);
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_sched_cache_events_total",
                   "Schedule-cache traffic of the auto-scheduler",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.sched.cache.hits), {{"event", "hit"}})
        .add(static_cast<double>(s.sched.cache.misses), {{"event", "miss"}})
        .add(static_cast<double>(s.sched.cache.evictions),
             {{"event", "eviction"}})
        .add(static_cast<double>(s.sched.cache.insertions),
             {{"event", "insertion"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_sched_tuner_invocations_total",
                   "Schedule tunes run on cache misses",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.sched.tuner_invocations));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_sched_candidates_evaluated_total",
                   "Candidate schedules the tuner's cost model scored",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.sched.candidates_evaluated));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_sched_overrides_total",
                   "Pinned-simulator requests recorded against the tuned "
                   "schedule",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.sched.overrides_recorded));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_sched_fallbacks_total",
                   "Pinned requests whose tuned drift could not be scored",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.sched.fallbacks));
    families.push_back(std::move(f));
  }
  {
    // schedule="tuned" vs "fallback": summed modeled per-frame seconds of
    // the tuned decisions and of the best fixed simulator for the same
    // workloads. Their ratio is the aggregate modeled speedup.
    MetricFamily f{"starsim_sched_modeled_seconds_total",
                   "Modeled per-frame seconds, tuned vs legacy fixed",
                   MetricType::kCounter, {}};
    f.add(s.sched.tuned_modeled_s_total, {{"schedule", "tuned"}})
        .add(s.sched.fallback_modeled_s_total, {{"schedule", "fallback"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_sched_modeled_speedup",
                   "Aggregate modeled speedup of tuned schedules over the "
                   "fixed baseline (1.0 when nothing was tuned)",
                   MetricType::kGauge, {}};
    f.add(s.sched.tuned_modeled_s_total > 0.0
              ? s.sched.fallback_modeled_s_total /
                    s.sched.tuned_modeled_s_total
              : 1.0);
    families.push_back(std::move(f));
  }
  if (!instance.empty()) {
    for (MetricFamily& family : families) {
      for (trace::MetricSample& sample : family.samples) {
        sample.labels.push_back({"instance", std::string(instance)});
      }
    }
  }
  return families;
}

std::string FrameService::scrape_metrics(std::string_view instance) const {
  return trace::render_prometheus(metric_families(instance));
}

}  // namespace starsim::serve
