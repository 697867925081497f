#include "fleet/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <span>
#include <utility>

#include "serve/fingerprint.h"
#include "support/error.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace starsim::fleet {

namespace {

/// splitmix64 — the standard 64-bit finalizer; scatters shard/vnode ids and
/// scene fingerprints uniformly over the ring.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::size_t band_of(serve::RequestPriority priority) {
  return static_cast<std::size_t>(priority);
}

constexpr auto kHedgePollSlice = std::chrono::microseconds(200);
/// Adaptive hedge delay before enough latency samples exist, ms.
constexpr double kColdHedgeMs = 5.0;
constexpr std::size_t kMinHedgeSamples = 8;
constexpr std::size_t kHedgeRingSize = 512;
constexpr std::size_t kLatencySampleCap = 1u << 20;

}  // namespace

std::string_view to_string(ShardState state) {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kQuarantined:
      return "quarantined";
    case ShardState::kProbing:
      return "probing";
    case ShardState::kDown:
      return "down";
    case ShardState::kRespawning:
      return "respawning";
    case ShardState::kRetired:
      return "retired";
    case ShardState::kPartitioned:
      return "partitioned";
  }
  return "unknown";
}

namespace {

/// States a request must never be routed to. A partitioned shard is alive
/// but its frames don't arrive — routing to it only burns deadlines.
[[nodiscard]] bool unroutable(ShardState state) {
  return state == ShardState::kDown || state == ShardState::kRespawning ||
         state == ShardState::kRetired || state == ShardState::kPartitioned;
}

/// Bind port 0 on loopback, read back the kernel's choice, release it.
/// There is a small window in which another process could grab the port
/// before the shardd child binds it; spawn() fails cleanly if so, and the
/// supervisor's respawn picks a fresh port via the same path.
[[nodiscard]] std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  STARSIM_REQUIRE(fd >= 0, "socket() for port probe failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    STARSIM_THROW(support::IoError, "bind() for port probe failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    STARSIM_THROW(support::IoError, "getsockname() for port probe failed");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

}  // namespace

std::unique_ptr<Transport> ShardRouter::make_transport(int index) {
  serve::FrameServiceOptions shard_options = options_.shard;
  if (shard_options.worker.fault_policy.has_value()) {
    // Decorrelate injected faults across shards the same way WorkerPool
    // decorrelates them across workers — correlated chaos would fault
    // every replica of a scene at once and defeat failover.
    shard_options.worker.fault_policy->seed =
        mix64(shard_options.worker.fault_policy->seed +
              static_cast<std::uint64_t>(index));
  }
  if (index == options_.straggler_shard) {
    shard_options.worker.debug_straggler_ms = options_.straggler_ms;
  }
  std::unique_ptr<Transport> built;
  if (!options_.process_shards) {
    built = std::make_unique<LoopbackTransport>(index,
                                                std::move(shard_options));
    return wrap_chaos(index, std::move(built));
  }
  STARSIM_REQUIRE(!options_.shardd_path.empty(),
                  "process shards need a shardd binary path");
  STARSIM_REQUIRE(options_.tcp_shards || !options_.socket_dir.empty(),
                  "process shards need a socket directory");
  ShardProcessConfig config;
  config.shardd_path = options_.shardd_path;
  if (options_.tcp_shards) {
    config.endpoint =
        "tcp:127.0.0.1:" + std::to_string(pick_free_port());
  } else {
    config.socket_path =
        options_.socket_dir + "/shard-" + std::to_string(index) + ".sock";
  }
  config.index = index;
  config.workers = shard_options.workers;
  config.queue_capacity = shard_options.queue_capacity;
  config.max_batch_size = shard_options.max_batch_size;
  config.cache_capacity = shard_options.cache_capacity;
  if (shard_options.worker.fault_policy.has_value()) {
    // FaultPolicy::chaos shape: one transient rate across sites plus a
    // device-lost escalation — the same knobs serve-bench drives.
    const auto& policy = *shard_options.worker.fault_policy;
    config.inject_faults = true;
    config.fault_rate = policy.h2d_fault_rate;
    config.lost_rate = policy.device_lost_rate;
    config.fault_seed = policy.seed;
  }
  config.straggler_ms = shard_options.worker.debug_straggler_ms;
  SocketTransportOptions transport_options = options_.transport;
  if (transport_options.token.empty()) {
    // The token rides the environment into the shardd child (never argv —
    // `ps` must not leak it); the dial-side handshake presents the same
    // secret, so router and shard agree by construction.
    transport_options.token = options_.fleet_token;
  }
  built = std::make_unique<SocketTransport>(std::move(config),
                                            std::move(transport_options));
  return wrap_chaos(index, std::move(built));
}

std::unique_ptr<Transport> ShardRouter::wrap_chaos(
    int index, std::unique_ptr<Transport> built) {
  if (index != options_.chaos_shard) return built;
  return std::make_unique<ChaosTransport>(std::move(built),
                                          options_.net_chaos);
}

ChaosTransport* ShardRouter::chaos_transport(int index) {
  return dynamic_cast<ChaosTransport*>(transport_at(index));
}

void ShardRouter::append_ring_points(
    std::vector<std::pair<std::uint64_t, int>>& ring, int index) const {
  for (int v = 0; v < options_.virtual_nodes; ++v) {
    const std::uint64_t id = (static_cast<std::uint64_t>(index) << 32) |
                             static_cast<std::uint64_t>(v);
    ring.emplace_back(mix64(id), index);
  }
}

ShardRouter::ShardRouter(FleetOptions options)
    : options_(std::move(options)),
      queue_(options_.router_queue_capacity, serve::kPriorityClasses) {
  STARSIM_REQUIRE(options_.shards > 0, "fleet needs at least one shard");
  STARSIM_REQUIRE(options_.replicas > 0, "fleet needs at least one replica");
  STARSIM_REQUIRE(options_.virtual_nodes > 0,
                  "consistent hashing needs ring points");
  STARSIM_REQUIRE(options_.router_threads > 0,
                  "router needs at least one thread");
  // A worker-less shard would never resolve replies, leaving router threads
  // blocked in wait loops that stop() can never join.
  STARSIM_REQUIRE(options_.shard.workers > 0,
                  "shards need at least one worker");
  options_.replicas = std::min(options_.replicas, options_.shards);
  STARSIM_REQUIRE(!options_.tcp_shards || options_.process_shards,
                  "tcp_shards requires process_shards");
  if (options_.fleet_token.empty()) {
    if (const char* token = std::getenv("STARSIM_FLEET_TOKEN");
        token != nullptr) {
      options_.fleet_token = token;
    }
  }

  for (int s = 0; s < options_.shards; ++s) {
    slots_.push_back(make_transport(s));
  }

  ring_.reserve(static_cast<std::size_t>(options_.shards) *
                static_cast<std::size_t>(options_.virtual_nodes));
  for (int s = 0; s < options_.shards; ++s) append_ring_points(ring_, s);
  std::sort(ring_.begin(), ring_.end());

  health_.resize(static_cast<std::size_t>(options_.shards));
  for (HealthSlot& slot : health_) {
    slot.window.assign(std::max<std::size_t>(options_.breaker_window, 1),
                       true);
  }
  hedge_ring_.assign(kHedgeRingSize, 0.0);

  if (options_.supervise) {
    SupervisorEvents events;
    events.on_unreachable = [this](int s) { on_shard_unreachable(s); };
    events.on_respawned = [this](int s) { on_shard_respawned(s); };
    events.on_exhausted = [this](int s) { on_shard_exhausted(s); };
    events.on_partitioned = [this](int s) { on_shard_partitioned(s); };
    events.on_partition_healed = [this](int s) {
      on_shard_partition_healed(s);
    };
    supervisor_ = std::make_unique<ProcessSupervisor>(options_.supervision,
                                                      std::move(events));
    for (int s = 0; s < options_.shards; ++s) {
      supervisor_->watch(s, transport_at(s));
    }
    supervisor_->start();
  }

  probe_thread_ = std::thread(&ShardRouter::probe_loop, this);
  threads_.reserve(static_cast<std::size_t>(options_.router_threads));
  for (int i = 0; i < options_.router_threads; ++i) {
    threads_.emplace_back(&ShardRouter::run, this, i);
  }
}

ShardRouter::~ShardRouter() { stop(); }

Transport* ShardRouter::transport_at(int index) const {
  const std::lock_guard<std::mutex> lock(slots_mutex_);
  return slots_.at(static_cast<std::size_t>(index)).get();
}

int ShardRouter::shard_count() const {
  const std::lock_guard<std::mutex> lock(slots_mutex_);
  return static_cast<int>(slots_.size());
}

Transport& ShardRouter::transport(int index) { return *transport_at(index); }

Shard* ShardRouter::loopback_shard(int index) {
  return transport_at(index)->loopback_shard();
}

Shard& ShardRouter::shard(int index) {
  Shard* shard = loopback_shard(index);
  STARSIM_REQUIRE(shard != nullptr,
                  "shard(index) is loopback-only; socket transports have no "
                  "in-process Shard");
  return *shard;
}

std::vector<int> ShardRouter::replicas_in(
    const std::vector<std::pair<std::uint64_t, int>>& ring,
    std::uint64_t scene_key) const {
  std::vector<int> replicas;
  replicas.reserve(static_cast<std::size_t>(options_.replicas));
  const std::uint64_t point = mix64(scene_key);
  auto it = std::lower_bound(
      ring.begin(), ring.end(), point,
      [](const std::pair<std::uint64_t, int>& node, std::uint64_t key) {
        return node.first < key;
      });
  for (std::size_t walked = 0;
       walked < ring.size() &&
       replicas.size() < static_cast<std::size_t>(options_.replicas);
       ++walked, ++it) {
    if (it == ring.end()) it = ring.begin();
    if (std::find(replicas.begin(), replicas.end(), it->second) ==
        replicas.end()) {
      replicas.push_back(it->second);
    }
  }
  return replicas;
}

std::vector<int> ShardRouter::replicas_for(std::uint64_t scene_key) const {
  const std::lock_guard<std::mutex> lock(ring_mutex_);
  return replicas_in(ring_, scene_key);
}

ShardRouter::RouterTask ShardRouter::make_task(serve::RenderRequest&& request) {
  request.scene.validate();
  RouterTask task;
  task.scene_key = serve::fingerprint_scene(request.scene);
  task.priority = request.priority;
  task.deadline_s = request.deadline_s;
  task.submitted = std::chrono::steady_clock::now();
  task.promise = std::make_shared<std::promise<serve::RenderResponse>>();
  task.flow_id = trace::TraceRecorder::instance().next_flow_id();
  task.request = std::move(request);
  note_hot_scene(task);
  trace::flow(trace::Phase::kFlowStart, "fleet", "request", task.flow_id);
  return task;
}

void ShardRouter::note_hot_scene(const RouterTask& task) {
  if (options_.hot_scene_capacity == 0) return;
  const std::lock_guard<std::mutex> lock(hot_mutex_);
  const auto it = hot_index_.find(task.scene_key);
  if (it != hot_index_.end()) {
    // Known scene: refresh recency without copying the star list.
    hot_scenes_.splice(hot_scenes_.begin(), hot_scenes_, it->second);
    return;
  }
  hot_scenes_.emplace_front(task.scene_key, task.request);
  hot_index_[task.scene_key] = hot_scenes_.begin();
  while (hot_scenes_.size() > options_.hot_scene_capacity) {
    hot_index_.erase(hot_scenes_.back().first);
    hot_scenes_.pop_back();
  }
}

std::future<serve::RenderResponse> ShardRouter::submit(
    serve::RenderRequest request) {
  RouterTask task = make_task(std::move(request));
  std::future<serve::RenderResponse> future = task.promise->get_future();
  if (task.deadline_s.has_value() && *task.deadline_s <= 0.0) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      submitted_ += 1;
    }
    fail_task(task,
              std::make_exception_ptr(support::DeadlineExceededError(
                  "deadline expired before fleet admission")),
              /*count_expired=*/true);
    return future;
  }
  const std::size_t band = band_of(task.priority);
  // Account before the push: a router worker may complete the task before
  // this thread resumes, and in_flight() must never read negative.
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    submitted_ += 1;
  }
  if (!queue_.push(std::move(task), band)) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    submitted_ -= 1;
    STARSIM_THROW(support::Error, "fleet router is stopped");
  }
  return future;
}

std::optional<std::future<serve::RenderResponse>> ShardRouter::try_submit(
    serve::RenderRequest request) {
  RouterTask task = make_task(std::move(request));
  std::future<serve::RenderResponse> future = task.promise->get_future();
  if (task.deadline_s.has_value() && *task.deadline_s <= 0.0) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      submitted_ += 1;
    }
    fail_task(task,
              std::make_exception_ptr(support::DeadlineExceededError(
                  "deadline expired before fleet admission")),
              /*count_expired=*/true);
    return future;
  }
  // Cross-shard backpressure: when every live replica of this scene sits
  // above the high-watermark, shedding low-priority work at the door beats
  // queueing it to be displaced (or to expire) later.
  if (task.priority == serve::RequestPriority::kLow &&
      replicas_saturated(replicas_for(task.scene_key))) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      rejected_ += 1;
      backpressure_rejected_ += 1;
    }
    trace::flow(trace::Phase::kFlowEnd, "fleet", "request", task.flow_id);
    return std::nullopt;
  }
  const std::size_t band = band_of(task.priority);
  // Account before the push: a router worker may complete the task before
  // this thread resumes, and in_flight() must never read negative.
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    submitted_ += 1;
  }
  std::optional<RouterTask> displaced;
  const auto outcome = queue_.try_push_shedding(task, band, displaced);
  switch (outcome) {
    case serve::BoundedQueue<RouterTask>::PushOutcome::kRejected: {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      submitted_ -= 1;
      rejected_ += 1;
      return std::nullopt;
    }
    case serve::BoundedQueue<RouterTask>::PushOutcome::kDisplaced:
      fail_task(*displaced,
                std::make_exception_ptr(support::OverloadShedError(
                    "displaced from the fleet router queue by "
                    "higher-priority work")),
                /*count_expired=*/false, /*count_shed=*/true);
      return future;
    case serve::BoundedQueue<RouterTask>::PushOutcome::kAccepted:
      return future;
  }
  return future;
}

serve::RenderResponse ShardRouter::render(serve::RenderRequest request) {
  return submit(std::move(request)).get();
}

bool ShardRouter::replicas_saturated(
    const std::vector<int>& candidates) const {
  bool any_live = false;
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    for (const int s : candidates) {
      const HealthSlot& slot = health_[static_cast<std::size_t>(s)];
      if (unroutable(slot.state)) continue;
      any_live = true;
      Transport* transport = transport_at(s);
      const double watermark =
          options_.backpressure_ratio *
          static_cast<double>(transport->queue_capacity());
      if (static_cast<double>(transport->queue_depth()) < watermark) {
        return false;
      }
    }
  }
  // No live replica at all is a routing failure, not backpressure — let
  // the execute path account it as ShardDownError.
  return any_live;
}

std::optional<double> ShardRouter::remaining_deadline(
    const RouterTask& task) const {
  if (!task.deadline_s.has_value()) return std::nullopt;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    task.submitted)
          .count();
  return *task.deadline_s - elapsed;
}

double ShardRouter::hedge_delay_ms() const {
  if (options_.hedge_ms > 0.0) return options_.hedge_ms;
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  if (hedge_ring_count_ < kMinHedgeSamples) {
    return std::max(kColdHedgeMs, options_.min_hedge_ms);
  }
  const std::span<const double> window(hedge_ring_.data(), hedge_ring_count_);
  return std::max(support::quantile(window, options_.hedge_quantile),
                  options_.min_hedge_ms);
}

void ShardRouter::record_outcome(int shard_index, bool success) {
  bool quarantined = false;
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    HealthSlot& slot = health_[static_cast<std::size_t>(shard_index)];
    // A down shard's ladder state is frozen, counters included — late
    // replies from a killed shard must not skew its error snapshot.
    if (slot.state == ShardState::kDown) return;
    if (!success) slot.errors += 1;
    slot.window[slot.window_next] = success;
    slot.window_next = (slot.window_next + 1) % slot.window.size();
    slot.window_count = std::min(slot.window_count + 1, slot.window.size());
    if (slot.state == ShardState::kHealthy &&
        slot.window_count >= options_.breaker_min_samples) {
      std::size_t errors = 0;
      for (std::size_t i = 0; i < slot.window_count; ++i) {
        if (!slot.window[i]) errors += 1;
      }
      const double rate = static_cast<double>(errors) /
                          static_cast<double>(slot.window_count);
      if (rate >= options_.breaker_error_rate) {
        slot.state = ShardState::kQuarantined;
        slot.quarantined_at = std::chrono::steady_clock::now();
        slot.quarantines += 1;
        quarantined = true;
      }
    }
  }
  if (quarantined) {
    trace::instant("fleet", "shard_quarantined");
  }
}

void ShardRouter::record_shed(int shard_index) {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  health_[static_cast<std::size_t>(shard_index)].sheds += 1;
}

ShardRouter::ReplyOutcome ShardRouter::classify(const WireBuffer& bytes,
                                                int shard) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    wire_reply_bytes_ += bytes.size();
  }
  ReplyOutcome outcome;
  try {
    outcome.response = decode_reply(bytes);
    record_outcome(shard, true);
    return outcome;
  } catch (const support::OverloadShedError&) {
    // Pressure, not failure: fail over without charging the breaker.
    outcome.error = std::current_exception();
    record_shed(shard);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    shard_sheds_ += 1;
  } catch (const support::DeadlineExceededError&) {
    // The request's budget ran out, not the shard: terminal, no failover,
    // no breaker charge.
    outcome.error = std::current_exception();
    outcome.terminal = true;
  } catch (const support::ShardDownError&) {
    // The transport lost its peer mid-request (EOF, reset, kill). Route
    // into the ladder without charging the breaker — the shard is gone,
    // not misbehaving — and fail over.
    outcome.error = std::current_exception();
    note_unreachable(shard);
  } catch (const support::TransportTimeoutError&) {
    // A hung shard burned this request's I/O budget. Charge the breaker
    // (repeat offenders quarantine) and fail over; the hang detector
    // handles the process itself.
    outcome.error = std::current_exception();
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      transport_timeouts_ += 1;
    }
    record_outcome(shard, false);
  } catch (const std::exception&) {
    outcome.error = std::current_exception();
    record_outcome(shard, false);
  }
  return outcome;
}

void ShardRouter::fail_task(RouterTask& task, std::exception_ptr error,
                            bool count_expired, bool count_shed) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    failed_ += 1;
    if (count_expired) expired_router_ += 1;
    if (count_shed) router_shed_ += 1;
  }
  trace::flow(trace::Phase::kFlowEnd, "fleet", "request", task.flow_id);
  task.promise->set_exception(std::move(error));
}

void ShardRouter::deliver(RouterTask& task, serve::RenderResponse response) {
  const double latency_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    task.submitted)
          .count();
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    completed_ += 1;
    if (latency_samples_.size() < kLatencySampleCap) {
      latency_samples_.push_back(latency_s);
    }
    hedge_ring_[hedge_ring_next_] = latency_s * 1000.0;
    hedge_ring_next_ = (hedge_ring_next_ + 1) % hedge_ring_.size();
    hedge_ring_count_ = std::min(hedge_ring_count_ + 1, hedge_ring_.size());
  }
  trace::flow(trace::Phase::kFlowEnd, "fleet", "request", task.flow_id);
  task.promise->set_value(std::move(response));
}

void ShardRouter::run(int worker_index) {
  trace::TraceRecorder::instance().set_thread_name(
      "router-" + std::to_string(worker_index));
  for (;;) {
    std::optional<RouterTask> task = queue_.pop();
    if (!task.has_value()) return;  // closed and drained
    execute(std::move(*task));
  }
}

void ShardRouter::maybe_arm_probes(const serve::RenderRequest& model) {
  bool any_sick = false;
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    for (const HealthSlot& slot : health_) {
      // A probing shard still wants fresh templates: its current probe may
      // have been built from traffic that fails for reasons of its own.
      if (slot.state == ShardState::kQuarantined ||
          slot.state == ShardState::kProbing) {
        any_sick = true;
        break;
      }
    }
  }
  if (!any_sick) return;
  {
    const std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_model_ = model;
  }
  probe_cv_.notify_one();
}

void ShardRouter::probe_loop() {
  trace::TraceRecorder::instance().set_thread_name("router-probe");
  // Wake at half the quarantine dwell so an elapsed dwell is noticed
  // promptly; the floor keeps a tiny dwell from busy-spinning.
  const auto wake = std::chrono::duration<double, std::milli>(
      std::max(options_.probe_after_ms * 0.5, 0.25));
  std::unique_lock<std::mutex> lock(probe_mutex_);
  for (;;) {
    probe_cv_.wait_for(lock, wake);
    if (probe_stop_) return;
    if (!probe_model_.has_value()) continue;
    const serve::RenderRequest model = *probe_model_;
    lock.unlock();
    run_due_probes(model);
    lock.lock();
  }
}

void ShardRouter::run_due_probes(const serve::RenderRequest& model) {
  std::vector<int> due;
  const auto now = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    for (std::size_t s = 0; s < health_.size(); ++s) {
      HealthSlot& slot = health_[s];
      if (slot.state != ShardState::kQuarantined) continue;
      const double dwell_ms =
          std::chrono::duration<double, std::milli>(now - slot.quarantined_at)
              .count();
      if (dwell_ms < options_.probe_after_ms) continue;
      slot.state = ShardState::kProbing;
      slot.probes += 1;
      due.push_back(static_cast<int>(s));
    }
  }
  for (const int s : due) {
    trace::TraceSpan span("fleet", "probe");
    span.arg("shard", transport_at(s)->instance());
    // Shadow duplicate: the result is discarded, so a still-sick shard can
    // only waste its own cycles — client traffic keeps routing around it.
    serve::RenderRequest probe = model;
    probe.deadline_s.reset();
    probe.priority = serve::RequestPriority::kLow;
    ShardState next = ShardState::kQuarantined;
    bool gone = false;
    try {
      const WireBuffer frame = encode_request(probe);
      PendingReply reply = transport_at(s)->submit(frame, std::nullopt);
      const WireBuffer bytes = reply.take();
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        wire_request_bytes_ += frame.size();
        wire_reply_bytes_ += bytes.size();
      }
      (void)decode_reply(bytes);  // throws the typed error on failure
      next = ShardState::kHealthy;
    } catch (const support::ShardDownError&) {
      gone = true;
    } catch (const std::exception&) {
      next = ShardState::kQuarantined;  // fresh dwell, probe again later
    }
    if (gone) {
      // The probe found a dead shard: hand it to the supervision ladder
      // (or mark it down for good when unsupervised).
      note_unreachable(s);
      continue;
    }
    bool reinstated = false;
    {
      const std::lock_guard<std::mutex> lock(health_mutex_);
      HealthSlot& slot = health_[static_cast<std::size_t>(s)];
      if (slot.state != ShardState::kProbing) continue;  // killed meanwhile
      slot.state = next;
      if (next == ShardState::kHealthy) {
        slot.reinstates += 1;
        slot.window_count = 0;
        slot.window_next = 0;
        reinstated = true;
      } else if (next == ShardState::kQuarantined) {
        slot.quarantined_at = std::chrono::steady_clock::now();
      }
    }
    if (reinstated) {
      trace::instant("fleet", "shard_reinstated");
    }
  }
}

void ShardRouter::execute(RouterTask task) {
  // Probing happens on its own thread; routing only refreshes the probe
  // template so a client task never waits behind a probe render.
  maybe_arm_probes(task.request);
  trace::flow(trace::Phase::kFlowStep, "fleet", "request", task.flow_id);
  trace::TraceSpan span("fleet", "route");
  span.arg("priority", to_string(task.priority));

  // Routing plan: healthy replicas first, then non-down replicas (a
  // quarantined owner of the scene beats a stranger's cold cache), then
  // any other live shard as a last resort.
  const std::vector<int> replicas = replicas_for(task.scene_key);
  const int total = shard_count();
  std::vector<int> plan;
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    for (const int s : replicas) {
      if (health_[static_cast<std::size_t>(s)].state == ShardState::kHealthy) {
        plan.push_back(s);
      }
    }
    for (const int s : replicas) {
      const ShardState state = health_[static_cast<std::size_t>(s)].state;
      if (state != ShardState::kHealthy && !unroutable(state)) {
        plan.push_back(s);
      }
    }
    if (plan.empty()) {
      for (int s = 0; s < total; ++s) {
        if (std::find(replicas.begin(), replicas.end(), s) !=
            replicas.end()) {
          continue;
        }
        if (!unroutable(health_[static_cast<std::size_t>(s)].state)) {
          plan.push_back(s);
        }
      }
    }
  }
  if (plan.empty()) {
    fail_task(task, std::make_exception_ptr(support::ShardDownError(
                        "every shard that could serve this scene is down")));
    return;
  }

  const bool hedging = options_.hedge_ms >= 0.0 && plan.size() > 1;
  std::exception_ptr last_error;
  bool failed_over = false;
  std::size_t next = 0;
  while (next < plan.size()) {
    const int primary_shard = plan[next++];
    std::optional<double> budget = remaining_deadline(task);
    if (budget.has_value() && *budget <= 0.0) {
      fail_task(task,
                std::make_exception_ptr(support::DeadlineExceededError(
                    "deadline expired inside the fleet router")),
                /*count_expired=*/true);
      return;
    }
    serve::RenderRequest attempt = task.request;
    attempt.deadline_s = budget;
    std::optional<PendingReply> primary;
    try {
      const WireBuffer frame = encode_request(attempt);
      primary.emplace(
          transport_at(primary_shard)->submit(frame, budget));
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      wire_request_bytes_ += frame.size();
    } catch (const support::ShardDownError&) {
      note_unreachable(primary_shard);
      last_error = std::current_exception();
      if (next < plan.size()) {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        failovers_ += 1;
        failed_over = true;
      }
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(health_mutex_);
      health_[static_cast<std::size_t>(primary_shard)].routed += 1;
    }

    // Hedge: give the primary one hedge delay; silence launches the same
    // request on the next planned replica and the first reply wins.
    int hedge_shard = -1;
    std::optional<PendingReply> hedge;
    if (hedging && next < plan.size() &&
        !primary->wait_for(std::chrono::duration<double>(
            hedge_delay_ms() / 1000.0))) {
      std::optional<double> hedge_budget = remaining_deadline(task);
      if (!hedge_budget.has_value() || *hedge_budget > 0.0) {
        const int candidate = plan[next];
        serve::RenderRequest backup = task.request;
        backup.deadline_s = hedge_budget;
        try {
          const WireBuffer frame = encode_request(backup);
          hedge.emplace(
              transport_at(candidate)->submit(frame, hedge_budget));
          hedge_shard = candidate;
          next += 1;
          {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            hedges_launched_ += 1;
            wire_request_bytes_ += frame.size();
          }
          {
            const std::lock_guard<std::mutex> lock(health_mutex_);
            health_[static_cast<std::size_t>(candidate)].routed += 1;
          }
        } catch (const support::ShardDownError&) {
          note_unreachable(candidate);
          next += 1;
        }
      }
    }

    // First reply wins; the loser (if any) is inspected when ready and
    // discarded otherwise — the client sees exactly one resolution.
    PendingReply* winner = &*primary;
    int winner_shard = primary_shard;
    PendingReply* loser = nullptr;
    int loser_shard = -1;
    if (hedge.has_value()) {
      for (;;) {
        if (primary->ready()) break;
        if (hedge->ready()) {
          winner = &*hedge;
          winner_shard = hedge_shard;
          loser = &*primary;
          loser_shard = primary_shard;
          const std::lock_guard<std::mutex> lock(stats_mutex_);
          hedges_won_ += 1;
          break;
        }
        (void)primary->wait_for(kHedgePollSlice);
      }
      if (loser == nullptr) {
        loser = &*hedge;
        loser_shard = hedge_shard;
      }
    }

    ReplyOutcome outcome = classify(winner->take(), winner_shard);
    if (!outcome.response.has_value() && !outcome.terminal &&
        loser != nullptr) {
      // Winner failed but the hedge pair is still live: the loser is a
      // fully-formed failover attempt already in flight — use it.
      PendingReply& backup_reply = *loser;
      loser = nullptr;
      outcome = classify(backup_reply.take(), loser_shard);
      if (!outcome.terminal) {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        failovers_ += 1;
        failed_over = true;
      }
    }
    if (loser != nullptr) {
      // The hedge loser: a ready reply is classified like any other; a
      // pending one is dropped — the shard resolves it unobserved, and
      // only this router held the handle.
      if (loser->ready()) (void)classify(loser->take(), loser_shard);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      hedges_discarded_ += 1;
    }
    if (outcome.response.has_value()) {
      span.arg("shard", winner_shard).arg("hedged", hedge_shard >= 0);
      if (failed_over) {
        span.arg("failover", true);
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        failover_successes_ += 1;
      }
      deliver(task, std::move(*outcome.response));
      return;
    }
    last_error = outcome.error;
    if (outcome.terminal) {
      fail_task(task, last_error);
      return;
    }
    if (next < plan.size()) {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      failovers_ += 1;
      failed_over = true;
    }
  }

  fail_task(task, last_error != nullptr
                      ? last_error
                      : std::make_exception_ptr(support::ShardDownError(
                            "no shard could serve the request")));
}

void ShardRouter::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Close admission, let the router threads drain every queued task
  // through still-running shards (every admitted future resolves), then
  // stop the shards themselves. The probe thread joins before the shards
  // stop (an in-flight probe resolves through a still-running shard), and
  // the supervisor stops before the transports so a shutdown is never
  // mistaken for a crash and respawned.
  queue_.close();
  {
    const std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  if (probe_thread_.joinable()) probe_thread_.join();
  if (supervisor_) supervisor_->stop();
  std::vector<Transport*> transports;
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    transports.reserve(slots_.size());
    for (const std::unique_ptr<Transport>& slot : slots_) {
      transports.push_back(slot.get());
    }
  }
  for (Transport* transport : transports) transport->shutdown();
}

void ShardRouter::kill_shard(int index) {
  // Terminal before lethal: the supervisor must never respawn a shard the
  // test (or operator) deliberately killed.
  if (supervisor_) supervisor_->mark_terminal(index);
  transport_at(index)->crash();
  const std::lock_guard<std::mutex> lock(health_mutex_);
  health_.at(static_cast<std::size_t>(index)).state = ShardState::kDown;
}

void ShardRouter::crash_shard(int index) {
  // No state change here: the point is that the *ladder* notices — via
  // the supervisor's waitpid poll or a submit's ShardDownError.
  transport_at(index)->crash();
}

void ShardRouter::wedge_shard(int index) {
  transport_at(index)->wedge();
}

void ShardRouter::note_unreachable(int index) {
  bool enter_ladder = false;
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    HealthSlot& slot = health_.at(static_cast<std::size_t>(index));
    if (slot.state == ShardState::kDown ||
        slot.state == ShardState::kRetired) {
      return;  // terminal states stay terminal
    }
    if (supervisor_ != nullptr) {
      if (slot.state != ShardState::kRespawning) {
        slot.state = ShardState::kRespawning;
        enter_ladder = true;
      }
    } else {
      slot.state = ShardState::kDown;
    }
  }
  if (enter_ladder) {
    trace::instant("fleet", "shard_unreachable");
    supervisor_->note_unreachable(index);
  }
}

void ShardRouter::on_shard_unreachable(int index) {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  HealthSlot& slot = health_.at(static_cast<std::size_t>(index));
  if (slot.state == ShardState::kDown || slot.state == ShardState::kRetired) {
    return;
  }
  slot.state = ShardState::kRespawning;
}

void ShardRouter::on_shard_respawned(int index) {
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    HealthSlot& slot = health_.at(static_cast<std::size_t>(index));
    if (slot.state == ShardState::kDown ||
        slot.state == ShardState::kRetired) {
      return;
    }
    // A respawned shard earns its way back: quarantined until the shadow
    // probe passes, with a clean breaker window (its past errors died with
    // the old process).
    slot.state = ShardState::kQuarantined;
    slot.quarantined_at = std::chrono::steady_clock::now();
    slot.quarantines += 1;
    slot.window_count = 0;
    slot.window_next = 0;
  }
  trace::instant("fleet", "shard_respawned");
}

void ShardRouter::on_shard_exhausted(int index) {
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    HealthSlot& slot = health_.at(static_cast<std::size_t>(index));
    if (slot.state == ShardState::kRetired) return;
    slot.state = ShardState::kDown;
  }
  trace::instant("fleet", "shard_exhausted");
}

void ShardRouter::on_shard_partitioned(int index) {
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    HealthSlot& slot = health_.at(static_cast<std::size_t>(index));
    // Terminal states stay terminal, and a shard already in the respawn
    // ladder has the harder diagnosis — don't downgrade it to partitioned.
    if (slot.state == ShardState::kDown ||
        slot.state == ShardState::kRetired ||
        slot.state == ShardState::kRespawning) {
      return;
    }
    slot.state = ShardState::kPartitioned;
  }
  trace::instant("fleet", "shard_partitioned",
                 {{"instance", transport_at(index)->instance()}});
}

void ShardRouter::on_shard_partition_healed(int index) {
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    HealthSlot& slot = health_.at(static_cast<std::size_t>(index));
    if (slot.state != ShardState::kPartitioned) return;
    // Healed, not trusted: the shard re-enters through the probe ladder
    // with a clean breaker window — stale in-flight wreckage from the
    // partition must not count against the healed link.
    slot.state = ShardState::kQuarantined;
    slot.quarantined_at = std::chrono::steady_clock::now();
    slot.quarantines += 1;
    slot.window_count = 0;
    slot.window_next = 0;
  }
  trace::instant("fleet", "shard_partition_healed",
                 {{"instance", transport_at(index)->instance()}});
}

void ShardRouter::warm_shard(
    int target, const std::vector<std::pair<std::uint64_t, int>>& ring) {
  if (options_.hot_scene_capacity == 0) return;
  std::vector<serve::RenderRequest> replay;
  {
    const std::lock_guard<std::mutex> lock(hot_mutex_);
    for (const auto& [key, request] : hot_scenes_) {
      const std::vector<int> owners = replicas_in(ring, key);
      if (std::find(owners.begin(), owners.end(), target) != owners.end()) {
        replay.push_back(request);
      }
    }
  }
  for (serve::RenderRequest& request : replay) {
    // Warm renders are shadow traffic: no deadline, lowest priority, the
    // frame is discarded — the point is the target's scene cache.
    request.deadline_s.reset();
    request.priority = serve::RequestPriority::kLow;
    bool ok = false;
    try {
      const WireBuffer frame = encode_request(request);
      PendingReply reply = transport_at(target)->submit(frame, std::nullopt);
      const WireBuffer bytes = reply.take();
      (void)decode_reply(bytes);
      ok = true;
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      wire_request_bytes_ += frame.size();
      wire_reply_bytes_ += bytes.size();
    } catch (const std::exception&) {
      // Best effort: a failed warm costs the new owner a cold first
      // render, nothing else.
    }
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    warm_replays_ += 1;
    if (!ok) warm_failures_ += 1;
  }
}

int ShardRouter::add_shard() {
  // Build (and for process fleets, spawn) the shard before taking any
  // router lock — a spawn takes milliseconds and must not stall routing.
  int index = 0;
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    index = static_cast<int>(slots_.size());
  }
  std::unique_ptr<Transport> built = make_transport(index);
  Transport* transport = built.get();
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    STARSIM_REQUIRE(index == static_cast<int>(slots_.size()),
                    "concurrent add_shard calls are not supported");
    slots_.push_back(std::move(built));
  }
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    health_.emplace_back();
    HealthSlot& slot = health_.back();
    slot.window.assign(std::max<std::size_t>(options_.breaker_window, 1),
                       true);
    // Unroutable until warmed and on the ring.
    slot.state = ShardState::kRespawning;
  }
  // Plan the post-resize ring, warm the newcomer against it, and only then
  // cut over. Consistent hashing moves keys only *onto* the new shard, so
  // requests keep resolving against the old ring throughout the warm.
  std::vector<std::pair<std::uint64_t, int>> candidate;
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    candidate = ring_;
  }
  append_ring_points(candidate, index);
  std::sort(candidate.begin(), candidate.end());
  warm_shard(index, candidate);
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_ = std::move(candidate);
  }
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    health_.at(static_cast<std::size_t>(index)).state = ShardState::kHealthy;
  }
  if (supervisor_) supervisor_->watch(index, transport);
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    shards_added_ += 1;
  }
  trace::instant("fleet", "shard_added");
  return index;
}

void ShardRouter::remove_shard(int index) {
  // Terminal first: a retirement that races a crash must win — the
  // supervisor would otherwise respawn a shard we are tearing down.
  if (supervisor_) supervisor_->mark_terminal(index);
  std::vector<std::pair<std::uint64_t, int>> current;
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    current = ring_;
  }
  std::vector<std::pair<std::uint64_t, int>> candidate;
  candidate.reserve(current.size());
  for (const auto& point : current) {
    if (point.second != index) candidate.push_back(point);
  }
  STARSIM_REQUIRE(!candidate.empty(), "cannot retire the last shard");
  // Hot scenes the retiree owned gain new owners under the candidate
  // ring; warm those owners before the cutover strands their caches cold.
  std::vector<int> gainers;
  {
    const std::lock_guard<std::mutex> lock(hot_mutex_);
    for (const auto& [key, request] : hot_scenes_) {
      const std::vector<int> before = replicas_in(current, key);
      if (std::find(before.begin(), before.end(), index) == before.end()) {
        continue;
      }
      for (const int owner : replicas_in(candidate, key)) {
        if (std::find(before.begin(), before.end(), owner) == before.end() &&
            std::find(gainers.begin(), gainers.end(), owner) ==
                gainers.end()) {
          gainers.push_back(owner);
        }
      }
    }
  }
  for (const int gainer : gainers) warm_shard(gainer, candidate);
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_ = std::move(candidate);
  }
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    health_.at(static_cast<std::size_t>(index)).state = ShardState::kRetired;
  }
  // In-flight work routed before the swap drains through the transport;
  // shutdown() is a graceful stop, not a kill.
  transport_at(index)->shutdown();
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    shards_removed_ += 1;
  }
  trace::instant("fleet", "shard_removed");
}

void ShardRouter::quarantine_shard(int index) {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  HealthSlot& slot = health_.at(static_cast<std::size_t>(index));
  if (slot.state == ShardState::kDown) return;
  slot.state = ShardState::kQuarantined;
  slot.quarantined_at = std::chrono::steady_clock::now();
  slot.quarantines += 1;
}

ShardState ShardRouter::shard_state(int index) const {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  return health_.at(static_cast<std::size_t>(index)).state;
}

FleetStats ShardRouter::stats() const {
  FleetStats s;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.rejected = rejected_;
    s.backpressure_rejected = backpressure_rejected_;
    s.router_shed = router_shed_;
    s.expired_router = expired_router_;
    s.hedges_launched = hedges_launched_;
    s.hedges_won = hedges_won_;
    s.hedges_discarded = hedges_discarded_;
    s.failovers = failovers_;
    s.failover_successes = failover_successes_;
    s.shard_sheds = shard_sheds_;
    s.wire_request_bytes = wire_request_bytes_;
    s.wire_reply_bytes = wire_reply_bytes_;
    s.transport_timeouts = transport_timeouts_;
    s.shards_added = shards_added_;
    s.shards_removed = shards_removed_;
    s.warm_replays = warm_replays_;
    s.warm_failures = warm_failures_;
    s.latency = support::tail_quantiles(latency_samples_);
    double sum = 0.0;
    for (const double sample : latency_samples_) sum += sample;
    s.mean_latency_s =
        latency_samples_.empty()
            ? 0.0
            : sum / static_cast<double>(latency_samples_.size());
  }
  std::vector<std::pair<int, SupervisorShardStats>> ladder;
  if (supervisor_) ladder = supervisor_->all_stats();
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    s.shards.reserve(health_.size());
    for (std::size_t i = 0; i < health_.size(); ++i) {
      const HealthSlot& slot = health_[i];
      Transport* transport = transport_at(static_cast<int>(i));
      ShardSnapshot snapshot;
      snapshot.index = static_cast<int>(i);
      snapshot.state = slot.state;
      snapshot.queue_depth = transport->queue_depth();
      snapshot.heartbeat_age_ms = transport->heartbeat_age_ms();
      snapshot.routed = slot.routed;
      snapshot.errors = slot.errors;
      snapshot.sheds = slot.sheds;
      snapshot.quarantines = slot.quarantines;
      snapshot.probes = slot.probes;
      snapshot.reinstates = slot.reinstates;
      for (const auto& [index, stats] : ladder) {
        if (index == snapshot.index) {
          snapshot.respawns = stats.respawns_succeeded;
          break;
        }
      }
      s.shards.push_back(snapshot);
      s.quarantines += slot.quarantines;
      s.probes += slot.probes;
      s.reinstates += slot.reinstates;
      const TransportStats transport_stats = transport->stats();
      s.reconnects += transport_stats.reconnects;
      s.heartbeats_sent += transport_stats.heartbeats_sent;
      s.heartbeats_missed += transport_stats.heartbeats_missed;
    }
  }
  for (const auto& [index, stats] : ladder) {
    (void)index;
    s.crashes_detected += stats.crashes_detected;
    s.hangs_detected += stats.hangs_detected;
    s.respawns_attempted += stats.respawns_attempted;
    s.respawns_succeeded += stats.respawns_succeeded;
    s.partitions_detected += stats.partitions_detected;
    s.partitions_healed += stats.partitions_healed;
    if (stats.exhausted) s.respawns_exhausted += 1;
    s.last_respawn_s = std::max(s.last_respawn_s, stats.last_respawn_s);
  }
  s.elapsed_s = lifetime_.seconds();
  s.throughput_rps = s.elapsed_s > 0.0
                         ? static_cast<double>(s.completed) / s.elapsed_s
                         : 0.0;
  return s;
}

std::string ShardRouter::scrape_metrics() const {
  using trace::MetricFamily;
  using trace::MetricType;
  const FleetStats s = stats();
  std::vector<MetricFamily> families;

  {
    MetricFamily f{"starsim_fleet_requests_total",
                   "Fleet requests by terminal outcome",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.submitted), {{"outcome", "submitted"}})
        .add(static_cast<double>(s.completed), {{"outcome", "completed"}})
        .add(static_cast<double>(s.failed), {{"outcome", "failed"}})
        .add(static_cast<double>(s.rejected), {{"outcome", "rejected"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_router_shed_total",
                   "Requests refused or displaced at the router, by reason",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.router_shed), {{"reason", "displaced"}})
        .add(static_cast<double>(s.backpressure_rejected),
             {{"reason", "backpressure"}})
        .add(static_cast<double>(s.expired_router), {{"reason", "expired"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_hedges_total",
                   "Hedged requests by lifecycle event",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.hedges_launched), {{"result", "launched"}})
        .add(static_cast<double>(s.hedges_won), {{"result", "won"}})
        .add(static_cast<double>(s.hedges_discarded),
             {{"result", "discarded"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_failovers_total",
                   "Replica failovers attempted and recovered",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.failovers), {{"result", "attempted"}})
        .add(static_cast<double>(s.failover_successes),
             {{"result", "recovered"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_shard_sheds_total",
                   "OverloadShedError replies received from shards",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.shard_sheds));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_health_transitions_total",
                   "Shard health-ladder transitions by event",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.quarantines), {{"event", "quarantine"}})
        .add(static_cast<double>(s.probes), {{"event", "probe"}})
        .add(static_cast<double>(s.reinstates), {{"event", "reinstate"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_shard_state",
                   "Health-ladder position per shard (0 healthy, 1 "
                   "quarantined, 2 probing, 3 down, 4 respawning, "
                   "5 retired, 6 partitioned)",
                   MetricType::kGauge, {}};
    for (const ShardSnapshot& shard : s.shards) {
      f.add(static_cast<double>(shard.state),
            {{"instance", transport_at(shard.index)->instance()}});
    }
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_shard_queue_depth",
                   "Requests waiting inside each shard service",
                   MetricType::kGauge, {}};
    for (const ShardSnapshot& shard : s.shards) {
      f.add(static_cast<double>(shard.queue_depth),
            {{"instance", transport_at(shard.index)->instance()}});
    }
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_shard_heartbeat_age_ms",
                   "Milliseconds since each shard's last liveness signal",
                   MetricType::kGauge, {}};
    for (const ShardSnapshot& shard : s.shards) {
      f.add(shard.heartbeat_age_ms,
            {{"instance", transport_at(shard.index)->instance()}});
    }
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_proc_failures_total",
                   "Shard crashes and hangs detected by the supervisor",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.crashes_detected), {{"kind", "crash"}})
        .add(static_cast<double>(s.hangs_detected), {{"kind", "hang"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_proc_respawns_total",
                   "Supervision-ladder respawns by outcome",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.respawns_attempted),
          {{"result", "attempted"}})
        .add(static_cast<double>(s.respawns_succeeded),
             {{"result", "succeeded"}})
        .add(static_cast<double>(s.respawns_exhausted),
             {{"result", "exhausted"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_proc_transport_timeouts_total",
                   "Request I/O budgets burned by unresponsive shards",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.transport_timeouts));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_proc_reconnects_total",
                   "Fresh shard connections dialed (first contact and "
                   "post-respawn redials)",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.reconnects));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_heartbeats_total",
                   "Shard heartbeat round trips by outcome",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.heartbeats_sent), {{"result", "sent"}})
        .add(static_cast<double>(s.heartbeats_missed),
             {{"result", "missed"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_ring_resizes_total",
                   "Runtime hash-ring membership changes",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.shards_added), {{"op", "add"}})
        .add(static_cast<double>(s.shards_removed), {{"op", "remove"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_warm_replays_total",
                   "Hot-scene replays during ring resizes",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.warm_replays), {{"result", "replayed"}})
        .add(static_cast<double>(s.warm_failures), {{"result", "failed"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_wire_bytes_total",
                   "Bytes crossing the wire boundary by direction",
                   MetricType::kCounter, {}};
    f.add(static_cast<double>(s.wire_request_bytes),
          {{"direction", "request"}})
        .add(static_cast<double>(s.wire_reply_bytes),
             {{"direction", "reply"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_latency_seconds",
                   "Fleet request latency quantiles (submit to delivery)",
                   MetricType::kGauge, {}};
    f.add(s.latency.p50, {{"quantile", "0.5"}})
        .add(s.latency.p95, {{"quantile", "0.95"}})
        .add(s.latency.p99, {{"quantile", "0.99"}});
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_queue_depth",
                   "Requests waiting in the router admission queue",
                   MetricType::kGauge, {}};
    f.add(static_cast<double>(queue_depth()));
    families.push_back(std::move(f));
  }
  {
    MetricFamily f{"starsim_fleet_throughput_rps",
                   "Completed fleet requests per second of router lifetime",
                   MetricType::kGauge, {}};
    f.add(s.throughput_rps);
    families.push_back(std::move(f));
  }

  // Network liveness families (fleet stage 3). Emitted for every fleet —
  // loopback transports report zeros — so trace-check --fleet can require
  // the family names unconditionally.
  {
    std::vector<std::pair<std::string, TransportNetStats>> net;
    {
      const std::lock_guard<std::mutex> lock(slots_mutex_);
      net.reserve(slots_.size());
      for (const std::unique_ptr<Transport>& slot : slots_) {
        net.emplace_back(slot->instance(), slot->net_stats());
      }
    }
    TransportNetStats total{};
    {
      MetricFamily f{"starsim_fleet_net_rtt_seconds",
                     "Per-shard smoothed round-trip estimate (srtt), "
                     "variance (rttvar), and retransmission timeout (rto)",
                     MetricType::kGauge, {}};
      for (const auto& [instance, stats] : net) {
        f.add(stats.srtt_ms * 1e-3,
              {{"instance", instance}, {"stat", "srtt"}})
            .add(stats.rttvar_ms * 1e-3,
                 {{"instance", instance}, {"stat", "rttvar"}})
            .add(stats.rto_ms * 1e-3,
                 {{"instance", instance}, {"stat", "rto"}});
        total.handshakes_ok += stats.handshakes_ok;
        total.handshakes_failed += stats.handshakes_failed;
        total.dial_backoffs += stats.dial_backoffs;
        total.faults_dropped += stats.faults_dropped;
        total.faults_delayed += stats.faults_delayed;
        total.faults_duplicated += stats.faults_duplicated;
        total.faults_reordered += stats.faults_reordered;
        total.faults_corrupted += stats.faults_corrupted;
        total.faults_partitioned += stats.faults_partitioned;
      }
      families.push_back(std::move(f));
    }
    {
      MetricFamily f{"starsim_fleet_net_handshakes_total",
                     "Connection handshakes (version + shard id + token) "
                     "by outcome",
                     MetricType::kCounter, {}};
      f.add(static_cast<double>(total.handshakes_ok), {{"result", "ok"}})
          .add(static_cast<double>(total.handshakes_failed),
               {{"result", "failed"}});
      families.push_back(std::move(f));
    }
    {
      MetricFamily f{"starsim_fleet_net_dial_backoffs_total",
                     "Dial attempts refused locally while the reconnect "
                     "backoff window was open",
                     MetricType::kCounter, {}};
      f.add(static_cast<double>(total.dial_backoffs));
      families.push_back(std::move(f));
    }
    {
      MetricFamily f{"starsim_fleet_net_partitions_total",
                     "Network partitions walked by the supervision ladder",
                     MetricType::kCounter, {}};
      f.add(static_cast<double>(s.partitions_detected),
            {{"event", "detected"}})
          .add(static_cast<double>(s.partitions_healed),
               {{"event", "healed"}});
      families.push_back(std::move(f));
    }
    {
      MetricFamily f{"starsim_fleet_net_faults_injected_total",
                     "Deterministic chaos faults injected, by kind",
                     MetricType::kCounter, {}};
      f.add(static_cast<double>(total.faults_dropped),
            {{"kind", "dropped"}})
          .add(static_cast<double>(total.faults_delayed),
               {{"kind", "delayed"}})
          .add(static_cast<double>(total.faults_duplicated),
               {{"kind", "duplicated"}})
          .add(static_cast<double>(total.faults_reordered),
               {{"kind", "reordered"}})
          .add(static_cast<double>(total.faults_corrupted),
               {{"kind", "corrupted"}})
          .add(static_cast<double>(total.faults_partitioned),
               {{"kind", "partitioned"}});
      families.push_back(std::move(f));
    }
  }

  // Merge shard-level serve families name-wise: Prometheus allows each
  // family once per exposition, so N shards contribute instance-labeled
  // samples to one shared family instead of N duplicate renders.
  std::map<std::string, std::size_t> merged;
  std::vector<Transport*> transports;
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    transports.reserve(slots_.size());
    for (const std::unique_ptr<Transport>& slot : slots_) {
      transports.push_back(slot.get());
    }
  }
  for (Transport* transport : transports) {
    for (trace::MetricFamily& family : transport->metric_families()) {
      const auto it = merged.find(family.name);
      if (it == merged.end()) {
        merged.emplace(family.name, families.size());
        families.push_back(std::move(family));
      } else {
        trace::MetricFamily& target = families[it->second];
        target.samples.insert(target.samples.end(),
                              std::make_move_iterator(family.samples.begin()),
                              std::make_move_iterator(family.samples.end()));
      }
    }
  }
  return trace::render_prometheus(families);
}

}  // namespace starsim::fleet
