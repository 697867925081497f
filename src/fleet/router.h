// ShardRouter — the fleet front end over N wire-isolated FrameService
// shards.
//
// Scenes are placed by consistent hashing: each shard owns `virtual_nodes`
// points on a 64-bit hash ring and a scene's fingerprint walks the ring to
// its R distinct replicas, so any replica can serve any request for its
// scenes (frames are bit-identical by construction) and adding a shard
// moves only ~1/N of the keyspace. On top of placement sit the four
// robustness mechanisms this module exists for:
//
//   * Hedged requests — after a latency-quantile delay with no reply, the
//     router launches the same request on the next replica; first reply
//     wins, the loser is discarded (its shard still renders, the client
//     never sees it twice). Tames one slow shard's p99.
//   * Replica failover — an error reply walks to the next replica; only
//     when every replica fails does the client see the error. Deadline
//     expiries never fail over (re-rendering cannot un-expire a request).
//   * Health ladder — a sliding-window error-rate breaker quarantines a
//     shard, shadow probes (duplicate requests whose results are
//     discarded) test it while real traffic routes around, and a passing
//     probe reinstates it. The same quarantine -> probe -> reinstate shape
//     as WorkerPool supervision, one level up (docs/resilience.md).
//   * Cross-shard backpressure — per-shard OverloadShedError replies fail
//     over like errors (without tripping the breaker: shed is pressure,
//     not failure), and when every replica's queue sits above the
//     high-watermark the router rejects low-priority work at admission
//     instead of queueing it to be shed later. The router's own bounded
//     queue reuses serve's 3-band priority shedding.
//
// Every request crosses fleet/wire.h both ways, so served frames stay
// bit-identical to direct renders through every hedge and failover path —
// the chaos suite (tests/test_fleet_chaos.cpp) holds the router to that.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/chaos.h"
#include "fleet/shard.h"
#include "fleet/supervisor.h"
#include "fleet/transport.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "support/stats.h"
#include "support/timer.h"

namespace starsim::fleet {

struct FleetOptions {
  /// Shard instances; each is a full FrameService built from `shard`.
  int shards = 4;
  /// Replicas per scene (capped at `shards`). 1 disables failover and
  /// hedging — there is nowhere else to go.
  int replicas = 2;
  /// Hash-ring points per shard. More points smooth the keyspace split.
  int virtual_nodes = 16;
  /// Router worker threads draining the admission queue onto shards.
  int router_threads = 2;
  /// Router admission bound (requests queued ahead of shard placement).
  std::size_t router_queue_capacity = 256;
  /// Hedging trigger: < 0 disables hedging, 0 adapts the delay to the
  /// observed `hedge_quantile` fleet latency, > 0 is a fixed delay in ms.
  double hedge_ms = -1.0;
  /// Latency quantile an adaptive hedge waits for before backing up.
  double hedge_quantile = 0.95;
  /// Floor for the adaptive hedge delay, ms (keeps a cold or very fast
  /// fleet from hedging every request).
  double min_hedge_ms = 1.0;
  /// Sliding outcome window per shard feeding the circuit breaker.
  std::size_t breaker_window = 16;
  /// Breaker arms only once the window holds this many outcomes.
  std::size_t breaker_min_samples = 8;
  /// Error rate over the window that trips quarantine.
  double breaker_error_rate = 0.5;
  /// Quarantine dwell before a shadow probe tests the shard, ms.
  double probe_after_ms = 25.0;
  /// Backpressure high-watermark: when every replica's shard queue is at
  /// least this full, low-priority requests are rejected at the router.
  double backpressure_ratio = 0.9;
  /// Template for every shard's FrameService (workers, queue, cache,
  /// fault injection...). Fault-policy seeds are decorrelated per shard.
  serve::FrameServiceOptions shard{};
  /// Chaos hook: make this shard's workers sleep `straggler_ms` per render
  /// (the slow replica hedging exists to beat). -1 disables.
  int straggler_shard = -1;
  double straggler_ms = 25.0;

  // Process shards (fleet stage 2) ----------------------------------------
  /// true runs every shard as a starsim_shardd process behind a
  /// Unix-domain-socket transport; false keeps the in-process loopback.
  /// Both transports walk the same health + supervision ladder.
  bool process_shards = false;
  /// Path to the starsim_shardd binary (required when process_shards).
  std::string shardd_path;
  /// Directory for shard socket files (required when process_shards).
  std::string socket_dir;
  /// Socket-transport tuning (I/O budgets, heartbeat cadence).
  SocketTransportOptions transport{};
  /// Run the crash/hang supervision ladder (respawn + reinstate). Off,
  /// a dead shard stays kDown — PR 6 behaviour.
  bool supervise = false;
  SupervisorOptions supervision{};

  // Network shards (fleet stage 3) ----------------------------------------
  /// true spawns process shards listening on TCP loopback (each shard gets
  /// a kernel-assigned 127.0.0.1 port) instead of Unix sockets. Requires
  /// process_shards.
  bool tcp_shards = false;
  /// Handshake secret for socket shards. Empty defaults from
  /// STARSIM_FLEET_TOKEN at construction; still empty disables auth.
  std::string fleet_token;
  /// Wrap this shard's transport in a deterministic ChaosTransport
  /// (drop/delay/duplicate/reorder/corrupt/partition injection, scripted
  /// via chaos_transport()). -1 disables.
  int chaos_shard = -1;
  ChaosNetOptions net_chaos{};
  /// Hot-scene memory for ring-resize cache warming: the router keeps the
  /// most recent distinct scenes (by fingerprint) and replays them to a
  /// new replica before cutover. 0 disables warming.
  std::size_t hot_scene_capacity = 32;
};

/// Health-ladder position of one shard (docs/resilience.md).
enum class ShardState : int {
  kHealthy = 0,
  kQuarantined = 1,  ///< breaker tripped; real traffic routes around
  kProbing = 2,      ///< shadow probe in flight
  kDown = 3,         ///< dead with no respawn coming; terminal
  kRespawning = 4,   ///< crashed/hung; supervisor is rebuilding it
  kRetired = 5,      ///< removed from the ring deliberately; terminal
  kPartitioned = 6,  ///< alive but unreachable; routed around, NOT respawned
};

[[nodiscard]] std::string_view to_string(ShardState state);

/// Per-shard slice of FleetStats.
struct ShardSnapshot {
  int index = 0;
  ShardState state = ShardState::kHealthy;
  std::size_t queue_depth = 0;
  std::uint64_t routed = 0;   ///< attempts sent to this shard (incl. hedges)
  std::uint64_t errors = 0;   ///< error replies (breaker input)
  std::uint64_t sheds = 0;    ///< OverloadShedError replies
  std::uint64_t quarantines = 0;
  std::uint64_t probes = 0;
  std::uint64_t reinstates = 0;
  std::uint64_t respawns = 0;        ///< successful supervisor respawns
  double heartbeat_age_ms = 0.0;     ///< liveness staleness (socket shards)
};

/// Fleet-level aggregate counters; the router-tier analogue of
/// ServiceStats, including the shed/quarantine/hedge counters the issue
/// wants surfaced as stats rather than logs.
struct FleetStats {
  std::uint64_t submitted = 0;   ///< admitted into the router queue
  std::uint64_t completed = 0;   ///< futures resolved with a frame
  std::uint64_t failed = 0;      ///< futures resolved with an exception
  std::uint64_t rejected = 0;    ///< bounced at router admission
  /// Of `rejected`, low-priority requests refused because every replica
  /// sat above the backpressure high-watermark.
  std::uint64_t backpressure_rejected = 0;
  /// Requests displaced from the router queue by higher-priority
  /// admissions (failed with OverloadShedError; also counted in failed).
  std::uint64_t router_shed = 0;
  /// Deadlines that expired inside the router (also counted in failed).
  std::uint64_t expired_router = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;       ///< hedge replied before the primary
  std::uint64_t hedges_discarded = 0; ///< loser replies dropped (dedup)
  std::uint64_t failovers = 0;           ///< replica-to-replica retries
  std::uint64_t failover_successes = 0;  ///< of those, later replica served
  std::uint64_t shard_sheds = 0;  ///< OverloadShedError replies from shards
  std::uint64_t quarantines = 0;
  std::uint64_t probes = 0;
  std::uint64_t reinstates = 0;
  std::uint64_t wire_request_bytes = 0;
  std::uint64_t wire_reply_bytes = 0;
  /// Transport I/O deadline misses observed by the router (a hung shard
  /// burned a request's remaining budget; the request failed over).
  std::uint64_t transport_timeouts = 0;
  // Supervision ladder (summed over shards; see ProcessSupervisor) -------
  std::uint64_t crashes_detected = 0;
  std::uint64_t hangs_detected = 0;
  std::uint64_t respawns_attempted = 0;
  std::uint64_t respawns_succeeded = 0;
  std::uint64_t respawns_exhausted = 0;  ///< shards that ran out of budget
  /// Network partitions the supervisor's partition rung saw (route-around,
  /// no respawn) and how many of those healed.
  std::uint64_t partitions_detected = 0;
  std::uint64_t partitions_healed = 0;
  /// Seconds the most recent successful respawn took, detect-to-ready.
  double last_respawn_s = 0.0;
  // Socket-transport traffic (zero for loopback fleets) ------------------
  std::uint64_t reconnects = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_missed = 0;
  // Dynamic ring ---------------------------------------------------------
  std::uint64_t shards_added = 0;
  std::uint64_t shards_removed = 0;
  std::uint64_t warm_replays = 0;   ///< hot scenes replayed during resizes
  std::uint64_t warm_failures = 0;  ///< of those, replays that failed
  support::TailQuantiles latency;  ///< submit -> delivery, router-side
  double mean_latency_s = 0.0;
  double elapsed_s = 0.0;
  double throughput_rps = 0.0;
  std::vector<ShardSnapshot> shards;

  /// Zero once the fleet has quiesced; anything else is a stuck future.
  [[nodiscard]] std::uint64_t in_flight() const {
    return submitted - completed - failed;
  }
};

class ShardRouter {
 public:
  explicit ShardRouter(FleetOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Blocking admission (waits for router-queue space). Throws
  /// support::Error once stopped; invalid scenes throw synchronously.
  [[nodiscard]] std::future<serve::RenderResponse> submit(
      serve::RenderRequest request);

  /// Non-blocking admission with the full router-level policy: expired
  /// deadlines fail fast, saturated replicas reject low-priority work
  /// (backpressure), and the bounded router queue sheds lower-priority
  /// work under overload. nullopt = rejected.
  [[nodiscard]] std::optional<std::future<serve::RenderResponse>> try_submit(
      serve::RenderRequest request);

  /// submit + wait.
  [[nodiscard]] serve::RenderResponse render(serve::RenderRequest request);

  /// Stop admission, drain queued requests through the shards, join the
  /// router threads, stop every shard. Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] FleetStats stats() const;
  /// One Prometheus exposition for the whole fleet: router-level families
  /// plus every shard's serve families merged name-wise (each family
  /// appears once, samples instance-labeled per shard).
  [[nodiscard]] std::string scrape_metrics() const;
  [[nodiscard]] const FleetOptions& options() const { return options_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] int shard_count() const;

  /// The R distinct replica shards for a scene key, in ring order.
  [[nodiscard]] std::vector<int> replicas_for(std::uint64_t scene_key) const;

  // Dynamic ring -----------------------------------------------------------
  /// Grow the fleet by one shard at runtime. The new shard is built (and,
  /// for process fleets, spawned), warmed with the router's hot scenes
  /// that it will co-own, and only then added to the ring — consistent
  /// hashing guarantees keys move only *onto* the new shard, ~R/(N+1) of
  /// them. Returns the new shard's index.
  int add_shard();
  /// Retire a shard at runtime: hot scenes it owned are replayed to their
  /// new owners, the ring drops its points (keys move only *off* it), its
  /// state becomes kRetired and its transport shuts down gracefully.
  void remove_shard(int index);

  // Chaos / test hooks -----------------------------------------------------
  /// Kill a shard permanently: admission there stops, state becomes kDown,
  /// traffic fails over, the supervisor never respawns it. Admitted work
  /// drains (no stuck futures).
  void kill_shard(int index);
  /// Supervised crash (SIGKILL the process / kill the in-process shard):
  /// the ladder detects it, respawns under budget, and the shadow probe
  /// reinstates — the primary chaos hook for recovery tests.
  void crash_shard(int index);
  /// Wedge a shard without killing it (SIGSTOP / loopback timeout mode):
  /// heartbeats stop, the hang detector fires, the ladder takes over.
  void wedge_shard(int index);
  /// Force a shard into quarantine (as if its breaker tripped).
  void quarantine_shard(int index);
  [[nodiscard]] ShardState shard_state(int index) const;
  /// The in-process Shard behind a loopback slot; throws for socket
  /// transports (use transport(index) for transport-level access).
  [[nodiscard]] Shard& shard(int index);
  /// nullptr when shard `index` is not loopback (per-shard introspection
  /// that callers must guard in process fleets).
  [[nodiscard]] Shard* loopback_shard(int index);
  [[nodiscard]] Transport& transport(int index);
  /// The chaos decorator on shard `index` (scripted partitions, fault
  /// counters); nullptr when that shard is not chaos-wrapped.
  [[nodiscard]] ChaosTransport* chaos_transport(int index);

 private:
  struct RouterTask {
    serve::RenderRequest request;
    std::uint64_t scene_key = 0;
    serve::RequestPriority priority = serve::RequestPriority::kNormal;
    std::chrono::steady_clock::time_point submitted{};
    std::optional<double> deadline_s;
    std::shared_ptr<std::promise<serve::RenderResponse>> promise;
    std::uint64_t flow_id = 0;
  };

  /// Breaker + ladder state for one shard, under health_mutex_.
  struct HealthSlot {
    ShardState state = ShardState::kHealthy;
    std::vector<bool> window;  ///< ring of outcomes, true = success
    std::size_t window_next = 0;
    std::size_t window_count = 0;
    std::chrono::steady_clock::time_point quarantined_at{};
    std::uint64_t routed = 0;
    std::uint64_t errors = 0;
    std::uint64_t sheds = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t probes = 0;
    std::uint64_t reinstates = 0;
  };

  /// One shard reply, decoded: the response, or the error it carried.
  struct ReplyOutcome {
    std::optional<serve::RenderResponse> response;
    std::exception_ptr error;  ///< set iff `response` is empty
    /// DeadlineExceededError: re-rendering cannot un-expire the request.
    bool terminal = false;
  };

  [[nodiscard]] RouterTask make_task(serve::RenderRequest&& request);
  /// Stable pointer to a slot's transport (slots_ is append-only).
  [[nodiscard]] Transport* transport_at(int index) const;
  /// Build one shard's transport (loopback or socket per options).
  [[nodiscard]] std::unique_ptr<Transport> make_transport(int index);
  /// Wrap `built` in a ChaosTransport when `index` is the chaos shard.
  [[nodiscard]] std::unique_ptr<Transport> wrap_chaos(
      int index, std::unique_ptr<Transport> built);
  /// The `virtual_nodes` ring points for shard `index`.
  void append_ring_points(std::vector<std::pair<std::uint64_t, int>>& ring,
                          int index) const;
  /// replicas_for against an explicit ring (resize planning).
  [[nodiscard]] std::vector<int> replicas_in(
      const std::vector<std::pair<std::uint64_t, int>>& ring,
      std::uint64_t scene_key) const;
  /// Remember a scene for ring-resize warming (LRU by fingerprint).
  void note_hot_scene(const RouterTask& task);
  /// Replay hot scenes owned (per `ring`) by `target` onto it; best
  /// effort, counts warm_replays/warm_failures.
  void warm_shard(int target,
                  const std::vector<std::pair<std::uint64_t, int>>& ring);
  /// A submit to `index` just failed with ShardDownError: enter the
  /// supervision ladder (kRespawning) when supervised, else mark kDown.
  void note_unreachable(int index);
  /// Supervisor callbacks (monitor thread).
  void on_shard_unreachable(int index);
  void on_shard_respawned(int index);
  void on_shard_exhausted(int index);
  void on_shard_partitioned(int index);
  void on_shard_partition_healed(int index);
  void run(int worker_index);
  void execute(RouterTask task);
  /// Publish `model` as the probe template and wake the probe thread when
  /// any shard sits in quarantine. Called from execute(); cheap when the
  /// fleet is healthy (one health scan, no copy).
  void maybe_arm_probes(const serve::RenderRequest& model);
  /// Probe-thread body: waits for a template, then shadow-probes due
  /// quarantined shards off the routing path.
  void probe_loop();
  /// Quarantined shards whose dwell elapsed get a shadow probe built from
  /// `model` (deadline stripped, priority lowered, result discarded).
  /// Blocks for the probe renders — probe-thread only.
  void run_due_probes(const serve::RenderRequest& model);
  /// Remaining deadline budget, or nullopt for no deadline; <= 0 means
  /// expired.
  [[nodiscard]] std::optional<double> remaining_deadline(
      const RouterTask& task) const;
  [[nodiscard]] double hedge_delay_ms() const;
  void record_outcome(int shard_index, bool success);
  void record_shed(int shard_index);
  /// Decode `bytes`, a reply from `shard`, and account for it once (reply
  /// bytes, the shard's breaker and sheds, transport timeouts, unreachable
  /// peers) — the same way for a winner, a failover and a hedge loser.
  [[nodiscard]] ReplyOutcome classify(const WireBuffer& bytes, int shard);
  void fail_task(RouterTask& task, std::exception_ptr error,
                 bool count_expired = false, bool count_shed = false);
  void deliver(RouterTask& task, serve::RenderResponse response);
  [[nodiscard]] bool replicas_saturated(
      const std::vector<int>& candidates) const;

  FleetOptions options_;
  support::WallTimer lifetime_;
  /// Shard transports, append-only (retired slots stay, so indices and
  /// element pointers are stable for the router's lifetime).
  mutable std::mutex slots_mutex_;
  std::deque<std::unique_ptr<Transport>> slots_;
  /// Sorted hash ring: (point, shard index). Swapped wholesale on
  /// add_shard/remove_shard under ring_mutex_.
  mutable std::mutex ring_mutex_;
  std::vector<std::pair<std::uint64_t, int>> ring_;
  serve::BoundedQueue<RouterTask> queue_;

  mutable std::mutex health_mutex_;
  std::vector<HealthSlot> health_;

  /// Crash/hang supervision (null when options_.supervise is false).
  std::unique_ptr<ProcessSupervisor> supervisor_;

  /// Hot-scene LRU for ring-resize cache warming: most recent distinct
  /// scenes by fingerprint, request copies ready to replay.
  mutable std::mutex hot_mutex_;
  std::list<std::pair<std::uint64_t, serve::RenderRequest>> hot_scenes_;
  std::unordered_map<
      std::uint64_t,
      std::list<std::pair<std::uint64_t, serve::RenderRequest>>::iterator>
      hot_index_;

  mutable std::mutex stats_mutex_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t backpressure_rejected_ = 0;
  std::uint64_t router_shed_ = 0;
  std::uint64_t expired_router_ = 0;
  std::uint64_t hedges_launched_ = 0;
  std::uint64_t hedges_won_ = 0;
  std::uint64_t hedges_discarded_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t failover_successes_ = 0;
  std::uint64_t shard_sheds_ = 0;
  std::uint64_t wire_request_bytes_ = 0;
  std::uint64_t wire_reply_bytes_ = 0;
  std::uint64_t transport_timeouts_ = 0;
  std::uint64_t shards_added_ = 0;
  std::uint64_t shards_removed_ = 0;
  std::uint64_t warm_replays_ = 0;
  std::uint64_t warm_failures_ = 0;
  std::vector<double> latency_samples_;
  /// Recent latencies in ms feeding the adaptive hedge trigger.
  std::vector<double> hedge_ring_;
  std::size_t hedge_ring_next_ = 0;
  std::size_t hedge_ring_count_ = 0;

  mutable std::mutex stop_mutex_;
  bool stopped_ = false;

  /// Probe template + shutdown flag for the probe thread, under
  /// probe_mutex_. Probes run off the router workers so a slow or sick
  /// shard's probe render never stalls client routing.
  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;
  std::optional<serve::RenderRequest> probe_model_;

  // Last members: these threads touch everything above.
  std::thread probe_thread_;
  std::vector<std::thread> threads_;
};

}  // namespace starsim::fleet
