// Scheduler — the serving-facing facade over ScheduleCache + Tuner.
//
// The one place serving decides how to render a workload: choose()
// resolves it to a simulator through the schedule cache (hash lookup on the
// hot path, a microsecond tune on a miss) and composes with per-request
// pinning (the override always wins, but its modeled cost is still
// recorded against the tuned decision so operators can see pinning drift).
// All counters needed for the starsim_sched_* Prometheus families
// accumulate here.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "sched/cache.h"
#include "sched/tuner.h"

namespace starsim::sched {

struct SchedulerOptions {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::gtx480();
  gpusim::HostSpec host = gpusim::HostSpec::i7_860();
  TunerOptions tuner{};
  /// Accuracy floor for the adaptive path's lookup table (what the
  /// workload's consumers require; the tuner only searches finer).
  LookupTableOptions lut_floor{};
  std::size_t cache_capacity = 256;
  /// Frames a batch is expected to amortize per-scene setup over when the
  /// caller does not say (FrameService passes its observed batch size).
  std::size_t batch_hint = 1;
};

struct SchedulerStats {
  CacheStats cache;
  std::uint64_t tuner_invocations = 0;
  std::uint64_t candidates_evaluated = 0;
  std::uint64_t overrides_recorded = 0;
  /// Pinned requests whose tuned drift could not be scored.
  std::uint64_t fallbacks = 0;
  /// Sum of modeled per-frame seconds of every tuned decision and of the
  /// best fixed baseline for the same workloads — their ratio is the
  /// aggregate modeled speedup the scheduler claims.
  double tuned_modeled_s_total = 0.0;
  double fallback_modeled_s_total = 0.0;
  /// Sum of (override cost - tuned cost): how much modeled time pinned
  /// requests are leaving on the table.
  double override_drift_s_total = 0.0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});

  /// The simulator the tuned schedule picks for this workload. `preference`
  /// (a pinned request) always wins when set; the tuned decision is still
  /// computed/cached so drift is recorded, and the pinned path never throws:
  /// a drift that cannot be scored ticks `fallbacks` and the pin stands.
  /// Unpinned, an invalid workload throws PreconditionError. Empty fields
  /// are kSequential by convention (nothing to render — matches
  /// FrameService).
  [[nodiscard]] SimulatorKind choose(
      const SceneConfig& scene, std::size_t star_count,
      std::optional<SimulatorKind> preference = std::nullopt);

  /// The full tuned schedule (cache hit or fresh tune). batch_hint == 0
  /// uses the option default. Throws on invalid workloads.
  [[nodiscard]] CachedSchedule schedule_for(const SceneConfig& scene,
                                            std::size_t star_count,
                                            std::size_t batch_hint = 0);

  /// Warm-start persistence (see ScheduleCache::save/load). The file is
  /// stamped with this scheduler's device fingerprint.
  [[nodiscard]] bool save_cache(const std::string& path) const;
  [[nodiscard]] bool load_cache(const std::string& path);

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] const Tuner& tuner() const { return tuner_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

 private:
  [[nodiscard]] CachedSchedule schedule_locked(const SceneConfig& scene,
                                               std::size_t star_count,
                                               std::size_t batch_hint);

  SchedulerOptions options_;
  Tuner tuner_;
  mutable std::mutex mutex_;  ///< serializes tune-on-miss and stats
  ScheduleCache cache_;
  SchedulerStats stats_;
};

}  // namespace starsim::sched
