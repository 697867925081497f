#include "sched/scheduler.h"

#include <utility>

#include "support/error.h"

namespace starsim::sched {

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)),
      tuner_(CostModel(options_.device, options_.host), options_.tuner),
      cache_(options_.cache_capacity) {}

CachedSchedule Scheduler::schedule_locked(const SceneConfig& scene,
                                          std::size_t star_count,
                                          std::size_t batch_hint) {
  Workload workload;
  workload.scene = scene;
  workload.star_count = star_count;
  workload.batch_hint = batch_hint == 0 ? options_.batch_hint : batch_hint;

  const std::uint64_t key =
      fingerprint_workload(workload, options_.lut_floor, options_.device);
  if (std::optional<CachedSchedule> hit = cache_.lookup(key)) {
    return *hit;
  }
  const TuningOutcome outcome = tuner_.tune(workload, options_.lut_floor);
  ++stats_.tuner_invocations;
  stats_.candidates_evaluated += outcome.candidates_evaluated;
  stats_.tuned_modeled_s_total += outcome.cost.application_s;
  stats_.fallback_modeled_s_total += outcome.best_fixed_s();

  CachedSchedule entry;
  entry.schedule = outcome.schedule;
  entry.modeled_s = outcome.cost.application_s;
  entry.fallback_s = outcome.best_fixed_s();
  cache_.insert(key, entry);
  return entry;
}

CachedSchedule Scheduler::schedule_for(const SceneConfig& scene,
                                       std::size_t star_count,
                                       std::size_t batch_hint) {
  scene.validate();
  STARSIM_REQUIRE(star_count > 0, "scheduling needs at least one star");
  std::lock_guard<std::mutex> lock(mutex_);
  return schedule_locked(scene, star_count, batch_hint);
}

SimulatorKind Scheduler::choose(const SceneConfig& scene,
                                std::size_t star_count,
                                std::optional<SimulatorKind> preference) {
  if (star_count == 0) return SimulatorKind::kSequential;
  if (preference) {
    // The pin always wins, but the tuned decision is still computed (and
    // cached) so the modeled cost of honoring the pin is visible.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.overrides_recorded;
    try {
      const CachedSchedule tuned =
          schedule_locked(scene, star_count, /*batch_hint=*/0);
      if (*preference != SimulatorKind::kMultiGpu) {
        const CostBreakdown pinned = tuner_.model().score(
            scene, star_count,
            fixed_schedule(*preference, scene, star_count, options_.lut_floor,
                           options_.batch_hint));
        stats_.override_drift_s_total +=
            pinned.application_s - tuned.modeled_s;
      }
    } catch (const support::Error&) {
      ++stats_.fallbacks;  // drift unrecordable; the pin still stands
    }
    return *preference;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return schedule_locked(scene, star_count, /*batch_hint=*/0).schedule
      .simulator;
}

bool Scheduler::save_cache(const std::string& path) const {
  return cache_.save(path, options_.device.fingerprint());
}

bool Scheduler::load_cache(const std::string& path) {
  return cache_.load(path, options_.device.fingerprint());
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats out = stats_;
  out.cache = cache_.stats();
  return out;
}

}  // namespace starsim::sched
