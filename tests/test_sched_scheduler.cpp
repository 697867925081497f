// Scheduler — the serving facade: cached tune-on-miss under concurrency,
// per-request override accounting, the pinned path's fallback, and warm-start
// persistence across scheduler instances.
#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "support/error.h"

namespace {

namespace sched = starsim::sched;
using starsim::SceneConfig;
using starsim::SimulatorKind;

SceneConfig paper_scene(int roi_side = 10) {
  SceneConfig scene;
  scene.image_width = 1024;
  scene.image_height = 1024;
  scene.roi_side = roi_side;
  return scene;
}

TEST(SchedScheduler, ConcurrentChooseTunesOnce) {
  // Many threads asking about the same workload class must trigger exactly
  // one tune; everyone else hits the cache and agrees on the answer.
  sched::Scheduler scheduler;
  const SceneConfig scene = paper_scene();
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 32;
  std::vector<SimulatorKind> answers(kThreads, SimulatorKind::kMultiGpu);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SimulatorKind kind = SimulatorKind::kMultiGpu;
      for (int i = 0; i < kCallsPerThread; ++i) {
        kind = scheduler.choose(scene, 8192);
      }
      answers[static_cast<std::size_t>(t)] = kind;
    });
  }
  for (std::thread& t : threads) t.join();

  const sched::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.tuner_invocations, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits,
            static_cast<std::uint64_t>(kThreads * kCallsPerThread - 1));
  EXPECT_EQ(stats.fallbacks, 0u);
  for (SimulatorKind kind : answers) EXPECT_EQ(kind, answers.front());
}

TEST(SchedScheduler, DistinctWorkloadClassesTuneSeparately) {
  // Star counts land in floor(log2) buckets: three different powers of two
  // are three cache entries, but counts within one bucket share a tune.
  sched::Scheduler scheduler;
  const SceneConfig scene = paper_scene();
  (void)scheduler.choose(scene, 1024);
  (void)scheduler.choose(scene, 1025);  // same bucket as 1024
  (void)scheduler.choose(scene, 2048);
  (void)scheduler.choose(scene, 4096);
  const sched::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.tuner_invocations, 3u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(SchedScheduler, EmptyFieldIsSequentialWithoutTuning) {
  sched::Scheduler scheduler;
  EXPECT_EQ(scheduler.choose(paper_scene(), 0), SimulatorKind::kSequential);
  EXPECT_EQ(scheduler.stats().tuner_invocations, 0u);
}

TEST(SchedScheduler, OverrideWinsAndRecordsDrift) {
  // A pinned simulator is always honored, but the tuned decision is still
  // computed so the modeled cost of the pin is visible. Pinning sequential
  // at 2^15 stars (deep in GPU territory) must record positive drift.
  sched::Scheduler scheduler;
  const SceneConfig scene = paper_scene();
  EXPECT_EQ(scheduler.choose(scene, 1u << 15, SimulatorKind::kSequential),
            SimulatorKind::kSequential);
  sched::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.overrides_recorded, 1u);
  EXPECT_EQ(stats.tuner_invocations, 1u);  // tuned decision still cached
  EXPECT_GT(stats.override_drift_s_total, 0.0);

  // Pinning what the tuner would have picked anyway adds ~zero drift.
  const double drift_before = stats.override_drift_s_total;
  const SimulatorKind tuned =
      scheduler.schedule_for(scene, 1u << 15).schedule.simulator;
  EXPECT_EQ(scheduler.choose(scene, 1u << 15, tuned), tuned);
  stats = scheduler.stats();
  EXPECT_EQ(stats.overrides_recorded, 2u);
  EXPECT_NEAR(stats.override_drift_s_total, drift_before, 1e-12);
}

TEST(SchedScheduler, MultiGpuPinSkipsDriftButCounts) {
  // kMultiGpu cannot be scored by the cost model; the pin still wins and is
  // still counted, with no drift contribution and no fallback tick.
  sched::Scheduler scheduler;
  EXPECT_EQ(scheduler.choose(paper_scene(), 4096, SimulatorKind::kMultiGpu),
            SimulatorKind::kMultiGpu);
  const sched::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.overrides_recorded, 1u);
  EXPECT_EQ(stats.override_drift_s_total, 0.0);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(SchedScheduler, PinnedChooseFallsBackOnInvalidScene) {
  // The pinned path never throws: an unschedulable workload under a pin
  // keeps the pin and ticks the fallback counter instead of failing the
  // request.
  sched::Scheduler scheduler;
  SceneConfig invalid = paper_scene();
  invalid.roi_side = 0;
  EXPECT_EQ(scheduler.choose(invalid, 64, SimulatorKind::kParallel),
            SimulatorKind::kParallel);
  const sched::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.overrides_recorded, 1u);
}

TEST(SchedScheduler, UnpinnedInvalidSceneThrowsWithoutFallback) {
  // Unpinned, there is no decision to fall back to: an invalid workload is
  // the caller's error (FrameService::admit validates first), so choose()
  // throws and the fallback counter stays for pinned requests only.
  sched::Scheduler scheduler;
  SceneConfig invalid = paper_scene();
  invalid.roi_side = 0;
  EXPECT_THROW((void)scheduler.choose(invalid, 64),
               starsim::support::PreconditionError);
  EXPECT_EQ(scheduler.stats().fallbacks, 0u);
}

TEST(SchedScheduler, ScheduleForValidates) {
  sched::Scheduler scheduler;
  EXPECT_THROW((void)scheduler.schedule_for(paper_scene(), 0),
               starsim::support::Error);
  SceneConfig invalid = paper_scene();
  invalid.image_width = 0;
  EXPECT_THROW((void)scheduler.schedule_for(invalid, 64),
               starsim::support::Error);
}

TEST(SchedScheduler, BatchHintIsPartOfTheWorkloadClass) {
  // The batch hint changes what the tuner amortizes, so it must key the
  // cache: the same scene at batch 1 and batch 8 are two entries.
  sched::Scheduler scheduler;
  const SceneConfig scene = paper_scene();
  (void)scheduler.schedule_for(scene, 1u << 14, 1);
  (void)scheduler.schedule_for(scene, 1u << 14, 8);
  EXPECT_EQ(scheduler.stats().tuner_invocations, 2u);
}

TEST(SchedScheduler, WarmStartCacheSurvivesRestart) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "starsim_test_sched_scheduler_warm.txt")
          .string();
  std::remove(path.c_str());

  sched::SchedulerOptions options;
  options.cache_capacity = 32;
  {
    sched::Scheduler cold(options);
    for (std::size_t n : {256u, 4096u, 65536u}) {
      (void)cold.schedule_for(paper_scene(), n);
    }
    ASSERT_TRUE(cold.save_cache(path));
  }

  sched::Scheduler warm(options);
  ASSERT_TRUE(warm.load_cache(path));
  for (std::size_t n : {256u, 4096u, 65536u}) {
    (void)warm.schedule_for(paper_scene(), n);
  }
  const sched::SchedulerStats stats = warm.stats();
  EXPECT_EQ(stats.tuner_invocations, 0u);
  EXPECT_EQ(stats.cache.hits, 3u);
  EXPECT_EQ(stats.cache.misses, 0u);

  // A scheduler for different hardware must reject the same file.
  sched::SchedulerOptions other = options;
  other.device = starsim::gpusim::DeviceSpec::gtx580();
  sched::Scheduler mismatched(other);
  EXPECT_FALSE(mismatched.load_cache(path));
  std::remove(path.c_str());
}

TEST(SchedScheduler, ConcurrentMixedWorkloadsStayConsistent) {
  // Threads hammer overlapping workload classes with and without pins; the
  // invariant bundle: hits + misses == unpinned lookups + pinned lookups,
  // every miss is a tune, and no fallback fires on valid scenes.
  sched::Scheduler scheduler;
  constexpr int kThreads = 8;
  constexpr int kIterations = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::size_t stars = std::size_t{64} << ((t + i) % 4);
        if (i % 3 == 0) {
          (void)scheduler.choose(paper_scene(), stars,
                                 SimulatorKind::kParallel);
        } else {
          (void)scheduler.choose(paper_scene(), stars);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const sched::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.cache.hits + stats.cache.misses,
            static_cast<std::uint64_t>(kThreads * kIterations));
  EXPECT_EQ(stats.tuner_invocations, stats.cache.misses);
  EXPECT_EQ(stats.tuner_invocations, 4u);  // four distinct star buckets
  EXPECT_EQ(stats.fallbacks, 0u);
}

}  // namespace
