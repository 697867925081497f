#include "serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "imageio/image.h"
#include "starsim/adaptive_simulator.h"
#include "starsim/parallel_simulator.h"
#include "starsim/sequential_simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

namespace gs = starsim::gpusim;
using starsim::AdaptiveSimulator;
using starsim::ParallelSimulator;
using starsim::SceneConfig;
using starsim::SequentialSimulator;
using starsim::SimulationResult;
using starsim::SimulatorKind;
using starsim::Star;
using starsim::StarField;
using starsim::imageio::max_abs_difference;
using starsim::imageio::total_flux;
using starsim::serve::FrameService;
using starsim::serve::FrameServiceOptions;
using starsim::serve::RenderRequest;
using starsim::serve::RenderResponse;
using starsim::serve::ServiceStats;

SceneConfig small_scene() {
  SceneConfig scene;
  scene.image_width = 64;
  scene.image_height = 64;
  scene.roi_side = 10;
  return scene;
}

StarField random_stars(std::uint64_t seed, std::size_t count) {
  starsim::support::Pcg32 rng(seed);
  StarField stars;
  for (std::size_t i = 0; i < count; ++i) {
    Star star;
    star.magnitude = 2.0f + 10.0f * static_cast<float>(rng.uniform());
    star.x = 64.0f * static_cast<float>(rng.uniform());
    star.y = 64.0f * static_cast<float>(rng.uniform());
    stars.push_back(star);
  }
  return stars;
}

RenderRequest pinned_request(const StarField& stars, SimulatorKind kind) {
  RenderRequest request;
  request.scene = small_scene();
  request.stars = stars;
  request.simulator = kind;
  return request;
}

TEST(FrameService, ConcurrentClientsGetBitIdenticalFrames) {
  constexpr int kClients = 8;
  constexpr std::size_t kFields = 8;

  std::vector<StarField> fields;
  std::vector<starsim::imageio::ImageF> references;
  for (std::size_t i = 0; i < kFields; ++i) {
    fields.push_back(random_stars(100 + i, 40));
    gs::Device device(gs::DeviceSpec::gtx480());
    references.push_back(
        ParallelSimulator(device).simulate(small_scene(), fields[i]).image);
  }

  FrameServiceOptions options;
  options.workers = 3;
  options.max_batch_size = 4;
  options.cache_capacity = 0;  // force every request through a worker
  FrameService service(std::move(options));

  // 8 clients race the same 8 scenes through shared workers; whatever
  // batches form, every frame must equal its solo reference bit for bit.
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<RenderResponse>>> futures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &fields, &futures, c] {
      for (std::size_t i = 0; i < kFields; ++i) {
        futures[static_cast<std::size_t>(c)].push_back(service.submit(
            pinned_request(fields[i], SimulatorKind::kParallel)));
      }
    });
  }
  for (auto& t : clients) t.join();

  for (auto& per_client : futures) {
    for (std::size_t i = 0; i < per_client.size(); ++i) {
      const RenderResponse response = per_client[i].get();
      EXPECT_EQ(max_abs_difference(response.result->image, references[i]),
                0.0);
      EXPECT_GE(response.batch_size, 1u);
      EXPECT_FALSE(response.from_cache);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kClients * kFields);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.latency.count, kClients * kFields);
}

TEST(FrameService, BatchedAdaptiveRendersMatchSoloRenders) {
  constexpr std::size_t kFields = 12;
  std::vector<StarField> fields;
  std::vector<starsim::imageio::ImageF> references;
  for (std::size_t i = 0; i < kFields; ++i) {
    fields.push_back(random_stars(500 + i, 30));
    gs::Device device(gs::DeviceSpec::gtx480());
    references.push_back(
        AdaptiveSimulator(device).simulate(small_scene(), fields[i]).image);
  }

  FrameServiceOptions options;
  options.workers = 1;  // one worker: every batch runs on one device
  options.max_batch_size = 6;
  options.cache_capacity = 0;
  FrameService service(std::move(options));

  std::vector<std::future<RenderResponse>> futures;
  for (const StarField& stars : fields) {
    futures.push_back(
        service.submit(pinned_request(stars, SimulatorKind::kAdaptive)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const RenderResponse response = futures[i].get();
    EXPECT_EQ(max_abs_difference(response.result->image, references[i]), 0.0);
    EXPECT_EQ(response.simulator, SimulatorKind::kAdaptive);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kFields);
  // The histogram accounts for every request exactly once.
  std::uint64_t histogram_requests = 0;
  for (std::size_t size = 0; size < stats.batch_size_histogram.size(); ++size) {
    histogram_requests += stats.batch_size_histogram[size] * size;
  }
  EXPECT_EQ(histogram_requests, kFields);
  EXPECT_GE(stats.mean_batch_size(), 1.0);
}

TEST(FrameService, TrySubmitRejectsWhenQueueFull) {
  FrameServiceOptions options;
  options.workers = 0;  // nothing drains the queue
  options.queue_capacity = 2;
  options.cache_capacity = 0;
  FrameService service(std::move(options));

  const StarField stars = random_stars(1, 10);
  auto a = service.try_submit(pinned_request(stars, SimulatorKind::kParallel));
  auto b = service.try_submit(pinned_request(stars, SimulatorKind::kParallel));
  auto c = service.try_submit(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_TRUE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_FALSE(c.has_value());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(service.queue_depth(), 2u);

  // Stopping with zero workers fails the stranded futures instead of
  // leaving their clients blocked forever.
  service.stop();
  EXPECT_THROW((void)a->get(), starsim::support::Error);
  EXPECT_THROW((void)b->get(), starsim::support::Error);
  stats = service.stats();
  EXPECT_EQ(stats.failed, 2u);
}

TEST(FrameService, StopDrainsInFlightRequests) {
  FrameServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.cache_capacity = 0;
  FrameService service(std::move(options));

  std::vector<std::future<RenderResponse>> futures;
  for (std::uint64_t i = 0; i < 12; ++i) {
    futures.push_back(service.submit(
        pinned_request(random_stars(i, 20), SimulatorKind::kParallel)));
  }
  // Stop immediately: close-then-drain semantics must still complete every
  // admitted request with a rendered frame, not an exception.
  service.stop();
  for (auto& future : futures) {
    const RenderResponse response = future.get();
    EXPECT_NE(response.result, nullptr);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);

  // After stop, admission is closed.
  EXPECT_TRUE(service.stopped());
  EXPECT_THROW(
      (void)service.submit(
          pinned_request(random_stars(99, 5), SimulatorKind::kParallel)),
      starsim::support::Error);
  EXPECT_FALSE(
      service
          .try_submit(pinned_request(random_stars(99, 5),
                                     SimulatorKind::kParallel))
          .has_value());
  service.stop();  // idempotent
}

TEST(FrameService, RepeatRequestHitsCache) {
  FrameServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 8;
  FrameService service(std::move(options));

  const StarField stars = random_stars(7, 25);
  const RenderResponse first =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_FALSE(first.from_cache);

  const RenderResponse second =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.batch_size, 0u);
  // The cache hands out the stored frame, not a copy.
  EXPECT_EQ(second.result.get(), first.result.get());
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  // A different simulator is a different identity: no false hit.
  const RenderResponse other =
      service.render(pinned_request(stars, SimulatorKind::kSequential));
  EXPECT_FALSE(other.from_cache);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
}

TEST(FrameService, InvalidationForcesRerender) {
  FrameServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 8;
  FrameService service(std::move(options));

  const StarField stars = random_stars(11, 25);
  const RenderResponse first =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_TRUE(service.invalidate_cached_frame(first.fingerprint));
  EXPECT_FALSE(service.invalidate_cached_frame(first.fingerprint));

  const RenderResponse second =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_FALSE(second.from_cache);
  // Re-render of identical inputs reproduces the frame bit for bit.
  EXPECT_EQ(max_abs_difference(first.result->image, second.result->image),
            0.0);

  // Full invalidation drops everything.
  const RenderResponse third =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_TRUE(third.from_cache);
  service.invalidate_cache();
  const RenderResponse fourth =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_FALSE(fourth.from_cache);
}

TEST(FrameService, AttitudeRequestsProjectTheServiceCatalog) {
  FrameServiceOptions options;
  options.workers = 1;
  options.catalog = starsim::Catalog::synthesize(2000, 42);
  options.camera.width = 64;
  options.camera.height = 64;
  options.camera.focal_length_px = 120.0;
  const starsim::CameraModel camera = options.camera;
  const starsim::Catalog catalog = *options.catalog;
  FrameService service(std::move(options));

  const starsim::Quaternion attitude =
      starsim::Quaternion::from_euler(0.3, -0.2, 1.1);
  RenderRequest request;
  request.scene = small_scene();
  request.attitude = attitude;
  request.simulator = SimulatorKind::kSequential;
  const RenderResponse response = service.render(std::move(request));

  const StarField expected_stars =
      project_to_image(catalog.stars(), attitude, camera);
  SequentialSimulator reference;
  const SimulationResult expected =
      reference.simulate(small_scene(), expected_stars);
  EXPECT_EQ(max_abs_difference(response.result->image, expected.image), 0.0);
}

TEST(FrameService, AttitudeWithoutCatalogThrowsSynchronously) {
  FrameServiceOptions options;
  options.workers = 0;
  FrameService service(std::move(options));
  RenderRequest request;
  request.scene = small_scene();
  request.attitude = starsim::Quaternion::from_euler(0.0, 0.0, 0.0);
  EXPECT_THROW((void)service.submit(std::move(request)),
               starsim::support::PreconditionError);
  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(FrameService, RejectsMultiGpuAndBadScenes) {
  FrameServiceOptions options;
  options.workers = 0;
  FrameService service(std::move(options));

  RenderRequest multi = pinned_request(random_stars(1, 5), SimulatorKind::kMultiGpu);
  EXPECT_THROW((void)service.submit(std::move(multi)),
               starsim::support::PreconditionError);

  RenderRequest bad = pinned_request(random_stars(1, 5), SimulatorKind::kParallel);
  bad.scene.roi_side = 0;
  EXPECT_THROW((void)service.submit(std::move(bad)),
               starsim::support::PreconditionError);
  // Invalid requests never consume queue space.
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(FrameService, EmptyStarFieldRendersBlankFrame) {
  FrameServiceOptions options;
  options.workers = 1;
  FrameService service(std::move(options));
  RenderRequest request;
  request.scene = small_scene();  // no stars, no attitude, no pin
  const RenderResponse response = service.render(std::move(request));
  // Zero stars bypasses the cost model (it requires a positive star count)
  // and renders on the CPU.
  EXPECT_EQ(response.simulator, SimulatorKind::kSequential);
  EXPECT_EQ(total_flux(response.result->image), 0.0);
}

TEST(FrameService, SchedulerDrivesUnpinnedRequests) {
  FrameServiceOptions options;
  options.workers = 1;
  FrameService service(std::move(options));
  ASSERT_NE(service.scheduler(), nullptr);
  RenderRequest request;
  // Paper-scale 1024x1024 scene with a tiny field: the Table III
  // prediction and the auto-scheduler agree the CPU sequential simulator
  // wins, and the unpinned path must follow the tuned decision.
  request.scene = SceneConfig{};
  request.stars = random_stars(3, 8);
  const RenderResponse response = service.render(std::move(request));
  EXPECT_EQ(response.simulator, SimulatorKind::kSequential);
  // The decision went through the scheduler: one tune, cached thereafter.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sched.tuner_invocations, 1u);
  EXPECT_EQ(stats.sched.cache.misses, 1u);
}

TEST(FrameService, PinnedRequestsRecordSchedulerOverrides) {
  FrameServiceOptions options;
  options.workers = 1;
  FrameService service(std::move(options));
  const RenderResponse response = service.render(
      pinned_request(random_stars(5, 20), SimulatorKind::kParallel));
  EXPECT_EQ(response.simulator, SimulatorKind::kParallel);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sched.overrides_recorded, 1u);
}

TEST(FrameService, ResilientWorkersRenderIdenticalFramesWhenHealthy) {
  const StarField stars = random_stars(21, 30);
  gs::Device device(gs::DeviceSpec::gtx480());
  const auto reference =
      ParallelSimulator(device).simulate(small_scene(), stars).image;

  FrameServiceOptions options;
  options.workers = 1;
  options.worker.resilient = true;
  FrameService service(std::move(options));
  const RenderResponse response =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_EQ(max_abs_difference(response.result->image, reference), 0.0);
}

TEST(FrameService, ExpiredDeadlineFailsAtAdmission) {
  FrameServiceOptions options;
  options.workers = 0;  // admission path only
  options.cache_capacity = 0;
  FrameService service(std::move(options));

  RenderRequest spent = pinned_request(random_stars(1, 10),
                                       SimulatorKind::kParallel);
  spent.deadline_s = 0.0;  // unmeetable before any work
  auto future = service.submit(std::move(spent));
  EXPECT_THROW((void)future.get(),
               starsim::support::DeadlineExceededError);

  RenderRequest negative = pinned_request(random_stars(1, 10),
                                          SimulatorKind::kParallel);
  negative.deadline_s = -1.0;
  auto maybe = service.try_submit(std::move(negative));
  ASSERT_TRUE(maybe.has_value());
  EXPECT_THROW((void)maybe->get(),
               starsim::support::DeadlineExceededError);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.expired_admission, 2u);
  EXPECT_EQ(stats.expired_total(), 2u);
  EXPECT_EQ(service.queue_depth(), 0u);  // never consumed queue space
}

TEST(FrameService, DeadlineExpiredInQueueIsSkippedAtBatchFormation) {
  FrameServiceOptions options;
  options.workers = 1;
  options.max_batch_size = 4;
  options.cache_capacity = 0;
  FrameService service(std::move(options));

  // A slow render occupies the single worker; requests with microscopic
  // budgets expire behind it. Their scene differs from the blocker's, so
  // they can never coalesce into its batch — they reach batch formation
  // only after the slow render, long past their deadlines, and must be
  // dropped there without ever being rendered.
  RenderRequest blocker;
  blocker.scene.image_width = 256;
  blocker.scene.image_height = 256;
  blocker.scene.roi_side = 16;
  blocker.stars = random_stars(77, 5000);
  blocker.simulator = SimulatorKind::kSequential;
  auto slow = service.submit(std::move(blocker));

  std::vector<std::future<RenderResponse>> doomed;
  for (std::uint64_t i = 0; i < 3; ++i) {
    RenderRequest request = pinned_request(random_stars(80 + i, 10),
                                           SimulatorKind::kSequential);
    request.deadline_s = 0.001;
    doomed.push_back(service.submit(std::move(request)));
  }

  EXPECT_NE(slow.get().result, nullptr);
  for (auto& future : doomed) {
    EXPECT_THROW((void)future.get(),
                 starsim::support::DeadlineExceededError);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired_batch, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 3u);
  // The skipped requests never rendered: only the blocker's batch exists.
  std::uint64_t histogram_requests = 0;
  for (std::size_t size = 0; size < stats.batch_size_histogram.size(); ++size) {
    histogram_requests += stats.batch_size_histogram[size] * size;
  }
  EXPECT_EQ(histogram_requests, 1u);
}

TEST(FrameService, DeadlineMissedDuringRenderFailsPostRender) {
  FrameServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 8;
  FrameService service(std::move(options));

  // The budget comfortably covers the queue wait (the worker is idle) but
  // not the render itself: the frame exists, finishes late, and the future
  // must see the deadline error, not the frame.
  RenderRequest request;
  request.scene.image_width = 256;
  request.scene.image_height = 256;
  request.scene.roi_side = 20;
  request.stars = random_stars(90, 8000);
  request.simulator = SimulatorKind::kSequential;
  request.deadline_s = 0.005;
  auto future = service.submit(std::move(request));
  EXPECT_THROW((void)future.get(),
               starsim::support::DeadlineExceededError);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired_post_render, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(FrameService, GenerousDeadlineDeliversNormally) {
  FrameServiceOptions options;
  options.workers = 1;
  FrameService service(std::move(options));
  RenderRequest request = pinned_request(random_stars(5, 20),
                                         SimulatorKind::kParallel);
  request.deadline_s = 30.0;
  const RenderResponse response = service.render(std::move(request));
  EXPECT_NE(response.result, nullptr);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired_total(), 0u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(FrameService, TrySubmitShedsLowestPriorityFirstUnderOverload) {
  using starsim::serve::RequestPriority;
  FrameServiceOptions options;
  options.workers = 0;  // nothing drains: admission decisions are visible
  options.queue_capacity = 2;
  options.cache_capacity = 0;
  FrameService service(std::move(options));

  const auto prioritized = [&](std::uint64_t seed, RequestPriority priority) {
    RenderRequest request = pinned_request(random_stars(seed, 10),
                                           SimulatorKind::kParallel);
    request.priority = priority;
    return request;
  };

  auto low_old = service.try_submit(prioritized(1, RequestPriority::kLow));
  auto low_young = service.try_submit(prioritized(2, RequestPriority::kLow));
  ASSERT_TRUE(low_old.has_value());
  ASSERT_TRUE(low_young.has_value());

  // Full queue, but of low-priority work: a high admission displaces the
  // youngest low request; a normal one then displaces the older low.
  auto high = service.try_submit(prioritized(3, RequestPriority::kHigh));
  ASSERT_TRUE(high.has_value());
  EXPECT_THROW((void)low_young->get(),
               starsim::support::OverloadShedError);
  auto normal = service.try_submit(prioritized(4, RequestPriority::kNormal));
  ASSERT_TRUE(normal.has_value());
  EXPECT_THROW((void)low_old->get(), starsim::support::OverloadShedError);

  // Nothing below normal remains: equal-or-lower admissions bounce.
  EXPECT_FALSE(
      service.try_submit(prioritized(5, RequestPriority::kLow)).has_value());
  EXPECT_FALSE(
      service.try_submit(prioritized(6, RequestPriority::kNormal)).has_value());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.failed, 2u);

  service.stop();  // the surviving high + normal futures fail typed
  EXPECT_THROW((void)high->get(), starsim::support::Error);
  EXPECT_THROW((void)normal->get(), starsim::support::Error);
  stats = service.stats();
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.in_flight(), 0u);
}

TEST(FrameService, HighPriorityOvertakesEarlierLowPriorityInQueue) {
  using starsim::serve::RequestPriority;
  FrameServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 0;
  FrameService service(std::move(options));

  // Occupy the single worker, then queue a low request *before* a high
  // one. The worker must drain the high band first, so the high response
  // finishes with the smaller total latency despite arriving later.
  RenderRequest blocker;
  blocker.scene.image_width = 256;
  blocker.scene.image_height = 256;
  blocker.scene.roi_side = 16;
  blocker.stars = random_stars(70, 3000);
  blocker.simulator = SimulatorKind::kSequential;
  auto busy = service.submit(std::move(blocker));

  RenderRequest low;
  low.scene.image_width = 128;
  low.scene.image_height = 128;
  low.scene.roi_side = 12;
  low.stars = random_stars(71, 4000);
  low.simulator = SimulatorKind::kSequential;
  low.priority = RequestPriority::kLow;
  RenderRequest high = low;
  high.stars = random_stars(72, 4000);
  high.priority = RequestPriority::kHigh;

  auto low_future = service.submit(std::move(low));
  auto high_future = service.submit(std::move(high));

  EXPECT_NE(busy.get().result, nullptr);
  const RenderResponse high_response = high_future.get();
  const RenderResponse low_response = low_future.get();
  EXPECT_LT(high_response.latency.total_s, low_response.latency.total_s);
}

TEST(FrameService, StopWakesSubmitterBlockedOnFullQueue) {
  FrameServiceOptions options;
  options.workers = 0;  // the queue never drains
  options.queue_capacity = 1;
  options.cache_capacity = 0;
  FrameService service(std::move(options));

  auto queued = service.submit(
      pinned_request(random_stars(1, 10), SimulatorKind::kParallel));

  // The second submit blocks on the full queue; stop() must wake it with a
  // typed error instead of deadlocking shutdown against the submitter.
  std::atomic<bool> threw{false};
  std::thread submitter([&] {
    try {
      (void)service.submit(
          pinned_request(random_stars(2, 10), SimulatorKind::kParallel));
    } catch (const starsim::support::Error&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.stop();
  submitter.join();
  EXPECT_TRUE(threw.load());

  // The admitted request failed at drain; the blocked one never counted.
  EXPECT_THROW((void)queued.get(), starsim::support::Error);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.in_flight(), 0u);
}

TEST(FrameService, CacheInvalidationRacesConcurrentSubmitters) {
  constexpr int kSubmitters = 3;
  constexpr std::size_t kIterations = 40;
  constexpr std::size_t kFields = 4;

  std::vector<StarField> fields;
  std::vector<starsim::imageio::ImageF> references;
  for (std::size_t i = 0; i < kFields; ++i) {
    fields.push_back(random_stars(600 + i, 25));
    gs::Device device(gs::DeviceSpec::gtx480());
    references.push_back(
        ParallelSimulator(device).simulate(small_scene(), fields[i]).image);
  }

  FrameServiceOptions options;
  options.workers = 2;
  options.cache_capacity = 16;
  FrameService service(std::move(options));

  const RenderResponse primed =
      service.render(pinned_request(fields[0], SimulatorKind::kParallel));
  const std::uint64_t fingerprint = primed.fingerprint;

  // Submitters hammer a small working set (high hit likelihood) while the
  // invalidator concurrently drops frames; every response must still be
  // the exact frame whether it came from a worker or the cache.
  std::atomic<bool> done{false};
  std::thread invalidator([&] {
    while (!done.load()) {
      service.invalidate_cache();
      (void)service.invalidate_cached_frame(fingerprint);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> submitters;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        const std::size_t field = (i + static_cast<std::size_t>(t)) % kFields;
        const RenderResponse response = service.render(
            pinned_request(fields[field], SimulatorKind::kParallel));
        if (max_abs_difference(response.result->image, references[field]) !=
            0.0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  done.store(true);
  invalidator.join();

  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kSubmitters * kIterations + 1);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.in_flight(), 0u);
}

TEST(FrameService, HealthReportsAHealthyPool) {
  FrameServiceOptions options;
  options.workers = 2;
  FrameService service(std::move(options));
  const starsim::serve::PoolHealth health = service.health();
  ASSERT_EQ(health.workers.size(), 2u);
  EXPECT_EQ(health.active_workers, 2);
  EXPECT_FALSE(health.degraded());
  for (const auto& worker : health.workers) {
    EXPECT_EQ(worker.state, starsim::serve::WorkerState::kHealthy);
    EXPECT_EQ(to_string(worker.state), "healthy");
    EXPECT_EQ(worker.device_replacements, 0);
    EXPECT_EQ(worker.quarantines, 0);
  }
  EXPECT_EQ(health.sink_exceptions, 0u);
}

TEST(FrameService, StatsReportLatencyAndThroughput) {
  FrameServiceOptions options;
  options.workers = 2;
  FrameService service(std::move(options));
  for (std::uint64_t i = 0; i < 6; ++i) {
    (void)service.render(
        pinned_request(random_stars(i, 15), SimulatorKind::kParallel));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.latency.count, 6u);
  EXPECT_GT(stats.latency.p50, 0.0);
  EXPECT_GE(stats.latency.p99, stats.latency.p50);
  EXPECT_GT(stats.mean_latency_s, 0.0);
  EXPECT_GT(stats.elapsed_s, 0.0);
  EXPECT_GT(stats.throughput_rps, 0.0);
}

// A sanitized request round-trips through the full pipeline: bypasses the
// cache both ways, renders bit-identically, and carries a clean report.
TEST(FrameService, SanitizedRequestRoundTrip) {
  FrameServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 8;
  FrameService service(std::move(options));

  const StarField stars = random_stars(11, 25);
  const RenderResponse plain =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_FALSE(plain.from_cache);
  EXPECT_EQ(plain.sanitizer, nullptr);

  RenderRequest request = pinned_request(stars, SimulatorKind::kParallel);
  request.sanitize = true;
  const RenderResponse sanitized = service.render(std::move(request));
  // The client asked for the instrumented render itself, not a cached frame.
  EXPECT_FALSE(sanitized.from_cache);
  ASSERT_NE(sanitized.sanitizer, nullptr);
  EXPECT_TRUE(sanitized.sanitizer->clean()) << sanitized.sanitizer->summary();
  EXPECT_FALSE(sanitized.degraded);

  // Instrumentation must not change a bit of the frame.
  const auto& a = plain.result->image;
  const auto& b = sanitized.result->image;
  ASSERT_EQ(a.pixels().size(), b.pixels().size());
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    ASSERT_EQ(a.pixels()[i], b.pixels()[i]) << "pixel " << i;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sanitized_requests, 1u);
  EXPECT_EQ(stats.sanitizer_findings, 0u);

  // The sanitized render was not inserted: a later plain request still hits
  // the original production frame.
  const RenderResponse hit =
      service.render(pinned_request(stars, SimulatorKind::kParallel));
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.result.get(), plain.result.get());
}

}  // namespace
