// Fleet chaos harness, extending tests/test_serve_chaos.cpp one level up:
// shards die and sicken mid-run while concurrent submitters keep pushing.
//
// The fleet contract mirrors the service contract: every admitted future
// resolves (frame or typed error, never a hang), every served frame is
// bit-identical to a direct render by the simulator that executed it —
// through every failover and hedge path — and the health ladder
// (breaker -> quarantine -> probe -> reinstate) keeps the fleet serving
// without a restart.
#include "fleet/router.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/fault_injector.h"
#include "imageio/image.h"
#include "serve/fingerprint.h"
#include "starsim/attitude.h"
#include "starsim/openmp_simulator.h"
#include "starsim/parallel_simulator.h"
#include "starsim/sequential_simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

namespace gs = starsim::gpusim;
namespace fleet = starsim::fleet;
using starsim::OpenMpSimulator;
using starsim::ParallelSimulator;
using starsim::Quaternion;
using starsim::SceneConfig;
using starsim::SequentialSimulator;
using starsim::SimulatorKind;
using starsim::Star;
using starsim::StarField;
using starsim::imageio::ImageF;
using starsim::imageio::max_abs_difference;
using starsim::serve::RenderRequest;
using starsim::serve::RenderResponse;
using starsim::serve::RequestPriority;

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

RenderRequest pinned_request(const SceneConfig& scene, const StarField& stars,
                             SimulatorKind kind) {
  RenderRequest request;
  request.scene = scene;
  request.stars = stars;
  request.simulator = kind;
  return request;
}

/// Direct renders of every field by every simulator a resilient kParallel
/// worker can degrade to — the bit-identity oracle for frames served
/// through any shard on any failover path.
struct ReferenceSet {
  std::vector<ImageF> parallel;
  std::vector<ImageF> cpu_parallel;
  std::vector<ImageF> sequential;

  explicit ReferenceSet(const std::vector<StarField>& fields) {
    OpenMpSimulator omp;
    SequentialSimulator seq;
    for (const StarField& stars : fields) {
      gs::Device device(gs::DeviceSpec::gtx480());
      parallel.push_back(
          ParallelSimulator(device).simulate(small_scene(), stars).image);
      cpu_parallel.push_back(omp.simulate(small_scene(), stars).image);
      sequential.push_back(seq.simulate(small_scene(), stars).image);
    }
  }

  [[nodiscard]] const ImageF& image(SimulatorKind kind, std::size_t i) const {
    switch (kind) {
      case SimulatorKind::kParallel: return parallel[i];
      case SimulatorKind::kCpuParallel: return cpu_parallel[i];
      case SimulatorKind::kSequential: return sequential[i];
      default: ADD_FAILURE() << "unexpected executed kind"; return parallel[i];
    }
  }
};

// --- The acceptance scenario: one shard killed, one quarantined, under
// --- fault injection, with concurrent submitters --------------------------

TEST(FleetChaos, KillAndQuarantineMidRunLeaveNoStuckFutures) {
  constexpr int kSubmitters = 3;
  constexpr std::size_t kFields = 8;
  constexpr std::size_t kWaves = 2;  // kill + quarantine between the waves

  std::vector<StarField> fields;
  for (std::size_t i = 0; i < kFields; ++i) {
    fields.push_back(random_stars(9000 + i, 35));
  }
  const ReferenceSet references(fields);

  fleet::FleetOptions options;
  options.shards = 4;
  options.replicas = 2;
  options.router_threads = 3;
  options.probe_after_ms = 1.0;
  options.shard.workers = 1;
  options.shard.cache_capacity = 0;
  options.shard.worker.resilient = true;
  options.shard.worker.fault_policy = gs::FaultPolicy::chaos(
      /*rate=*/0.10, /*lost_rate=*/0.20, /*seed=*/4242);
  fleet::ShardRouter router(options);

  struct Submitted {
    std::size_t field = 0;
    bool pre_expired = false;
    std::future<RenderResponse> future;
  };
  std::vector<std::vector<Submitted>> per_thread(kSubmitters);

  const auto submit_wave = [&](std::size_t wave) {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t, wave] {
        for (std::size_t i = 0; i < kFields; ++i) {
          RenderRequest request = pinned_request(
              small_scene(), fields[i], SimulatorKind::kParallel);
          request.priority = static_cast<RequestPriority>(i % 3);
          Submitted entry;
          entry.field = i;
          entry.pre_expired = (i + wave) % 6 == 5;
          if (entry.pre_expired) {
            request.deadline_s = 0.0;
          } else if (i % 2 == 0) {
            request.deadline_s = 30.0;  // generous: exercised, never missed
          }
          entry.future = router.submit(std::move(request));
          per_thread[static_cast<std::size_t>(t)].push_back(std::move(entry));
        }
      });
    }
    for (auto& thread : submitters) thread.join();
  };

  submit_wave(0);
  // Mid-run: one shard dies outright, another is declared suspect. The
  // second wave must keep completing through the survivors.
  router.kill_shard(0);
  router.quarantine_shard(1);
  submit_wave(1);

  std::uint64_t frames = 0;
  std::uint64_t pre_expired = 0;
  std::uint64_t typed_errors = 0;
  for (auto& thread_entries : per_thread) {
    for (Submitted& entry : thread_entries) {
      ASSERT_TRUE(entry.future.valid());
      try {
        const RenderResponse response = entry.future.get();
        EXPECT_FALSE(entry.pre_expired);
        ASSERT_NE(response.result, nullptr);
        EXPECT_EQ(max_abs_difference(
                      response.result->image,
                      references.image(response.simulator, entry.field)),
                  0.0);
        EXPECT_EQ(response.degraded,
                  response.simulator != SimulatorKind::kParallel);
        ++frames;
      } catch (const starsim::support::DeadlineExceededError&) {
        EXPECT_TRUE(entry.pre_expired);
        ++pre_expired;
      } catch (const starsim::support::Error&) {
        // A typed fleet/serve error (shed, shard down) is a clean
        // resolution; a hang or a foreign exception is the failure mode.
        ++typed_errors;
      }
    }
  }

  router.stop();
  const fleet::FleetStats stats = router.stats();
  constexpr std::uint64_t kTotal = kSubmitters * kFields * kWaves;
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(frames + pre_expired + typed_errors, kTotal);
  EXPECT_EQ(stats.completed, frames);
  EXPECT_EQ(stats.failed, pre_expired + typed_errors);
  EXPECT_EQ(stats.in_flight(), 0u) << "stuck futures after quiesce";
  EXPECT_GE(stats.expired_router, pre_expired);
  EXPECT_EQ(router.shard_state(0), fleet::ShardState::kDown);
  EXPECT_GE(stats.quarantines, 1u);  // at least the forced one

  // Most of the traffic must have survived the kill + quarantine.
  EXPECT_GT(frames, kTotal / 2);
}

// --- Scripted health ladder: breaker -> quarantine -> probe -> reinstate --

TEST(FleetChaos, BreakerTripsQuarantineAndProbeReinstates) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.replicas = 2;
  options.router_threads = 1;  // serialize routing: exact ladder order
  options.breaker_window = 4;
  options.breaker_min_samples = 2;
  options.breaker_error_rate = 0.5;
  options.probe_after_ms = 1.0;
  options.shard.workers = 1;
  options.shard.cache_capacity = 0;
  fleet::ShardRouter router(options);

  // An attitude-driven request (no stars) against a catalog-less service
  // fails shard admission deterministically — every attempt on every
  // replica errors, feeding the breaker without involving devices or
  // supervision.
  const StarField stars = random_stars(11, 20);
  for (int i = 0; i < 4; ++i) {
    RenderRequest bad =
        pinned_request(small_scene(), StarField{}, SimulatorKind::kParallel);
    bad.attitude = Quaternion(1.0, 0.0, 0.0, 0.0);
    EXPECT_THROW((void)router.render(std::move(bad)),
                 starsim::support::PreconditionError);
  }
  EXPECT_EQ(router.shard_state(0), fleet::ShardState::kQuarantined);
  EXPECT_EQ(router.shard_state(1), fleet::ShardState::kQuarantined);

  {
    const fleet::FleetStats mid = router.stats();
    EXPECT_GE(mid.quarantines, 2u);
    EXPECT_GE(mid.failovers, 1u);
    EXPECT_EQ(mid.failover_successes, 0u);
  }

  // Let the quarantine dwell elapse, then send healthy traffic: routing
  // publishes it as the probe template (off the routing path, so the
  // request itself is served immediately by the quarantined replicas),
  // the probe thread shadow-probes both shards with it, the probes pass,
  // and the fleet reinstates itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const RenderResponse response = router.render(
      pinned_request(small_scene(), stars, SimulatorKind::kParallel));
  ASSERT_NE(response.result, nullptr);

  // Probes are asynchronous; wait (bounded) for the ladder to climb back.
  const auto reinstate_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((router.shard_state(0) != fleet::ShardState::kHealthy ||
          router.shard_state(1) != fleet::ShardState::kHealthy) &&
         std::chrono::steady_clock::now() < reinstate_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(router.shard_state(0), fleet::ShardState::kHealthy);
  EXPECT_EQ(router.shard_state(1), fleet::ShardState::kHealthy);

  router.stop();
  const fleet::FleetStats stats = router.stats();
  EXPECT_GE(stats.probes, 2u);
  EXPECT_EQ(stats.reinstates, 2u);
  EXPECT_EQ(stats.in_flight(), 0u);

  gs::Device device(gs::DeviceSpec::gtx480());
  const ImageF direct =
      ParallelSimulator(device).simulate(small_scene(), stars).image;
  EXPECT_EQ(max_abs_difference(response.result->image, direct), 0.0);
}

// --- Hedging: a straggler replica must not own the latency tail ----------

TEST(FleetChaos, HedgeWinsAgainstAStragglerReplica) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.replicas = 2;
  options.router_threads = 2;
  options.hedge_ms = 5.0;  // fixed trigger: deterministic hedge launch
  options.straggler_shard = 0;
  options.straggler_ms = 120.0;
  options.shard.workers = 1;
  options.shard.cache_capacity = 0;
  fleet::ShardRouter router(options);

  // Find a scene whose *primary* replica is the straggler, so the hedge
  // path (not plain routing) is what serves it. psf_sigma perturbations
  // move the scene fingerprint around the ring without changing the
  // render meaningfully.
  SceneConfig scene = small_scene();
  for (int k = 0; k < 4096; ++k) {
    scene.psf_sigma = 1.0 + 1e-9 * k;
    if (router.replicas_for(
            starsim::serve::fingerprint_scene(scene))[0] == 0) {
      break;
    }
  }
  ASSERT_EQ(router.replicas_for(starsim::serve::fingerprint_scene(scene))[0],
            0)
      << "no probe scene landed on the straggler";

  const StarField stars = random_stars(21, 30);
  gs::Device device(gs::DeviceSpec::gtx480());
  const ImageF direct = ParallelSimulator(device).simulate(scene, stars).image;

  constexpr int kRequests = 3;
  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    const RenderResponse response =
        router.render(pinned_request(scene, stars, SimulatorKind::kParallel));
    ASSERT_NE(response.result, nullptr);
    EXPECT_EQ(max_abs_difference(response.result->image, direct), 0.0);
    EXPECT_FALSE(response.degraded);
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  router.stop();
  const fleet::FleetStats stats = router.stats();
  EXPECT_GE(stats.hedges_launched, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.hedges_won, 1u);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.in_flight(), 0u);
  // Three renders against a 120 ms straggler primary: unhedged would cost
  // >= 360 ms; the hedge must reclaim most of it.
  EXPECT_LT(elapsed_s, 0.300) << "hedging did not beat the straggler";
}

TEST(FleetChaos, HedgeLoserDeadlineRepliesSpareTheBreaker) {
  // A hedge loser whose reply is DeadlineExceededError is classified like
  // a winner with the same reply: the request's budget ran out, the shard
  // did not misbehave, so its breaker is not charged. The straggler
  // primary renders past the deadline while the hedge's frame is served;
  // the winner's large reply takes the router long enough to encode and
  // decode that the loser's expiry is ready by the time it is settled.
  fleet::FleetOptions options;
  options.shards = 2;
  options.replicas = 2;
  options.router_threads = 1;
  options.hedge_ms = 5.0;
  options.straggler_shard = 0;
  options.straggler_ms = 40.0;
  options.shard.workers = 1;
  options.shard.cache_capacity = 0;
  fleet::ShardRouter router(options);

  SceneConfig scene;
  scene.image_width = 2048;
  scene.image_height = 2048;
  scene.roi_side = 10;
  for (int k = 0; k < 4096; ++k) {
    scene.psf_sigma = 1.0 + 1e-9 * k;
    if (router.replicas_for(
            starsim::serve::fingerprint_scene(scene))[0] == 0) {
      break;
    }
  }
  ASSERT_EQ(router.replicas_for(starsim::serve::fingerprint_scene(scene))[0],
            0)
      << "no probe scene landed on the straggler";

  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    RenderRequest request = pinned_request(
        scene, random_stars(40 + static_cast<std::uint64_t>(i), 4),
        SimulatorKind::kSequential);
    request.deadline_s = 0.030;
    try {
      (void)router.render(std::move(request));
    } catch (const starsim::support::DeadlineExceededError&) {
      // A loaded host may miss the hedge's deadline too; either way no
      // shard misbehaved.
    }
  }
  router.stop();
  const fleet::FleetStats stats = router.stats();
  EXPECT_GE(stats.hedges_launched, 1u);
  EXPECT_EQ(stats.in_flight(), 0u);
  for (const fleet::ShardSnapshot& shard : stats.shards) {
    EXPECT_EQ(shard.errors, 0u) << "shard " << shard.index;
    EXPECT_EQ(shard.quarantines, 0u) << "shard " << shard.index;
  }
}

// --- Kill during drain: admitted work survives the shard's death ----------

TEST(FleetChaos, KilledShardDrainsAdmittedWorkBeforeGoingDark) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.replicas = 1;  // no failover: the kill itself must be graceful
  options.router_threads = 2;
  options.shard.workers = 1;
  options.shard.cache_capacity = 0;
  fleet::ShardRouter router(options);

  std::vector<std::future<RenderResponse>> futures;
  std::vector<StarField> fields;
  for (std::uint64_t i = 0; i < 8; ++i) {
    fields.push_back(random_stars(500 + i, 25));
    futures.push_back(router.submit(pinned_request(
        small_scene(), fields.back(), SimulatorKind::kParallel)));
  }
  router.kill_shard(1);

  std::uint64_t frames = 0;
  std::uint64_t down_errors = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      const RenderResponse response = futures[i].get();
      ASSERT_NE(response.result, nullptr);
      gs::Device device(gs::DeviceSpec::gtx480());
      const ImageF direct =
          ParallelSimulator(device).simulate(small_scene(), fields[i]).image;
      EXPECT_EQ(max_abs_difference(response.result->image, direct), 0.0);
      ++frames;
    } catch (const starsim::support::Error&) {
      // Requests placed on the killed shard after its death resolve with a
      // typed error (down/shed) — never a hang.
      ++down_errors;
    }
  }

  router.stop();
  const fleet::FleetStats stats = router.stats();
  EXPECT_EQ(stats.in_flight(), 0u);
  EXPECT_EQ(frames + down_errors, 8u);
  EXPECT_GE(frames, 1u) << "both shards' work vanished";
}

// --- The supervision ladder on loopback shards -----------------------------
//
// Same ladder the process fleet exercises with real SIGKILLs
// (tests/test_fleet_proc.cpp), driven here through the in-process
// transport: crash -> detect -> respawn -> quarantine -> probe ->
// reinstate, no restart.

TEST(FleetChaos, CrashedLoopbackShardRespawnsAndReinstates) {
  fleet::FleetOptions options;
  options.shards = 2;
  options.replicas = 2;
  options.router_threads = 2;
  options.probe_after_ms = 1.0;
  options.shard.workers = 1;
  options.shard.cache_capacity = 0;
  options.supervise = true;
  options.supervision.poll_ms = 10.0;
  options.supervision.respawn_backoff_ms = 10.0;
  fleet::ShardRouter router(options);

  const StarField stars = random_stars(31, 20);
  (void)router.render(
      pinned_request(small_scene(), stars, SimulatorKind::kParallel));
  router.crash_shard(1);

  // First wait for the supervisor to notice the corpse (the state leaves
  // kHealthy only once detection fires), then drive traffic to carry the
  // fleet through respawn and the shadow probes that reinstate it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (router.stats().respawns_succeeded < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::uint64_t nonce = 0;
  while (router.shard_state(1) != fleet::ShardState::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    try {
      RenderRequest request = pinned_request(
          small_scene(), random_stars(6000 + nonce, 15),
          SimulatorKind::kParallel);
      request.scene.psf_sigma = 0.8 + 0.01 * static_cast<double>(nonce % 64);
      ++nonce;
      (void)router.render(request);
    } catch (const starsim::support::Error&) {
      // Failovers during the window are fine; hangs are not.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(router.shard_state(1), fleet::ShardState::kHealthy)
      << "the supervisor never reinstated the crashed loopback shard";

  // The respawned shard is a fresh service; frames stay bit-identical.
  const RenderResponse after = router.render(
      pinned_request(small_scene(), stars, SimulatorKind::kParallel));
  ASSERT_NE(after.result, nullptr);
  gs::Device device(gs::DeviceSpec::gtx480());
  EXPECT_EQ(max_abs_difference(
                after.result->image,
                ParallelSimulator(device).simulate(small_scene(), stars).image),
            0.0);

  router.stop();
  const fleet::FleetStats stats = router.stats();
  EXPECT_EQ(stats.in_flight(), 0u);
  EXPECT_GE(stats.crashes_detected, 1u);
  EXPECT_GE(stats.respawns_succeeded, 1u);
  EXPECT_GE(stats.reinstates, 1u);
}

}  // namespace
