#include "starsim/openmp_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sched/cost.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"

namespace {

using starsim::OpenMpSimulator;
using starsim::SceneConfig;
using starsim::SequentialSimulator;
using starsim::SimulationResult;
using starsim::StarField;

SceneConfig scene_of(int edge, int roi) {
  SceneConfig scene;
  scene.image_width = edge;
  scene.image_height = edge;
  scene.roi_side = roi;
  return scene;
}

StarField workload_of(int edge, std::size_t count, bool subpixel = true) {
  starsim::WorkloadConfig workload;
  workload.star_count = count;
  workload.image_width = edge;
  workload.image_height = edge;
  workload.integer_positions = !subpixel;
  return generate_stars(workload);
}

class OpenMpEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(OpenMpEquivalenceTest, MatchesSequentialForAnyThreadCount) {
  const int threads = GetParam();
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars = workload_of(128, 300);
  SequentialSimulator seq;
  OpenMpSimulator par(threads);
  const auto a = seq.simulate(scene, stars).image;
  const auto b = par.simulate(scene, stars).image;
  double peak = 0.0;
  for (float v : a.pixels()) peak = std::max(peak, static_cast<double>(v));
  EXPECT_LT(max_abs_difference(a, b) / peak, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Threads, OpenMpEquivalenceTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(OpenMp, FlopCountEqualsSequential) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars = workload_of(128, 150);
  SequentialSimulator seq;
  OpenMpSimulator par(4);
  EXPECT_EQ(par.simulate(scene, stars).timing.counters.flops,
            seq.simulate(scene, stars).timing.counters.flops);
}

TEST(OpenMp, ModeledTimeScalesWithCores) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars = workload_of(128, 200);
  const double t1 =
      OpenMpSimulator(1).simulate(scene, stars).timing.host_compute_s;
  const double t4 =
      OpenMpSimulator(4).simulate(scene, stars).timing.host_compute_s;
  const double t8 =
      OpenMpSimulator(8).simulate(scene, stars).timing.host_compute_s;
  // 85% parallel efficiency: 4 cores -> 3.4x, 8 -> 6.8x.
  EXPECT_NEAR(t1 / t4, 3.4, 1e-6);
  EXPECT_NEAR(t1 / t8, 6.8, 1e-6);
}

TEST(OpenMp, ModeledTimeCappedAtHostCores) {
  const SceneConfig scene = scene_of(64, 10);
  const StarField stars = workload_of(64, 50);
  const double t8 =
      OpenMpSimulator(8).simulate(scene, stars).timing.host_compute_s;
  const double t64 =
      OpenMpSimulator(64).simulate(scene, stars).timing.host_compute_s;
  EXPECT_DOUBLE_EQ(t8, t64);  // HostSpec has 8 cores
}

TEST(OpenMp, SingleThreadMatchesSequentialModeledTime) {
  const SceneConfig scene = scene_of(64, 10);
  const StarField stars = workload_of(64, 40);
  SequentialSimulator seq;
  OpenMpSimulator one(1);
  EXPECT_DOUBLE_EQ(one.simulate(scene, stars).timing.host_compute_s,
                   seq.simulate(scene, stars).timing.host_compute_s);
}

TEST(OpenMp, ReductionCostReported) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars = workload_of(128, 64);
  const SimulationResult r = OpenMpSimulator(4).simulate(scene, stars);
  EXPECT_GT(r.timing.host_reduce_s, 0.0);
  EXPECT_GT(r.timing.application_s(), r.timing.host_compute_s);
}

TEST(OpenMp, StillSlowerThanModeledGpuAtScale) {
  // The extension closes some of the gap but not the orders of magnitude —
  // the multicore CPU must not upset the paper's conclusion.
  const starsim::sched::CostModel model;
  SceneConfig scene;  // 1024^2
  const auto prediction = model.predict(scene, 1u << 15);
  const double cpu8 = starsim::gpusim::HostSpec::i7_860().parallel_time_s(
      static_cast<double>(
          model.predict_sequential_flops(scene, 1u << 15)),
      8);
  EXPECT_GT(cpu8 / prediction.parallel.application_s(), 5.0);
}

TEST(OpenMp, ZeroThreadRequestPicksHardware) {
  OpenMpSimulator sim(0);
  EXPECT_GE(sim.threads(), 1);
}

TEST(OpenMp, EmptyFieldYieldsBlackImage) {
  OpenMpSimulator sim(4);
  const SimulationResult r =
      sim.simulate(scene_of(64, 10), StarField{});
  for (float v : r.image.pixels()) ASSERT_EQ(v, 0.0f);
}

}  // namespace
