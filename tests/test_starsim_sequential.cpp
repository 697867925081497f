#include "starsim/sequential_simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sched/cost.h"
#include "starsim/psf.h"
#include "starsim/roi.h"
#include "support/error.h"

namespace {

using starsim::GaussianPsf;
using starsim::SceneConfig;
using starsim::SequentialSimulator;
using starsim::SimulationResult;
using starsim::Star;
using starsim::StarField;

SceneConfig small_scene(int edge = 64, int roi = 10) {
  SceneConfig scene;
  scene.image_width = edge;
  scene.image_height = edge;
  scene.roi_side = roi;
  return scene;
}

TEST(Sequential, SingleStarCenterPixelValue) {
  const SceneConfig scene = small_scene();
  SequentialSimulator sim;
  const StarField stars{Star{3.0f, 32.0f, 32.0f, 1.0f}};
  const SimulationResult r = sim.simulate(scene, stars);
  const GaussianPsf psf(scene.psf_sigma);
  const double expected =
      scene.brightness.brightness(3.0) * psf.coefficient();
  EXPECT_NEAR(r.image(32, 32), expected, expected * 1e-6);
}

TEST(Sequential, FluxFallsOffGaussian) {
  const SceneConfig scene = small_scene();
  SequentialSimulator sim;
  const StarField stars{Star{2.0f, 32.0f, 32.0f, 1.0f}};
  const SimulationResult r = sim.simulate(scene, stars);
  const GaussianPsf psf(scene.psf_sigma);
  const double brightness = scene.brightness.brightness(2.0);
  for (int dx : {-3, -1, 1, 2}) {
    const double expected = brightness * psf.intensity_rate(dx, 0);
    ASSERT_NEAR(r.image(32 + dx, 32), expected,
                std::abs(expected) * 1e-5 + 1e-6);
  }
}

TEST(Sequential, PixelsOutsideRoiStayZero) {
  const SceneConfig scene = small_scene(64, 10);
  SequentialSimulator sim;
  const StarField stars{Star{1.0f, 32.0f, 32.0f, 1.0f}};
  const SimulationResult r = sim.simulate(scene, stars);
  // ROI covers [27, 37); everything outside is untouched.
  EXPECT_EQ(r.image(26, 32), 0.0f);
  EXPECT_EQ(r.image(37, 32), 0.0f);
  EXPECT_EQ(r.image(32, 26), 0.0f);
  EXPECT_EQ(r.image(0, 0), 0.0f);
  EXPECT_GT(r.image(27, 32), 0.0f);
  EXPECT_GT(r.image(36, 32), 0.0f);
}

TEST(Sequential, TwoStarsAddLinearly) {
  const SceneConfig scene = small_scene();
  SequentialSimulator sim;
  const Star a{2.0f, 30.0f, 30.0f, 1.0f};
  const Star b{4.0f, 33.0f, 31.0f, 1.0f};
  const auto only_a = sim.simulate(scene, StarField{a}).image;
  const auto only_b = sim.simulate(scene, StarField{b}).image;
  const auto both = sim.simulate(scene, StarField{a, b}).image;
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ASSERT_NEAR(both(x, y), only_a(x, y) + only_b(x, y), 1e-4);
    }
  }
}

TEST(Sequential, EnergyConservedWithinRoi) {
  SceneConfig scene = small_scene(128, 20);
  scene.psf_sigma = 1.5;
  SequentialSimulator sim;
  const StarField stars{Star{5.0f, 64.0f, 64.0f, 1.0f}};
  const SimulationResult r = sim.simulate(scene, stars);
  const double brightness = scene.brightness.brightness(5.0);
  // A 20x20 ROI holds essentially all flux at sigma 1.5 (radius ~10 = 6.7
  // sigma); total image flux must equal the star's brightness.
  EXPECT_NEAR(total_flux(r.image), brightness, brightness * 1e-4);
}

TEST(Sequential, BorderStarLosesClippedFlux) {
  const SceneConfig scene = small_scene(64, 10);
  SequentialSimulator sim;
  const StarField interior{Star{5.0f, 32.0f, 32.0f, 1.0f}};
  const StarField corner{Star{5.0f, 0.0f, 0.0f, 1.0f}};
  const double full = total_flux(sim.simulate(scene, interior).image);
  const double clipped = total_flux(sim.simulate(scene, corner).image);
  EXPECT_LT(clipped, full);
  EXPECT_GT(clipped, 0.0);
  // A corner star keeps roughly a quarter of its flux.
  EXPECT_NEAR(clipped / full, 0.25, 0.15);
}

TEST(Sequential, WeightScalesContribution) {
  const SceneConfig scene = small_scene();
  SequentialSimulator sim;
  const StarField unit{Star{3.0f, 32.0f, 32.0f, 1.0f}};
  const StarField half{Star{3.0f, 32.0f, 32.0f, 0.5f}};
  const auto u = sim.simulate(scene, unit).image;
  const auto h = sim.simulate(scene, half).image;
  EXPECT_NEAR(h(32, 32), 0.5 * u(32, 32), 1e-6);
}

TEST(Sequential, SubpixelPositionShiftsFlux) {
  const SceneConfig scene = small_scene();
  SequentialSimulator sim;
  const StarField stars{Star{3.0f, 32.3f, 32.0f, 1.0f}};
  const SimulationResult r = sim.simulate(scene, stars);
  // Star sits right of pixel 32: pixel 33 sees more flux than pixel 31.
  EXPECT_GT(r.image(33, 32), r.image(31, 32));
}

TEST(Sequential, EmptyStarFieldYieldsBlackImage) {
  const SceneConfig scene = small_scene();
  SequentialSimulator sim;
  const SimulationResult r = sim.simulate(scene, StarField{});
  for (float v : r.image.pixels()) ASSERT_EQ(v, 0.0f);
  EXPECT_EQ(r.timing.counters.flops, 0u);
}

TEST(Sequential, FlopsMatchAnalyticPrediction) {
  const SceneConfig scene = small_scene(256, 10);
  SequentialSimulator sim;
  // Interior stars only, so the predictor's no-clipping assumption is exact.
  StarField stars;
  for (int i = 0; i < 7; ++i) {
    stars.push_back(Star{static_cast<float>(i), 100.0f + static_cast<float>(3 * i),
                         120.0f, 1.0f});
  }
  const SimulationResult r = sim.simulate(scene, stars);
  const starsim::sched::CostModel model;
  EXPECT_EQ(r.timing.counters.flops,
            model.predict_sequential_flops(scene, stars.size()));
}

TEST(Sequential, ModeledTimeProportionalToFlops) {
  const SceneConfig scene = small_scene();
  const starsim::gpusim::HostSpec host = starsim::gpusim::HostSpec::i7_860();
  SequentialSimulator sim(host);
  const StarField one{Star{3.0f, 32.0f, 32.0f, 1.0f}};
  const SimulationResult r = sim.simulate(scene, one);
  EXPECT_DOUBLE_EQ(
      r.timing.host_compute_s,
      static_cast<double>(r.timing.counters.flops) /
          host.effective_scalar_flops);
  EXPECT_DOUBLE_EQ(r.timing.kernel_s, 0.0);
  EXPECT_DOUBLE_EQ(r.timing.non_kernel_s(), 0.0);
  EXPECT_GT(r.timing.wall_s, 0.0);
}

TEST(Sequential, ValidatesScene) {
  SequentialSimulator sim;
  SceneConfig scene = small_scene();
  scene.psf_sigma = -1.0;
  EXPECT_THROW((void)sim.simulate(scene, StarField{}),
               starsim::support::PreconditionError);
}

}  // namespace
