// Pixel-integrated PSF mode: the exact pixel response threaded through all
// simulators, the lookup table, and the work predictor.
#include <gtest/gtest.h>

#include <algorithm>

#include "gpusim/device.h"
#include "sched/cost.h"
#include "starsim/adaptive_simulator.h"
#include "starsim/openmp_simulator.h"
#include "starsim/parallel_simulator.h"
#include "starsim/pixel_centric_simulator.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"

namespace {

namespace gs = starsim::gpusim;
using starsim::SceneConfig;
using starsim::SequentialSimulator;
using starsim::Star;
using starsim::StarField;

SceneConfig integrated_scene(int edge, int roi, double sigma = 1.7) {
  SceneConfig scene;
  scene.image_width = edge;
  scene.image_height = edge;
  scene.roi_side = roi;
  scene.psf_sigma = sigma;
  scene.pixel_integration = true;
  return scene;
}

double peak_of(const starsim::imageio::ImageF& image) {
  double peak = 0.0;
  for (float v : image.pixels()) peak = std::max(peak, static_cast<double>(v));
  return peak > 0.0 ? peak : 1.0;
}

TEST(Integrated, FluxExactlyConservedEvenForTinySigma) {
  // The integrated response tiles the plane: an interior star's total image
  // flux equals its brightness for ANY sigma — including sub-pixel ones
  // where point sampling fails badly.
  SequentialSimulator sim;
  for (double sigma : {0.3, 0.8, 1.7}) {
    const SceneConfig scene = integrated_scene(64, 20, sigma);
    const StarField stars{Star{4.0f, 32.0f, 32.0f, 1.0f}};
    const auto result = sim.simulate(scene, stars);
    const double brightness = scene.brightness.brightness(4.0);
    EXPECT_NEAR(total_flux(result.image), brightness, brightness * 2e-3)
        << "sigma=" << sigma;
  }
}

TEST(Integrated, PointSamplingOverestimatesAtSmallSigma) {
  // The comparison that motivates the mode: at sigma 0.3 a pixel-centered
  // star's point-sampled image holds far more than its brightness.
  SequentialSimulator sim;
  SceneConfig point = integrated_scene(64, 20, 0.3);
  point.pixel_integration = false;
  const StarField stars{Star{4.0f, 32.0f, 32.0f, 1.0f}};
  const double brightness = point.brightness.brightness(4.0);
  const double sampled = total_flux(sim.simulate(point, stars).image);
  EXPECT_GT(sampled, brightness * 1.5);
}

TEST(Integrated, AllSimulatorsAgree) {
  const SceneConfig scene = integrated_scene(128, 10);
  starsim::WorkloadConfig workload;
  workload.star_count = 200;
  workload.image_width = 128;
  workload.image_height = 128;
  workload.integer_positions = false;
  const StarField stars = generate_stars(workload);

  SequentialSimulator seq;
  const auto reference = seq.simulate(scene, stars).image;
  const double peak = peak_of(reference);

  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::ParallelSimulator parallel(device);
  starsim::PixelCentricSimulator pixel_centric(device);
  starsim::OpenMpSimulator openmp(4);
  EXPECT_LT(max_abs_difference(reference,
                               parallel.simulate(scene, stars).image) /
                peak,
            1e-4);
  EXPECT_LT(max_abs_difference(reference,
                               pixel_centric.simulate(scene, stars).image) /
                peak,
            1e-4);
  EXPECT_LT(max_abs_difference(reference,
                               openmp.simulate(scene, stars).image) /
                peak,
            1e-5);
}

TEST(Integrated, AdaptiveLookupTableUsesIntegratedRates) {
  const SceneConfig scene = integrated_scene(128, 10);
  // Bin-centered magnitudes + integer positions: adaptive must match.
  StarField stars;
  for (int i = 0; i < 80; ++i) {
    Star star;
    star.magnitude = static_cast<float>((i % 15) + 0.5);
    star.x = static_cast<float>(12 + (i * 7) % 100);
    star.y = static_cast<float>(12 + (i * 11) % 100);
    stars.push_back(star);
  }
  SequentialSimulator seq;
  const auto reference = seq.simulate(scene, stars).image;
  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::AdaptiveSimulator adaptive(device);
  const auto image = adaptive.simulate(scene, stars).image;
  EXPECT_LT(max_abs_difference(reference, image) / peak_of(reference), 1e-4);
}

TEST(Integrated, PredictorTracksIntegratedFlops) {
  const SceneConfig scene = integrated_scene(256, 10);
  starsim::WorkloadConfig workload;
  workload.star_count = 100;
  workload.image_width = 256;
  workload.image_height = 256;
  workload.border_margin = 8;
  const StarField stars = generate_stars(workload);

  // Sequential flop parity.
  SequentialSimulator seq;
  const starsim::sched::CostModel model;
  EXPECT_EQ(seq.simulate(scene, stars).timing.counters.flops,
            model.predict_sequential_flops(scene, stars.size()));

  // Parallel kernel flop parity.
  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::ParallelSimulator parallel(device);
  EXPECT_EQ(parallel.simulate(scene, stars).timing.counters.flops,
            model.predict_parallel_counters(scene, stars.size()).flops);
}

TEST(Integrated, CostsMoreThanPointSamplingOnTheModeledGpu) {
  // Four erf (120 each) vs one exp (160): the integrated kernel is pricier,
  // visible in the modeled kernel time.
  const starsim::sched::CostModel model;
  SceneConfig point;
  SceneConfig integ;
  integ.pixel_integration = true;
  const auto t_point =
      model.predict(point, 8192).parallel.kernel_s;
  const auto t_integrated =
      model.predict(integ, 8192).parallel.kernel_s;
  EXPECT_GT(t_integrated, t_point * 1.5);
}

TEST(Integrated, ConvergesToPointSamplingForWideSigma) {
  // At sigma >> 1 pixel the response varies slowly across a pixel; both
  // models agree closely.
  SequentialSimulator sim;
  const StarField stars{Star{3.0f, 32.0f, 32.0f, 1.0f}};
  SceneConfig integ = integrated_scene(64, 20, 4.0);
  SceneConfig point = integ;
  point.pixel_integration = false;
  const auto a = sim.simulate(integ, stars).image;
  const auto b = sim.simulate(point, stars).image;
  EXPECT_LT(max_abs_difference(a, b) / peak_of(a), 1e-2);
}

}  // namespace
