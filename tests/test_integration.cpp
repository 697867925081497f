// End-to-end pipelines: catalogue -> attitude -> projection -> simulation ->
// output, and cross-simulator agreement on a realistic scene.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "gpusim/device.h"
#include "imageio/bmp.h"
#include "sched/cost.h"
#include "starsim/adaptive_simulator.h"
#include "starsim/catalog.h"
#include "starsim/multi_gpu_simulator.h"
#include "starsim/parallel_simulator.h"
#include "starsim/projection.h"
#include "starsim/render.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"

namespace {

namespace gs = starsim::gpusim;
using starsim::CameraModel;
using starsim::Quaternion;
using starsim::SceneConfig;
using starsim::StarField;

TEST(Integration, StarTrackerFrameEndToEnd) {
  // The paper's full pipeline with the attitude-driven front end: a
  // synthetic catalogue viewed by a pinhole camera renders to a frame with
  // flux everywhere a projected star landed.
  const starsim::Catalog catalog = starsim::Catalog::synthesize(50000, 17);
  CameraModel camera;
  camera.width = 256;
  camera.height = 256;
  camera.focal_length_px = 500.0;
  camera.magnitude_limit = 7.0;
  const Quaternion attitude = Quaternion::from_euler(0.3, -0.2, 0.1);
  const StarField stars = project_to_image(catalog.stars(), attitude, camera);
  ASSERT_GT(stars.size(), 10u);

  SceneConfig scene;
  scene.image_width = 256;
  scene.image_height = 256;
  scene.roi_side = 10;

  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::ParallelSimulator sim(device);
  const auto result = sim.simulate(scene, stars);

  // Flux appears at every projected star's pixel (stars whose center
  // rounds onto the frame; projection culls at the frame edge, so a star
  // at x = 255.7 legitimately rounds off it).
  int bright_stars = 0;
  int on_frame = 0;
  for (const auto& star : stars) {
    const int x = static_cast<int>(std::lround(star.x));
    const int y = static_cast<int>(std::lround(star.y));
    if (!result.image.contains(x, y)) continue;
    ++on_frame;
    if (result.image(x, y) > 0.0f) ++bright_stars;
  }
  EXPECT_EQ(bright_stars, on_frame);
  EXPECT_GT(on_frame, static_cast<int>(stars.size() * 9 / 10));

  // Output stage: render and reload.
  const std::string prefix = ::testing::TempDir() + "/tracker_frame";
  starsim::save_star_image(result.image, prefix);
  const auto reloaded = starsim::imageio::read_bmp_gray(prefix + ".bmp");
  EXPECT_EQ(reloaded.width(), 256);
  std::remove((prefix + ".bmp").c_str());
  std::remove((prefix + ".pgm").c_str());
}

TEST(Integration, AttitudeSlewShiftsTheFrame) {
  const starsim::Catalog catalog = starsim::Catalog::synthesize(50000, 18);
  CameraModel camera;
  camera.width = 128;
  camera.height = 128;
  camera.focal_length_px = 300.0;
  const StarField before =
      project_to_image(catalog.stars(), Quaternion::identity(), camera);
  const Quaternion slew = Quaternion::from_axis_angle({0, 1, 0}, 0.01);
  const StarField after = project_to_image(catalog.stars(), slew, camera);
  ASSERT_GT(before.size(), 5u);
  ASSERT_GT(after.size(), 5u);
  // The fields differ but have similar populations (same sky density).
  EXPECT_NE(before.size(), 0u);
  const double ratio =
      static_cast<double>(after.size()) / static_cast<double>(before.size());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(Integration, AllSimulatorsAgreeOnOneScene) {
  SceneConfig scene;
  scene.image_width = 128;
  scene.image_height = 128;
  scene.roi_side = 8;

  // Bin-centered magnitudes and integer positions so even the adaptive
  // simulator is exact.
  StarField stars;
  for (int i = 0; i < 60; ++i) {
    starsim::Star star;
    star.magnitude = static_cast<float>((i % 15) + 0.5);
    star.x = static_cast<float>(10 + (i * 7) % 110);
    star.y = static_cast<float>(10 + (i * 13) % 110);
    stars.push_back(star);
  }

  starsim::SequentialSimulator seq;
  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::ParallelSimulator par(device);
  starsim::AdaptiveSimulator ada(device);
  starsim::MultiGpuSimulator multi(3);

  const auto ref = seq.simulate(scene, stars).image;
  double peak = 0.0;
  for (float v : ref.pixels()) peak = std::max(peak, static_cast<double>(v));

  const auto par_result = par.simulate(scene, stars);
  const auto ada_result = ada.simulate(scene, stars);
  const auto multi_result = multi.simulate(scene, stars);
  EXPECT_LT(max_abs_difference(ref, par_result.image) / peak, 1e-4);
  EXPECT_LT(max_abs_difference(ref, ada_result.image) / peak, 1e-4);
  EXPECT_LT(max_abs_difference(ref, multi_result.image) / peak, 1e-4);
}

TEST(Integration, SelectorAgreesWithMeasuredModeledTimes) {
  // The advisor's predicted application times must match what the
  // simulators actually report, for interior stars (same models on both
  // sides: this is a consistency check, not a tautology — the predictor
  // reconstructs the counters analytically).
  SceneConfig scene;
  scene.image_width = 1024;
  scene.image_height = 1024;
  scene.roi_side = 10;
  starsim::WorkloadConfig workload;
  workload.star_count = 512;
  workload.border_margin = 8;
  const StarField stars = generate_stars(workload);

  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::ParallelSimulator par(device);
  const auto measured = par.simulate(scene, stars);

  const starsim::sched::CostModel model;
  const auto predicted = model.predict(scene, stars.size());
  EXPECT_NEAR(predicted.parallel.kernel_s, measured.timing.kernel_s,
              measured.timing.kernel_s * 0.01);
  EXPECT_NEAR(predicted.parallel.application_s(),
              measured.timing.application_s(),
              measured.timing.application_s() * 0.01);
}

TEST(Integration, NoisyRenderOfSimulatedFrame) {
  SceneConfig scene;
  scene.image_width = 128;
  scene.image_height = 128;
  scene.roi_side = 10;
  starsim::WorkloadConfig workload;
  workload.star_count = 100;
  workload.image_width = 128;
  workload.image_height = 128;
  const StarField stars = generate_stars(workload);

  starsim::SequentialSimulator seq;
  const auto result = seq.simulate(scene, stars);

  starsim::RenderOptions options;
  options.apply_noise = true;
  options.noise.read_noise_electrons = 1.0;
  options.noise.gain_electrons_per_flux = 10.0;
  const auto frame = starsim::render_display_image(result.image, options);
  int lit = 0;
  for (auto v : frame.pixels()) {
    if (v > 0) ++lit;
  }
  EXPECT_GT(lit, 100);  // stars plus noise floor
}

}  // namespace
