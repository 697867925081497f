#include "starsim/adaptive_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sched/cost.h"
#include "starsim/parallel_simulator.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

namespace gs = starsim::gpusim;
using starsim::AdaptiveSimulator;
using starsim::LookupTableOptions;
using starsim::SceneConfig;
using starsim::SequentialSimulator;
using starsim::SimulationResult;
using starsim::Star;
using starsim::StarField;

SceneConfig scene_of(int edge, int roi) {
  SceneConfig scene;
  scene.image_width = edge;
  scene.image_height = edge;
  scene.roi_side = roi;
  return scene;
}

double image_scale(const starsim::imageio::ImageF& image) {
  double peak = 0.0;
  for (float v : image.pixels()) peak = std::max(peak, static_cast<double>(v));
  return peak > 0.0 ? peak : 1.0;
}

/// Stars whose magnitudes sit exactly at lookup-table bin centers and whose
/// positions are integral — the regime where the adaptive simulator is
/// numerically equivalent to the parallel one.
StarField bin_centered_stars(std::size_t count, int edge, int bins_per_mag) {
  starsim::support::Pcg32 rng(7);
  StarField stars;
  const double width = 1.0 / bins_per_mag;
  const int total_bins = static_cast<int>(std::ceil(15.0 * bins_per_mag));
  for (std::size_t i = 0; i < count; ++i) {
    Star star;
    const int bin = static_cast<int>(rng.bounded(
        static_cast<std::uint32_t>(total_bins)));
    star.magnitude = static_cast<float>((bin + 0.5) * width);
    star.x = static_cast<float>(rng.bounded(static_cast<std::uint32_t>(edge)));
    star.y = static_cast<float>(rng.bounded(static_cast<std::uint32_t>(edge)));
    stars.push_back(star);
  }
  return stars;
}

class AdaptiveEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AdaptiveEquivalenceTest, MatchesSequentialAtBinCenters) {
  const auto [edge, roi] = GetParam();
  const SceneConfig scene = scene_of(edge, roi);
  const StarField stars = bin_centered_stars(150, edge, 1);

  SequentialSimulator seq;
  gs::Device device(gs::DeviceSpec::gtx480());
  AdaptiveSimulator ada(device);
  const auto a = seq.simulate(scene, stars).image;
  const auto b = ada.simulate(scene, stars).image;
  EXPECT_LT(max_abs_difference(a, b) / image_scale(a), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdaptiveEquivalenceTest,
                         ::testing::Values(std::make_tuple(64, 10),
                                           std::make_tuple(128, 5),
                                           std::make_tuple(128, 16),
                                           std::make_tuple(100, 9)));

TEST(Adaptive, MagnitudeQuantizationErrorShrinksWithFinerBins) {
  const SceneConfig scene = scene_of(128, 10);
  starsim::WorkloadConfig workload;
  workload.star_count = 200;
  workload.image_width = 128;
  workload.image_height = 128;
  const StarField stars = generate_stars(workload);  // continuous magnitudes

  SequentialSimulator seq;
  const auto reference = seq.simulate(scene, stars).image;
  const double scale = image_scale(reference);

  double previous_error = 1e300;
  for (int bins : {1, 4, 16, 64}) {
    gs::Device device(gs::DeviceSpec::gtx480());
    LookupTableOptions options;
    options.bins_per_magnitude = bins;
    AdaptiveSimulator ada(device, options);
    const double error =
        max_abs_difference(reference, ada.simulate(scene, stars).image) /
        scale;
    EXPECT_LT(error, previous_error);
    previous_error = error;
  }
  EXPECT_LT(previous_error, 2e-2);  // 64 bins/mag: ~1% flux error bound
}

TEST(Adaptive, SubpixelPhasesReduceErrorForFractionalPositions) {
  // Narrow magnitude range + fine bins so the position (phase) error
  // dominates and the table still fits the texture extent at 8 phases.
  SceneConfig scene = scene_of(128, 10);
  scene.magnitude_min = 3.0;
  scene.magnitude_max = 4.0;
  starsim::WorkloadConfig workload;
  workload.star_count = 150;
  workload.image_width = 128;
  workload.image_height = 128;
  workload.integer_positions = false;
  workload.magnitude_min = 3.0;
  workload.magnitude_max = 4.0;
  const StarField stars = generate_stars(workload);

  SequentialSimulator seq;
  const auto reference = seq.simulate(scene, stars).image;
  const double scale = image_scale(reference);

  auto error_with_phases = [&](int phases) {
    gs::Device device(gs::DeviceSpec::gtx480());
    LookupTableOptions options;
    options.bins_per_magnitude = 64;  // make position error dominant
    options.subpixel_phases = phases;
    AdaptiveSimulator ada(device, options);
    return max_abs_difference(reference, ada.simulate(scene, stars).image) /
           scale;
  };
  const double e1 = error_with_phases(1);
  const double e4 = error_with_phases(4);
  const double e8 = error_with_phases(8);
  EXPECT_LT(e4, e1);
  EXPECT_LT(e8, e4);
}

TEST(Adaptive, BreakdownIncludesLutAndBindingCosts) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars = bin_centered_stars(32, 128, 1);
  gs::Device device(gs::DeviceSpec::gtx480());
  AdaptiveSimulator ada(device);
  const SimulationResult r = ada.simulate(scene, stars);
  EXPECT_GT(r.timing.kernel_s, 0.0);
  EXPECT_GT(r.timing.lut_build_s, 0.0);
  EXPECT_DOUBLE_EQ(r.timing.texture_bind_s, device.spec().texture_bind_s);
  // Table I: LUT build ~0.71 ms at the paper's geometry (our bins: 15).
  EXPECT_NEAR(r.timing.lut_build_s, 0.71e-3, 0.2e-3);
  EXPECT_GT(r.timing.non_kernel_s(),
            r.timing.h2d_s + r.timing.d2h_s);  // extra non-kernel overhead
}

TEST(Adaptive, KernelUsesTextureNotExp) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars = bin_centered_stars(64, 128, 1);
  gs::Device device(gs::DeviceSpec::gtx480());
  AdaptiveSimulator ada(device);
  const SimulationResult r = ada.simulate(scene, stars);
  // One fetch per in-bounds ROI pixel.
  EXPECT_GT(r.timing.counters.texture_fetches, 0u);
  EXPECT_EQ(r.timing.counters.texture_fetches,
            r.timing.counters.atomic_ops);
  // Far fewer flops per thread than the parallel kernel (no exp/pow).
  starsim::ParallelSimulator par(device);
  const SimulationResult p = par.simulate(scene, stars);
  EXPECT_LT(r.timing.counters.flops, p.timing.counters.flops / 5);
  EXPECT_LT(r.timing.kernel_s, p.timing.kernel_s);
}

TEST(Adaptive, TextureCacheHitsDominate) {
  // The lookup table (6 KB at paper geometry) fits the 12 KB texture cache:
  // after cold misses, fetches hit.
  const SceneConfig scene = scene_of(256, 10);
  const StarField stars = bin_centered_stars(500, 256, 1);
  gs::Device device(gs::DeviceSpec::gtx480());
  AdaptiveSimulator ada(device);
  const SimulationResult r = ada.simulate(scene, stars);
  EXPECT_GT(r.timing.counters.texture_hits,
            r.timing.counters.texture_misses * 10);
}

TEST(Adaptive, CountersMatchPredictorOnDeterministicFields) {
  const SceneConfig scene = scene_of(256, 10);
  starsim::WorkloadConfig workload;
  workload.star_count = 128;
  workload.image_width = 256;
  workload.image_height = 256;
  workload.border_margin = 8;
  const StarField stars = generate_stars(workload);

  gs::Device device(gs::DeviceSpec::gtx480());
  AdaptiveSimulator ada(device);
  const SimulationResult r = ada.simulate(scene, stars);
  const starsim::sched::CostModel model;
  const gs::KernelCounters predicted =
      model.predict_adaptive_counters(scene, stars.size(), {});
  EXPECT_EQ(r.timing.counters.threads_launched, predicted.threads_launched);
  EXPECT_EQ(r.timing.counters.flops, predicted.flops);
  EXPECT_EQ(r.timing.counters.shared_reads, predicted.shared_reads);
  EXPECT_EQ(r.timing.counters.shared_writes, predicted.shared_writes);
  EXPECT_EQ(r.timing.counters.atomic_ops, predicted.atomic_ops);
  EXPECT_EQ(r.timing.counters.texture_fetches, predicted.texture_fetches);
  EXPECT_EQ(r.timing.counters.global_transactions,
            predicted.global_transactions);
  EXPECT_EQ(r.timing.counters.shared_bank_conflicts,
            predicted.shared_bank_conflicts);
  EXPECT_EQ(r.timing.counters.barriers, predicted.barriers);
}

TEST(Adaptive, TextureUnboundAndMemoryReleasedAfterRun) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars = bin_centered_stars(16, 128, 1);
  gs::Device device(gs::DeviceSpec::gtx480());
  AdaptiveSimulator ada(device);
  const std::size_t before = device.memory().used_bytes();
  (void)ada.simulate(scene, stars);
  EXPECT_EQ(device.memory().used_bytes(), before);
  EXPECT_EQ(device.bound_texture_count(), 0u);
}

TEST(Adaptive, MaxMagnitudeBinsRespectsTextureExtent) {
  gs::Device device(gs::DeviceSpec::gtx480());
  // 65536-row extent / (10 rows per bin) = 6553 bins at ROI 10, 1 phase.
  EXPECT_EQ(AdaptiveSimulator::max_magnitude_bins(device, 10, 1), 6553);
  // 4 phases: 160 rows per bin.
  EXPECT_EQ(AdaptiveSimulator::max_magnitude_bins(device, 10, 4), 409);
}

TEST(Adaptive, OversizedTableThrows) {
  gs::Device device(gs::DeviceSpec::gtx480());
  LookupTableOptions options;
  options.bins_per_magnitude = 1000;  // 15000 bins > 6553 extent limit
  AdaptiveSimulator ada(device, options);
  const SceneConfig scene = scene_of(64, 10);
  const StarField stars(1, Star{3.0f, 32.0f, 32.0f, 1.0f});
  EXPECT_THROW((void)ada.simulate(scene, stars),
               starsim::support::DeviceError);
}

TEST(Adaptive, EmptyStarFieldShortCircuits) {
  gs::Device device(gs::DeviceSpec::gtx480());
  AdaptiveSimulator ada(device);
  const SimulationResult r = ada.simulate(scene_of(64, 10), StarField{});
  for (float v : r.image.pixels()) ASSERT_EQ(v, 0.0f);
  EXPECT_DOUBLE_EQ(r.timing.lut_build_s, 0.0);
}

TEST(Adaptive, BatchFramesBitIdenticalToSoloRenders) {
  const SceneConfig scene = scene_of(128, 10);
  std::vector<StarField> fields;
  fields.push_back(bin_centered_stars(60, 128, 1));
  fields.push_back(bin_centered_stars(90, 128, 1));
  fields.push_back(bin_centered_stars(120, 128, 1));

  gs::Device batch_device(gs::DeviceSpec::gtx480());
  AdaptiveSimulator batch_sim(batch_device);
  const std::vector<SimulationResult> batched =
      batch_sim.simulate_batch(scene, fields);
  ASSERT_EQ(batched.size(), fields.size());

  for (std::size_t i = 0; i < fields.size(); ++i) {
    gs::Device solo_device(gs::DeviceSpec::gtx480());
    AdaptiveSimulator solo_sim(solo_device);
    const SimulationResult solo = solo_sim.simulate(scene, fields[i]);
    // Bit-identical, not merely close: batching shares the lookup-table
    // setup but must never change a rendered pixel.
    EXPECT_EQ(max_abs_difference(solo.image, batched[i].image), 0.0f);
    EXPECT_DOUBLE_EQ(batched[i].timing.kernel_s, solo.timing.kernel_s);
  }
}

TEST(Adaptive, BatchAmortizesSetupAcrossFrames) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars = bin_centered_stars(80, 128, 1);
  const std::vector<StarField> fields(4, stars);

  gs::Device solo_device(gs::DeviceSpec::gtx480());
  const SimulationResult solo =
      AdaptiveSimulator(solo_device).simulate(scene, stars);

  gs::Device batch_device(gs::DeviceSpec::gtx480());
  const std::vector<SimulationResult> batched =
      AdaptiveSimulator(batch_device).simulate_batch(scene, fields);
  ASSERT_EQ(batched.size(), 4u);

  double batch_build = 0.0;
  double batch_bind = 0.0;
  for (const SimulationResult& r : batched) {
    // Each frame carries an equal 1/4 share of the shared setup.
    EXPECT_DOUBLE_EQ(r.timing.lut_build_s, solo.timing.lut_build_s / 4.0);
    EXPECT_DOUBLE_EQ(r.timing.texture_bind_s,
                     solo.timing.texture_bind_s / 4.0);
    EXPECT_LT(r.timing.non_kernel_s(), solo.timing.non_kernel_s());
    batch_build += r.timing.lut_build_s;
    batch_bind += r.timing.texture_bind_s;
  }
  // The batch pays the setup exactly once in total.
  EXPECT_NEAR(batch_build, solo.timing.lut_build_s, 1e-15);
  EXPECT_NEAR(batch_bind, solo.timing.texture_bind_s, 1e-15);
}

TEST(Adaptive, BatchSkipsSetupShareForEmptyFields) {
  const SceneConfig scene = scene_of(64, 10);
  std::vector<StarField> fields;
  fields.push_back(bin_centered_stars(20, 64, 1));
  fields.push_back(StarField{});
  fields.push_back(bin_centered_stars(30, 64, 1));

  gs::Device device(gs::DeviceSpec::gtx480());
  const std::vector<SimulationResult> batched =
      AdaptiveSimulator(device).simulate_batch(scene, fields);
  ASSERT_EQ(batched.size(), 3u);
  for (float v : batched[1].image.pixels()) ASSERT_EQ(v, 0.0f);
  EXPECT_DOUBLE_EQ(batched[1].timing.lut_build_s, 0.0);
  // The two non-empty frames split the setup between themselves.
  EXPECT_DOUBLE_EQ(batched[0].timing.lut_build_s,
                   batched[2].timing.lut_build_s);
  EXPECT_GT(batched[0].timing.lut_build_s, 0.0);
}

TEST(Adaptive, BatchOfAllEmptyFieldsIsBlank) {
  gs::Device device(gs::DeviceSpec::gtx480());
  const std::vector<StarField> fields(2);
  const std::vector<SimulationResult> batched =
      AdaptiveSimulator(device).simulate_batch(scene_of(64, 10), fields);
  ASSERT_EQ(batched.size(), 2u);
  for (const SimulationResult& r : batched) {
    for (float v : r.image.pixels()) ASSERT_EQ(v, 0.0f);
    EXPECT_DOUBLE_EQ(r.timing.lut_build_s, 0.0);
  }
}

}  // namespace
