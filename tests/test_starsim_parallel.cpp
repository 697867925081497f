#include "starsim/parallel_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sched/cost.h"
#include "starsim/device_frame.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"
#include "support/error.h"

namespace {

namespace gs = starsim::gpusim;
using starsim::ParallelSimulator;
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

class ParallelVsSequentialTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

// The defining contract: the GPU decomposition computes the same image as
// the sequential baseline (up to float accumulation order).
TEST_P(ParallelVsSequentialTest, ImagesAgree) {
  const auto [edge, roi, star_count] = GetParam();
  const SceneConfig scene = scene_of(edge, roi);
  starsim::WorkloadConfig workload;
  workload.star_count = star_count;
  workload.image_width = edge;
  workload.image_height = edge;
  workload.integer_positions = false;  // hardest case for coordinate math
  const StarField stars = generate_stars(workload);

  SequentialSimulator seq;
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  const auto a = seq.simulate(scene, stars).image;
  const auto b = par.simulate(scene, stars).image;
  EXPECT_LT(max_abs_difference(a, b) / image_scale(a), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ParallelVsSequentialTest,
    ::testing::Values(std::make_tuple(64, 10, 50),
                      std::make_tuple(128, 5, 300),
                      std::make_tuple(128, 16, 100),
                      std::make_tuple(256, 10, 1000),
                      std::make_tuple(100, 3, 77),
                      std::make_tuple(64, 1, 20)));

TEST(Parallel, CountersMatchPredictorExactly) {
  // Interior stars: the analytic predictor must reproduce every counter the
  // functional execution records (atomic conflicts aside, which the
  // predictor sets to zero and overlap can make positive).
  const SceneConfig scene = scene_of(256, 10);
  starsim::WorkloadConfig workload;
  workload.star_count = 200;
  workload.image_width = 256;
  workload.image_height = 256;
  workload.border_margin = 8;  // keep every ROI interior
  const StarField stars = generate_stars(workload);

  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  const SimulationResult r = par.simulate(scene, stars);

  const starsim::sched::CostModel model;
  const gs::KernelCounters predicted =
      model.predict_parallel_counters(scene, stars.size());

  EXPECT_EQ(r.timing.counters.blocks_launched, predicted.blocks_launched);
  EXPECT_EQ(r.timing.counters.threads_launched, predicted.threads_launched);
  EXPECT_EQ(r.timing.counters.warps_launched, predicted.warps_launched);
  EXPECT_EQ(r.timing.counters.flops, predicted.flops);
  EXPECT_EQ(r.timing.counters.global_reads, predicted.global_reads);
  EXPECT_EQ(r.timing.counters.global_bytes_read, predicted.global_bytes_read);
  EXPECT_EQ(r.timing.counters.global_bytes_written,
            predicted.global_bytes_written);
  EXPECT_EQ(r.timing.counters.global_transactions,
            predicted.global_transactions);
  EXPECT_EQ(r.timing.counters.shared_bank_conflicts,
            predicted.shared_bank_conflicts);
  EXPECT_EQ(r.timing.counters.shared_reads, predicted.shared_reads);
  EXPECT_EQ(r.timing.counters.shared_writes, predicted.shared_writes);
  EXPECT_EQ(r.timing.counters.atomic_ops, predicted.atomic_ops);
  EXPECT_EQ(r.timing.counters.barriers, predicted.barriers);
  EXPECT_EQ(r.timing.counters.branch_sites_evaluated,
            predicted.branch_sites_evaluated);
  EXPECT_EQ(r.timing.counters.divergent_warp_branches, 0u);
}

TEST(Parallel, StackedStarsProduceAtomicConflicts) {
  const SceneConfig scene = scene_of(64, 10);
  // Ten stars on the same pixel: their ROIs overlap completely.
  StarField stars(10, Star{3.0f, 32.0f, 32.0f, 1.0f});
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  const SimulationResult r = par.simulate(scene, stars);
  // 100 pixels x 10 ops each -> 9 conflicts per pixel.
  EXPECT_EQ(r.timing.counters.atomic_conflicts, 900u);
}

TEST(Parallel, BorderStarsDivergeAtBoundaryBranch) {
  const SceneConfig scene = scene_of(64, 10);
  const StarField stars{Star{3.0f, 0.0f, 0.0f, 1.0f}};  // corner star
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  const SimulationResult r = par.simulate(scene, stars);
  EXPECT_GT(r.timing.counters.divergent_warp_branches, 0u);
}

TEST(Parallel, BreakdownFieldsPopulated) {
  const SceneConfig scene = scene_of(128, 10);
  starsim::WorkloadConfig workload;
  workload.star_count = 64;
  workload.image_width = 128;
  workload.image_height = 128;
  const StarField stars = generate_stars(workload);
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  const SimulationResult r = par.simulate(scene, stars);
  EXPECT_GT(r.timing.kernel_s, 0.0);
  EXPECT_GT(r.timing.h2d_s, 0.0);
  EXPECT_GT(r.timing.d2h_s, 0.0);
  EXPECT_DOUBLE_EQ(r.timing.lut_build_s, 0.0);
  EXPECT_DOUBLE_EQ(r.timing.texture_bind_s, 0.0);
  EXPECT_DOUBLE_EQ(r.timing.host_compute_s, 0.0);
  EXPECT_GT(r.timing.utilization, 0.0);
  EXPECT_GT(r.timing.achieved_gflops, 0.0);
  EXPECT_GT(r.timing.wall_s, 0.0);
  EXPECT_NEAR(r.timing.application_s(),
              r.timing.kernel_s + r.timing.h2d_s + r.timing.d2h_s, 1e-12);
}

TEST(Parallel, TransferBytesCoverStarsAndImageBothWays) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars(32, Star{3.0f, 64.0f, 64.0f, 1.0f});
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  (void)par.simulate(scene, stars);
  const gs::TransferStats& t = device.transfer_stats();
  const std::uint64_t image_bytes = 128 * 128 * 4;
  EXPECT_EQ(t.h2d_bytes, 32 * sizeof(starsim::Star) + image_bytes);
  EXPECT_EQ(t.d2h_bytes, image_bytes);
  EXPECT_EQ(t.h2d_calls, 2u);
  EXPECT_EQ(t.d2h_calls, 1u);
}

TEST(Parallel, EmptyStarFieldShortCircuits) {
  const SceneConfig scene = scene_of(64, 10);
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  const SimulationResult r = par.simulate(scene, StarField{});
  for (float v : r.image.pixels()) ASSERT_EQ(v, 0.0f);
  EXPECT_DOUBLE_EQ(r.timing.kernel_s, 0.0);
}

TEST(Parallel, RoiBeyondBlockLimitThrows) {
  // Section IV-D: "the thread block has a maximum of 1024 threads, and this
  // translates into the limitation on the size of ROI".
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  EXPECT_EQ(par.max_roi_side(), 32);
  const SceneConfig scene = scene_of(128, 33);  // 1089 > 1024 threads
  const StarField stars(1, Star{3.0f, 64.0f, 64.0f, 1.0f});
  EXPECT_THROW((void)par.simulate(scene, stars),
               starsim::support::DeviceError);
}

TEST(Parallel, MaxRoiSideExactlyFits) {
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  const SceneConfig scene = scene_of(64, 32);  // 1024 threads per block
  const StarField stars(2, Star{3.0f, 32.0f, 32.0f, 1.0f});
  EXPECT_NO_THROW((void)par.simulate(scene, stars));
}

TEST(Parallel, DeviceMemoryReleasedAfterRun) {
  const SceneConfig scene = scene_of(128, 10);
  const StarField stars(16, Star{3.0f, 64.0f, 64.0f, 1.0f});
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  const std::size_t before = device.memory().used_bytes();
  (void)par.simulate(scene, stars);
  EXPECT_EQ(device.memory().used_bytes(), before);
}

class TiledRoiTest : public ::testing::TestWithParam<int> {};

// The Section IV-D limitation lifted: with tiling enabled, ROIs beyond the
// 1024-thread block limit render correctly.
TEST_P(TiledRoiTest, LargeRoiMatchesSequential) {
  const int roi = GetParam();
  SceneConfig scene = scene_of(160, roi);
  scene.psf_sigma = static_cast<double>(roi) / 6.0;  // fill the wide ROI
  starsim::WorkloadConfig workload;
  workload.star_count = 40;
  workload.image_width = 160;
  workload.image_height = 160;
  workload.integer_positions = false;
  const StarField stars = generate_stars(workload);

  SequentialSimulator seq;
  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::ParallelOptions options;
  options.allow_tiling = true;
  ParallelSimulator tiled(device, options);
  const auto a = seq.simulate(scene, stars).image;
  const auto b = tiled.simulate(scene, stars).image;
  EXPECT_LT(max_abs_difference(a, b) / image_scale(a), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sides, TiledRoiTest,
                         ::testing::Values(33, 40, 48, 64));

TEST(Parallel, TilingAlsoCoversSmallRoisWhenForced) {
  // tile_side 4 over an ROI of 10: partial edge tiles exercise the in-ROI
  // guard branch.
  const SceneConfig scene = scene_of(96, 10);
  starsim::WorkloadConfig workload;
  workload.star_count = 60;
  workload.image_width = 96;
  workload.image_height = 96;
  const StarField stars = generate_stars(workload);

  SequentialSimulator seq;
  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::ParallelOptions options;
  options.allow_tiling = true;
  options.tile_side = 4;
  ParallelSimulator tiled(device, options);
  const auto a = seq.simulate(scene, stars).image;
  const SimulationResult r = tiled.simulate(scene, stars);
  EXPECT_LT(max_abs_difference(a, r.image) / image_scale(a), 1e-4);
  // 10/4 -> 3x3 tiles per star (plus grid-rounding padding blocks).
  EXPECT_GE(r.timing.counters.blocks_launched, 60u * 9u);
  // Edge tiles diverge on the in-ROI guard.
  EXPECT_GT(r.timing.counters.divergent_warp_branches, 0u);
}

TEST(Parallel, TilingOffByDefaultStillThrows) {
  gs::Device device(gs::DeviceSpec::gtx480());
  ParallelSimulator par(device);
  EXPECT_FALSE(par.options().allow_tiling);
  const SceneConfig scene = scene_of(128, 40);
  const StarField stars(1, Star{3.0f, 64.0f, 64.0f, 1.0f});
  EXPECT_THROW((void)par.simulate(scene, stars),
               starsim::support::DeviceError);
}

TEST(Parallel, RejectsNonPositiveTileSide) {
  gs::Device device(gs::DeviceSpec::gtx480());
  starsim::ParallelOptions options;
  options.tile_side = 0;
  EXPECT_THROW(ParallelSimulator(device, options),
               starsim::support::PreconditionError);
}

TEST(Parallel, GridGeometryCoversLargeStarCounts) {
  // > 65535-style star counts need the 2-D grid; verify the helper's
  // geometry covers every star and the kernel guards the padding blocks.
  const auto config = starsim::star_centric_config(100000, 4);
  EXPECT_GE(config.total_blocks(), 100000u);
  EXPECT_EQ(config.block.x, 4u);
  EXPECT_EQ(config.block.y, 4u);
  const auto small = starsim::star_centric_config(7, 10);
  EXPECT_EQ(small.total_blocks(), 7u);
}

}  // namespace
