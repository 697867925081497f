// The Table III selection rule as the cost model predicts it: sequential
// for tiny fields, parallel below the star-count and ROI inflections,
// adaptive above them.
#include <gtest/gtest.h>

#include "sched/cost.h"
#include "starsim/workload.h"
#include "support/error.h"

namespace {

using starsim::SceneConfig;
using starsim::SimulatorKind;
using starsim::sched::CostModel;
using starsim::sched::Prediction;

SceneConfig paper_scene(int roi = 10) {
  SceneConfig scene;  // 1024 x 1024
  scene.roi_side = roi;
  return scene;
}

TEST(Selector, SequentialWinsTinyFields) {
  // Section IV-D: "when the star image is in a very small-scale (num of
  // stars: 0~2^7), the sequential simulator on CPU can be a competent
  // choice".
  const CostModel model;
  EXPECT_EQ(model.predict(paper_scene(), 8).best, SimulatorKind::kSequential);
  EXPECT_EQ(model.predict(paper_scene(), 32).best, SimulatorKind::kSequential);
}

TEST(Selector, GpuWinsLargeFields) {
  const CostModel model;
  const SimulatorKind choice = model.predict(paper_scene(), 1 << 14).best;
  EXPECT_NE(choice, SimulatorKind::kSequential);
}

TEST(Selector, ParallelBeforeInflectionAdaptiveAfter) {
  // Table III at ROI 10: parallel below the star-count inflection,
  // adaptive above it.
  const CostModel model;
  EXPECT_EQ(model.predict(paper_scene(), 1 << 9).best_gpu,
            SimulatorKind::kParallel);
  EXPECT_EQ(model.predict(paper_scene(), 1 << 17).best_gpu,
            SimulatorKind::kAdaptive);
}

TEST(Selector, RoiInflectionAtFixedStars) {
  // Table III at 8192 stars: parallel for small ROI, adaptive for large.
  const CostModel model;
  EXPECT_EQ(model.predict(paper_scene(2), starsim::kTest2StarCount).best_gpu,
            SimulatorKind::kParallel);
  EXPECT_EQ(
      model.predict(paper_scene(20), starsim::kTest2StarCount).best_gpu,
      SimulatorKind::kAdaptive);
}

TEST(Selector, GpuChoiceSwitchesExactlyOnceAlongStarSweep) {
  const CostModel model;
  int switches = 0;
  SimulatorKind previous =
      model.predict(paper_scene(), 32).best_gpu;
  for (std::size_t n : starsim::test1_star_counts()) {
    const SimulatorKind current = model.predict(paper_scene(), n).best_gpu;
    if (current != previous) ++switches;
    previous = current;
  }
  EXPECT_EQ(switches, 1);
  EXPECT_EQ(previous, SimulatorKind::kAdaptive);
}

TEST(Selector, GpuChoiceSwitchesExactlyOnceAlongRoiSweep) {
  const CostModel model;
  int switches = 0;
  SimulatorKind previous =
      model.predict(paper_scene(2), starsim::kTest2StarCount).best_gpu;
  for (int side : starsim::test2_roi_sides()) {
    const SimulatorKind current =
        model.predict(paper_scene(side), starsim::kTest2StarCount).best_gpu;
    if (current != previous) ++switches;
    previous = current;
  }
  EXPECT_EQ(switches, 1);
  EXPECT_EQ(previous, SimulatorKind::kAdaptive);
}

TEST(Selector, PredictionTimesPositiveAndOrdered) {
  const CostModel model;
  const Prediction p = model.predict(paper_scene(), 8192);
  EXPECT_GT(p.sequential_s, 0.0);
  EXPECT_GT(p.parallel.application_s(), 0.0);
  EXPECT_GT(p.adaptive.application_s(), 0.0);
  // At 8192 stars the GPUs crush the CPU by orders of magnitude.
  EXPECT_GT(p.sequential_s / p.parallel.application_s(), 10.0);
}

TEST(Selector, AdaptiveCarriesFixedExtraNonKernelCost) {
  const CostModel model;
  const Prediction p = model.predict(paper_scene(), 1 << 10);
  const double extra =
      p.adaptive.non_kernel_s() - p.parallel.non_kernel_s();
  // Table I: LUT build (~0.71 ms) + texture binding (~0.21 ms) + LUT
  // upload (tiny). The paper's 0.92 ms penalty.
  EXPECT_NEAR(extra, 0.92e-3, 0.25e-3);
}

TEST(Selector, SequentialFlopsScaleLinearlyInStarsAndArea) {
  const CostModel model;
  const auto base = model.predict_sequential_flops(paper_scene(10), 100);
  EXPECT_EQ(model.predict_sequential_flops(paper_scene(10), 200), 2 * base);
  // Quadrupling ROI area roughly quadruples flops (minus per-star terms).
  const auto big = model.predict_sequential_flops(paper_scene(20), 100);
  EXPECT_GT(big, 3 * base);
  EXPECT_LT(big, 4 * base);
}

TEST(Selector, PredictedCountersScaleWithGeometry) {
  const CostModel model;
  const auto small = model.predict_parallel_counters(paper_scene(10), 64);
  const auto large = model.predict_parallel_counters(paper_scene(10), 128);
  EXPECT_EQ(large.atomic_ops, 2 * small.atomic_ops);
  EXPECT_EQ(large.threads_launched, 2 * small.threads_launched);
}

TEST(Selector, UtilizationRampVisibleInPredictions) {
  const CostModel model;
  const Prediction small = model.predict(paper_scene(), 32);
  const Prediction large = model.predict(paper_scene(), 1 << 15);
  EXPECT_LT(small.parallel.utilization, 0.5);
  EXPECT_DOUBLE_EQ(large.parallel.utilization, 1.0);
}

TEST(Selector, RejectsZeroStars) {
  const CostModel model;
  EXPECT_THROW((void)model.predict_parallel_counters(paper_scene(), 0),
               starsim::support::PreconditionError);
}

TEST(Selector, CustomLutGeometryShiftsAdaptiveCost) {
  starsim::LookupTableOptions fine;
  fine.bins_per_magnitude = 64;
  const CostModel model;
  const double coarse_build =
      model.predict(paper_scene(), 1024).adaptive.lut_build_s;
  const double fine_build =
      model.predict(paper_scene(), 1024, fine).adaptive.lut_build_s;
  EXPECT_GT(fine_build, coarse_build * 10.0);
}

}  // namespace
