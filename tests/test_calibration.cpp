// Calibration acceptance tests: the modeled GTX480 must reproduce the
// *shapes* of the paper's evaluation (DESIGN.md documents the expected
// bands). These run on the analytic predictor — the counter-exactness tests
// in test_starsim_parallel/adaptive tie the predictor to the functional
// execution, so these bands transfer to the measured benches.
#include <gtest/gtest.h>

#include <vector>

#include "sched/cost.h"
#include "starsim/workload.h"
#include "support/stats.h"

namespace {

using starsim::SceneConfig;
using starsim::SimulatorKind;
using starsim::sched::CostModel;
using starsim::sched::Prediction;

SceneConfig paper_scene(int roi = starsim::kTest1RoiSide) {
  SceneConfig scene;  // 1024 x 1024 per the paper
  scene.roi_side = roi;
  return scene;
}

TEST(Calibration, Test1InflectionNearTwoToThe13) {
  // Paper: "in test 1 ... the inflection point comes when number of stars
  // reach 2^13". Accept one octave of slack either way.
  const CostModel model;
  std::size_t inflection = 0;
  for (std::size_t n : starsim::test1_star_counts()) {
    if (model.predict(paper_scene(), n).best_gpu ==
        SimulatorKind::kAdaptive) {
      inflection = n;
      break;
    }
  }
  ASSERT_NE(inflection, 0u) << "adaptive never overtakes parallel";
  EXPECT_GE(inflection, 1u << 12);
  EXPECT_LE(inflection, 1u << 14);
}

TEST(Calibration, Test2InflectionNearRoiTen) {
  // Paper: "the inflection point comes when side of ROI meets 10".
  const CostModel model;
  int inflection = 0;
  for (int side : starsim::test2_roi_sides()) {
    if (model.predict(paper_scene(side), starsim::kTest2StarCount)
            .best_gpu == SimulatorKind::kAdaptive) {
      inflection = side;
      break;
    }
  }
  ASSERT_NE(inflection, 0) << "adaptive never overtakes parallel";
  EXPECT_GE(inflection, 6);
  EXPECT_LE(inflection, 12);
}

TEST(Calibration, InflectionsAgreeOnThreadCount) {
  // The paper's consistency observation: both inflections occur at the
  // same total work (8192 stars x 100-pixel ROIs), "or else, there must be
  // mistakes in either simulator".
  const CostModel model;
  const Prediction at_cross =
      model.predict(paper_scene(10), starsim::kTest2StarCount);
  const double gap = at_cross.parallel.application_s() -
                     at_cross.adaptive.application_s();
  // Within 25% of the adaptive fixed cost of the crossing point.
  EXPECT_LT(std::abs(gap), 0.25 * 0.92e-3 + 0.4e-3);
}

TEST(Calibration, TableTwoGflopsBand) {
  // Table II: parallel 95.07 GFLOPS, adaptive 93.8, on a 168 GFLOPS fp64
  // peak. Parallel must land within ~20% of 95 and stay the higher of the
  // two (our adaptive kernel is leaner than the paper's, DESIGN.md).
  const CostModel model;
  const Prediction p = model.predict(paper_scene(), 1u << 17);
  EXPECT_GT(p.parallel.achieved_gflops, 75.0);
  EXPECT_LT(p.parallel.achieved_gflops, 115.0);
  EXPECT_GT(p.parallel.achieved_gflops, p.adaptive.achieved_gflops);
}

TEST(Calibration, SpeedupsSpanOneToTwoOrdersOfMagnitude) {
  // Abstract: "one to two orders of magnitude speedups with a maximum of
  // 270x ... the average speedup is around 97 times".
  const CostModel model;
  std::vector<double> speedups;
  double max_speedup = 0.0;
  for (std::size_t n : starsim::test1_star_counts()) {
    const Prediction p = model.predict(paper_scene(), n);
    const double s = p.sequential_s / p.parallel.application_s();
    speedups.push_back(s);
    max_speedup = std::max(max_speedup, s);
  }
  EXPECT_GT(max_speedup, 100.0);
  EXPECT_LT(max_speedup, 500.0);
  // The large-workload half of the sweep averages around the paper's 97x.
  const std::vector<double> upper(speedups.end() - 6, speedups.end());
  const double avg = starsim::support::mean(upper);
  EXPECT_GT(avg, 50.0);
  EXPECT_LT(avg, 300.0);
}

TEST(Calibration, AdaptiveAdvantageBeyondInflection) {
  // "The adaptive simulator achieved up to 1.8x compared with the parallel
  // one over the inflection point" — our texture path is cheaper than
  // Fermi's, so accept 1.2x..4x (documented deviation).
  const CostModel model;
  const Prediction p = model.predict(paper_scene(), 1u << 17);
  const double ratio =
      p.parallel.application_s() / p.adaptive.application_s();
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 4.0);
}

TEST(Calibration, TableOneTransmissionTrend) {
  // Table I: transmission 2.43 ms at 2^5 stars rising to 3.01 ms at 2^17
  // (the star array adds 2 MiB).
  const CostModel model;
  const Prediction small = model.predict(paper_scene(), 1u << 5);
  const Prediction large = model.predict(paper_scene(), 1u << 17);
  const double transfer_small = small.adaptive.h2d_s + small.adaptive.d2h_s;
  const double transfer_large = large.adaptive.h2d_s + large.adaptive.d2h_s;
  EXPECT_NEAR(transfer_small, 2.43e-3, 0.5e-3);
  EXPECT_NEAR(transfer_large, 3.01e-3, 0.6e-3);
  EXPECT_GT(transfer_large, transfer_small);
}

TEST(Calibration, TableOneLutBuildAndBindConstants) {
  const CostModel model;
  for (std::size_t n : {32u, 8192u, 131072u}) {
    const Prediction p = model.predict(paper_scene(), n);
    // Build 0.70-0.72 ms and binding 0.20-0.22 ms across the whole sweep.
    EXPECT_NEAR(p.adaptive.lut_build_s, 0.71e-3, 0.15e-3);
    EXPECT_NEAR(p.adaptive.texture_bind_s, 0.21e-3, 0.02e-3);
  }
}

TEST(Calibration, KernelTimeSmallBelowTwoToThe13) {
  // Fig. 11: "when the number of stars is less than 2^13, the kernel
  // execution time of simulators increases little ... and the non-kernel
  // overhead takes up most part of application time".
  const CostModel model;
  for (std::size_t n : {32u, 256u, 2048u}) {
    const Prediction p = model.predict(paper_scene(), n);
    EXPECT_LT(p.parallel.kernel_s, p.parallel.non_kernel_s());
    EXPECT_LT(p.adaptive.kernel_s, p.adaptive.non_kernel_s());
  }
  // And beyond the inflection the kernel dominates the parallel simulator.
  const Prediction big = model.predict(paper_scene(), 1u << 17);
  EXPECT_GT(big.parallel.kernel_s, big.parallel.non_kernel_s());
}

TEST(Calibration, NonKernelShareFallsWithRoi) {
  // Fig. 16: the non-kernel percentage drops as ROI grows, faster for the
  // parallel simulator.
  const CostModel model;
  double prev_parallel = 1.1;
  for (int side : {4, 8, 16, 32}) {
    const Prediction p =
        model.predict(paper_scene(side), starsim::kTest2StarCount);
    const double share = p.parallel.non_kernel_fraction();
    EXPECT_LT(share, prev_parallel);
    prev_parallel = share;
  }
  const Prediction at32 =
      model.predict(paper_scene(32), starsim::kTest2StarCount);
  EXPECT_LT(at32.parallel.non_kernel_fraction(),
            at32.adaptive.non_kernel_fraction());
}

TEST(Calibration, SequentialCompetitiveOnlyForTinyFields) {
  // Section IV-D bounds the sequential simulator's niche at ~2^7 stars;
  // accept anywhere below 2^11 on our host model, but it must exist and it
  // must end.
  const CostModel model;
  EXPECT_EQ(model.predict(paper_scene(), 16).best, SimulatorKind::kSequential);
  EXPECT_NE(model.predict(paper_scene(), 1u << 11).best,
            SimulatorKind::kSequential);
}

TEST(Calibration, SequentialScalesLinearlyGpuFlatlines) {
  // Fig. 9's qualitative shape: sequential time is linear in stars; the
  // GPU application time is nearly flat below the saturation knee.
  const CostModel model;
  std::vector<double> stars;
  std::vector<double> seq_times;
  for (std::size_t n : starsim::test1_star_counts()) {
    const Prediction p = model.predict(paper_scene(), n);
    stars.push_back(static_cast<double>(n));
    seq_times.push_back(p.sequential_s);
  }
  const auto fit = starsim::support::fit_line(stars, seq_times);
  EXPECT_GT(fit.r_squared, 0.999999);  // exactly linear by construction
  const Prediction low = model.predict(paper_scene(), 1u << 5);
  const Prediction mid = model.predict(paper_scene(), 1u << 10);
  // 32x the stars, far less than 4x the application time.
  EXPECT_LT(mid.parallel.application_s(),
            low.parallel.application_s() * 4.0);
}

}  // namespace
