#include "starsim/lookup_table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "starsim/psf.h"
#include "support/error.h"

namespace {

using starsim::GaussianPsf;
using starsim::LookupTable;
using starsim::LookupTableOptions;
using starsim::SceneConfig;

SceneConfig scene_with(int roi_side, double sigma = 1.7) {
  SceneConfig scene;
  scene.roi_side = roi_side;
  scene.psf_sigma = sigma;
  return scene;
}

TEST(LookupTable, DefaultGeometryMatchesPaper) {
  // Magnitudes 0..15 at one bin per magnitude, ROI 10: 16 x 10 x 10 entries
  // (the Fig. 8 table; Table I prices its build at 0.71 ms).
  const LookupTable table = LookupTable::build(scene_with(10));
  EXPECT_EQ(table.magnitude_bins(), 15);  // ceil(15 * 1)
  EXPECT_EQ(table.roi_side(), 10);
  EXPECT_EQ(table.phases(), 1);
  EXPECT_EQ(table.width(), 10);
  EXPECT_EQ(table.height(), 150);
  EXPECT_EQ(table.entries(), 1500u);
  EXPECT_EQ(table.bytes(), 6000u);
}

TEST(LookupTable, FinerBinsMultiplyRows) {
  LookupTableOptions options;
  options.bins_per_magnitude = 4;
  const LookupTable table = LookupTable::build(scene_with(10), options);
  EXPECT_EQ(table.magnitude_bins(), 60);
  EXPECT_EQ(table.height(), 600);
}

TEST(LookupTable, SubpixelPhasesMultiplyRows) {
  LookupTableOptions options;
  options.subpixel_phases = 4;
  const LookupTable table = LookupTable::build(scene_with(6), options);
  EXPECT_EQ(table.phases(), 4);
  EXPECT_EQ(table.height(), 15 * 16 * 6);
}

TEST(LookupTable, ValuesAreBrightnessTimesPsf) {
  const SceneConfig scene = scene_with(10);
  const LookupTable table = LookupTable::build(scene);
  const GaussianPsf psf(scene.psf_sigma);
  const int margin = table.margin();
  for (int bin : {0, 3, 14}) {
    const double brightness =
        scene.brightness.brightness(table.bin_magnitude(bin));
    for (int row = 0; row < 10; ++row) {
      for (int col = 0; col < 10; ++col) {
        const double expected =
            brightness * psf.intensity_rate(col - margin, row - margin);
        ASSERT_NEAR(table.at(bin, 0, 0, row, col), expected,
                    std::abs(expected) * 1e-6 + 1e-12);
      }
    }
  }
}

TEST(LookupTable, PeakOfEachBinAtRoiCenter) {
  const LookupTable table = LookupTable::build(scene_with(9));
  const int center = table.margin();
  for (int bin = 0; bin < table.magnitude_bins(); ++bin) {
    const float peak = table.at(bin, 0, 0, center, center);
    for (int row = 0; row < 9; ++row) {
      for (int col = 0; col < 9; ++col) {
        ASSERT_LE(table.at(bin, 0, 0, row, col), peak);
      }
    }
  }
}

TEST(LookupTable, BrighterBinsHaveLargerValues) {
  const LookupTable table = LookupTable::build(scene_with(10));
  const int c = table.margin();
  for (int bin = 1; bin < table.magnitude_bins(); ++bin) {
    ASSERT_GT(table.at(bin - 1, 0, 0, c, c), table.at(bin, 0, 0, c, c));
  }
}

TEST(LookupTable, MagnitudeBinMappingAndClamping) {
  const LookupTable table = LookupTable::build(scene_with(10));
  EXPECT_EQ(table.magnitude_bin(0.0), 0);
  EXPECT_EQ(table.magnitude_bin(0.99), 0);
  EXPECT_EQ(table.magnitude_bin(1.0), 1);
  EXPECT_EQ(table.magnitude_bin(14.99), 14);
  EXPECT_EQ(table.magnitude_bin(-5.0), 0);    // clamped
  EXPECT_EQ(table.magnitude_bin(99.0), 14);   // clamped
}

TEST(LookupTable, BinMagnitudeIsBinCenter) {
  const LookupTable table = LookupTable::build(scene_with(10));
  EXPECT_DOUBLE_EQ(table.bin_magnitude(0), 0.5);
  EXPECT_DOUBLE_EQ(table.bin_magnitude(7), 7.5);
  EXPECT_THROW((void)table.bin_magnitude(15),
               starsim::support::PreconditionError);
}

TEST(LookupTable, PhaseOfSinglePhaseIsZero) {
  const LookupTable table = LookupTable::build(scene_with(10));
  EXPECT_EQ(table.phase_of(100.0f), 0);
  EXPECT_EQ(table.phase_of(100.49f), 0);
}

TEST(LookupTable, PhaseOfQuartersPixel) {
  LookupTableOptions options;
  options.subpixel_phases = 4;
  const LookupTable table = LookupTable::build(scene_with(6), options);
  // frac in [-0.5,-0.25) -> 0, [-0.25,0) -> 1, [0,0.25) -> 2, [0.25,0.5) -> 3
  EXPECT_EQ(table.phase_of(100.0f), 2);
  EXPECT_EQ(table.phase_of(100.3f), 3);
  EXPECT_EQ(table.phase_of(100.6f), 0);   // rounds to 101, frac -0.4
  EXPECT_EQ(table.phase_of(100.85f), 1);  // rounds to 101, frac -0.15
}

TEST(LookupTable, PhaseCentersTileThePixel) {
  LookupTableOptions options;
  options.subpixel_phases = 4;
  const LookupTable table = LookupTable::build(scene_with(6), options);
  EXPECT_DOUBLE_EQ(table.phase_center(0), -0.375);
  EXPECT_DOUBLE_EQ(table.phase_center(1), -0.125);
  EXPECT_DOUBLE_EQ(table.phase_center(2), 0.125);
  EXPECT_DOUBLE_EQ(table.phase_center(3), 0.375);
}

TEST(LookupTable, RowBaseLayoutIsDense) {
  LookupTableOptions options;
  options.subpixel_phases = 2;
  const LookupTable table = LookupTable::build(scene_with(6), options);
  // Rows advance by roi_side per (bin, phase_y, phase_x) tuple, phase_x
  // fastest.
  EXPECT_EQ(table.row_base(0, 0, 0), 0);
  EXPECT_EQ(table.row_base(0, 1, 0), 6);
  EXPECT_EQ(table.row_base(0, 0, 1), 12);
  EXPECT_EQ(table.row_base(0, 1, 1), 18);
  EXPECT_EQ(table.row_base(1, 0, 0), 24);
}

TEST(LookupTable, SubpixelEntriesShiftThePeak) {
  LookupTableOptions options;
  options.subpixel_phases = 4;
  const SceneConfig scene = scene_with(7, 1.0);
  const LookupTable table = LookupTable::build(scene, options);
  // Phase 3 centers the star at +0.375 px: the value right of center must
  // exceed the value left of center.
  const int c = table.margin();
  EXPECT_GT(table.at(0, 3, 2, c, c + 1), table.at(0, 3, 2, c, c - 1));
  // Phase 0 (-0.375 px): the opposite.
  EXPECT_LT(table.at(0, 0, 2, c, c + 1), table.at(0, 0, 2, c, c - 1));
}

// Every entry equals the per-entry formula float(brightness(bin) * rate),
// bit for bit, over ROI sizes, PSF widths, both detector responses and the
// paper's, the fine-survey and a multi-phase table geometry.
TEST(LookupTable, EveryEntryMatchesDirectFormulaBitForBit) {
  const LookupTableOptions geometries[] = {{1, 1}, {100, 2}, {4, 3}};
  for (const int roi : {3, 8, 17, 32}) {
    for (const double sigma : {0.3, 1.1, 2.4}) {
      for (const bool integrate : {false, true}) {
        for (const LookupTableOptions& options : geometries) {
          SceneConfig scene = scene_with(roi, sigma);
          scene.pixel_integration = integrate;
          const LookupTable table = LookupTable::build(scene, options);
          const GaussianPsf psf(sigma);
          const int margin = table.margin();
          const int phases = table.phases();
          std::uint64_t checked = 0;
          for (int bin = 0; bin < table.magnitude_bins(); ++bin) {
            const double brightness =
                scene.brightness.brightness(table.bin_magnitude(bin));
            for (int py = 0; py < phases; ++py) {
              for (int px = 0; px < phases; ++px) {
                for (int row = 0; row < roi; ++row) {
                  const double dy = (row - margin) - table.phase_center(py);
                  for (int col = 0; col < roi; ++col) {
                    const double dx =
                        (col - margin) - table.phase_center(px);
                    const double rate = integrate
                                            ? psf.integrated_rate(dx, dy)
                                            : psf.intensity_rate(dx, dy);
                    const auto expected =
                        std::bit_cast<std::uint32_t>(
                            static_cast<float>(brightness * rate));
                    const auto actual = std::bit_cast<std::uint32_t>(
                        table.at(bin, px, py, row, col));
                    ASSERT_EQ(actual, expected)
                        << "roi " << roi << " sigma " << sigma
                        << " integrate " << integrate << " bins/mag "
                        << options.bins_per_magnitude << " phases "
                        << phases << " at bin " << bin << " phase (" << px
                        << ", " << py << ") offset (" << col << ", " << row
                        << ")";
                    ++checked;
                  }
                }
              }
            }
          }
          ASSERT_EQ(checked, table.entries());
        }
      }
    }
  }
}

TEST(LookupTable, RejectsBadOptions) {
  LookupTableOptions options;
  options.bins_per_magnitude = 0;
  EXPECT_THROW((void)LookupTable::build(scene_with(10), options),
               starsim::support::PreconditionError);
  options.bins_per_magnitude = 1;
  options.subpixel_phases = 0;
  EXPECT_THROW((void)LookupTable::build(scene_with(10), options),
               starsim::support::PreconditionError);
}

TEST(LookupTable, AccessorValidatesRange) {
  const LookupTable table = LookupTable::build(scene_with(10));
  EXPECT_THROW((void)table.at(0, 0, 0, 10, 0),
               starsim::support::PreconditionError);
  EXPECT_THROW((void)table.at(99, 0, 0, 0, 0),
               starsim::support::PreconditionError);
  EXPECT_THROW((void)table.row_base(0, 1, 0),
               starsim::support::PreconditionError);
}

}  // namespace
