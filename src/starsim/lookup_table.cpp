#include "starsim/lookup_table.h"

#include <algorithm>
#include <cmath>

#include "starsim/psf.h"
#include "support/error.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace starsim {

int LookupTable::magnitude_bins_for(const SceneConfig& scene,
                                    const LookupTableOptions& options) {
  STARSIM_REQUIRE(options.bins_per_magnitude > 0,
                  "bins_per_magnitude must be positive");
  const double span = scene.magnitude_max - scene.magnitude_min;
  return std::max(
      1, static_cast<int>(std::ceil(span * options.bins_per_magnitude)));
}

LookupTable LookupTable::build(const SceneConfig& scene,
                               const LookupTableOptions& options) {
  scene.validate();
  const int magnitude_bins = magnitude_bins_for(scene, options);
  STARSIM_REQUIRE(options.subpixel_phases > 0,
                  "subpixel_phases must be positive");

  trace::TraceSpan trace_span("starsim", "lut_build");
  const support::WallTimer wall;
  LookupTable table;
  table.roi_side_ = scene.roi_side;
  table.phases_ = options.subpixel_phases;
  table.magnitude_min_ = scene.magnitude_min;
  table.bin_width_ = 1.0 / options.bins_per_magnitude;
  table.magnitude_bins_ = magnitude_bins;

  const GaussianPsf psf(scene.psf_sigma);
  const int side = table.roi_side_;
  const int margin = table.margin();
  const int phases = table.phases_;

  // The PSF depends only on the (phase, ROI offset) pair, so evaluate it
  // once per pair, in the table's row order within a bin.
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(phases * phases * side * side));
  for (int phase_y = 0; phase_y < phases; ++phase_y) {
    const double off_y = table.phase_center(phase_y);
    for (int phase_x = 0; phase_x < phases; ++phase_x) {
      const double off_x = table.phase_center(phase_x);
      for (int row = 0; row < side; ++row) {
        const double dy = static_cast<double>(row - margin) - off_y;
        for (int col = 0; col < side; ++col) {
          const double dx = static_cast<double>(col - margin) - off_x;
          rates.push_back(scene.pixel_integration
                              ? psf.integrated_rate(dx, dy)
                              : psf.intensity_rate(dx, dy));
        }
      }
    }
  }

  // Each bin's block is that matrix scaled by the bin's brightness: the
  // same double product a per-entry evaluation rounds, so the same bits.
  table.values_.resize(table.entries());
  float* dst = table.values_.data();
  for (int bin = 0; bin < table.magnitude_bins_; ++bin) {
    const double brightness =
        scene.brightness.brightness(table.bin_magnitude(bin));
    for (const double rate : rates) {
      *dst++ = static_cast<float>(brightness * rate);
    }
  }

  if (trace_span.armed()) [[unlikely]] {
    trace_span.arg("entries", table.entries())
        .arg("magnitude_bins", table.magnitude_bins_)
        .arg("phases", table.phases_)
        .arg("build_wall_s", wall.seconds());
  }
  return table;
}

int LookupTable::magnitude_bin(double magnitude) const {
  const int bin =
      static_cast<int>(std::floor((magnitude - magnitude_min_) / bin_width_));
  return std::clamp(bin, 0, magnitude_bins_ - 1);
}

double LookupTable::bin_magnitude(int bin) const {
  STARSIM_REQUIRE(bin >= 0 && bin < magnitude_bins_,
                  "magnitude bin out of range");
  return magnitude_min_ + (bin + 0.5) * bin_width_;
}

int LookupTable::phase_of(float coord) const {
  if (phases_ == 1) return 0;
  const double rounded = static_cast<double>(std::lround(coord));
  const double frac = static_cast<double>(coord) - rounded;  // [-0.5, 0.5)
  const int phase = static_cast<int>(
      std::floor((frac + 0.5) * static_cast<double>(phases_)));
  return std::clamp(phase, 0, phases_ - 1);
}

double LookupTable::phase_center(int phase) const {
  STARSIM_REQUIRE(phase >= 0 && phase < phases_, "phase out of range");
  return (phase + 0.5) / static_cast<double>(phases_) - 0.5;
}

int LookupTable::row_base(int bin, int phase_x, int phase_y) const {
  STARSIM_REQUIRE(bin >= 0 && bin < magnitude_bins_, "bin out of range");
  STARSIM_REQUIRE(phase_x >= 0 && phase_x < phases_ && phase_y >= 0 &&
                      phase_y < phases_,
                  "phase out of range");
  return ((bin * phases_ + phase_y) * phases_ + phase_x) * roi_side_;
}

float LookupTable::at(int bin, int phase_x, int phase_y, int roi_row,
                      int roi_col) const {
  STARSIM_REQUIRE(roi_row >= 0 && roi_row < roi_side_ && roi_col >= 0 &&
                      roi_col < roi_side_,
                  "ROI offset out of range");
  const int row = row_base(bin, phase_x, phase_y) + roi_row;
  return values_[static_cast<std::size_t>(row) *
                     static_cast<std::size_t>(roi_side_) +
                 static_cast<std::size_t>(roi_col)];
}

}  // namespace starsim
