// The adaptive simulator's precomputed intensity lookup table (Fig. 8).
//
// For a star simulator with a fixed magnitude range and a fixed ROI size,
// brightness(m) * psf(dx, dy) can be tabulated once: a 3-D table over
// (magnitude bin, ROI row, ROI column), flattened into a 2-D float texture
// of width `roi_side` whose rows stack the per-bin ROI matrices — the
// layout that gives texture fetches their 2-D locality.
//
// Two knobs extend the paper's fixed geometry for the ablation studies:
//   bins_per_magnitude — magnitude quantization (paper: 1, i.e. one bin per
//     integer magnitude over [magnitude_min, magnitude_max));
//   subpixel_phases — star positions quantized to P x P subpixel phases per
//     pixel instead of pixel centers (paper: 1). Each phase gets its own
//     ROI matrix, multiplying table rows by P^2.
//
// The build is factored: the PSF is evaluated once per (phase, ROI offset)
// into a P^2 x roi_side^2 double rate matrix, and each bin's block is that
// matrix times brightness(bin), rounded to float. Only the scale depends on
// the bin, so a table of B bins costs P^2 * roi_side^2 PSF evaluations (exp,
// or four erf with pixel integration) plus B * P^2 * roi_side^2 multiplies,
// and every entry is the same double product a per-entry build rounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "starsim/scene.h"

namespace starsim {

struct LookupTableOptions {
  int bins_per_magnitude = 1;
  int subpixel_phases = 1;
};

class LookupTable {
 public:
  /// Build the table on the CPU ("we run it on CPU platform instead of GPU
  /// kernel, due to the small execution overhead and little data
  /// parallelism" — Section IV-D).
  static LookupTable build(const SceneConfig& scene,
                           const LookupTableOptions& options = {});

  /// Magnitude bins build(scene, options) would produce, without building.
  [[nodiscard]] static int magnitude_bins_for(
      const SceneConfig& scene, const LookupTableOptions& options);

  [[nodiscard]] int roi_side() const { return roi_side_; }
  [[nodiscard]] int margin() const { return roi_side_ / 2; }
  [[nodiscard]] int magnitude_bins() const { return magnitude_bins_; }
  [[nodiscard]] int phases() const { return phases_; }

  /// Texture layout: width x height floats, row-major.
  [[nodiscard]] int width() const { return roi_side_; }
  [[nodiscard]] int height() const {
    return magnitude_bins_ * phases_ * phases_ * roi_side_;
  }
  [[nodiscard]] std::uint64_t entries() const {
    return static_cast<std::uint64_t>(width()) *
           static_cast<std::uint64_t>(height());
  }
  [[nodiscard]] std::size_t bytes() const { return entries() * sizeof(float); }

  [[nodiscard]] std::span<const float> values() const { return values_; }

  /// Magnitude bin of `magnitude`, clamped into range.
  [[nodiscard]] int magnitude_bin(double magnitude) const;
  /// Magnitude at the center of `bin` (the value the table evaluated).
  [[nodiscard]] double bin_magnitude(int bin) const;

  /// Subpixel phase index of a star coordinate (0 when phases == 1).
  [[nodiscard]] int phase_of(float coord) const;
  /// Offset (in pixels, in (-0.5, 0.5)) the table assumed for `phase`.
  [[nodiscard]] double phase_center(int phase) const;

  /// Texture row of ROI row 0 for (bin, phase_x, phase_y).
  [[nodiscard]] int row_base(int bin, int phase_x, int phase_y) const;

  /// Table value (host-side accessor for tests and the build itself).
  [[nodiscard]] float at(int bin, int phase_x, int phase_y, int roi_row,
                         int roi_col) const;

 private:
  LookupTable() = default;

  int roi_side_ = 0;
  int magnitude_bins_ = 0;
  int phases_ = 1;
  double magnitude_min_ = 0.0;
  double bin_width_ = 1.0;
  std::vector<float> values_;
};

}  // namespace starsim
