// The correctness gate every delivered frame passes through.
//
// A frame is checked against the single-threaded SequentialSimulator on the
// same stars and scene, with tier-1's bound:
// max_abs_difference / image_scale < 1e-4. An adaptive frame is compared
// with a reference rendered from the stars the lookup table can represent —
// magnitudes at bin centers, positions at subpixel phase centers — through
// the table's own public mapping, at the table setting that frame used.
// That is the regime in which tier-1's AdaptiveEquivalenceTest holds the
// adaptive simulator to the same bound.
#pragma once

#include <span>

#include "imageio/image.h"
#include "starsim/lookup_table.h"
#include "starsim/scene.h"
#include "starsim/sequential_simulator.h"
#include "starsim/simulator.h"
#include "starsim/star.h"

namespace starbench {

/// tier-1's bound on max_abs_difference / image_scale.
inline constexpr double kGateBound = 1e-4;

/// The stars an adaptive frame rendered with `table`.
[[nodiscard]] starsim::StarField quantize_to_table(
    std::span<const starsim::Star> stars, const starsim::LookupTable& table);

/// max |reference - frame| / peak(reference) < kGateBound; false when the
/// sizes differ.
[[nodiscard]] bool passes_gate(const starsim::imageio::ImageF& reference,
                               const starsim::imageio::ImageF& frame);

/// Test hook: a copy of `frame` with one pixel raised by 1% of its peak,
/// far outside the gate.
[[nodiscard]] starsim::imageio::ImageF perturbed(
    const starsim::imageio::ImageF& frame);

/// Reference renders for one client thread.
class Checker {
 public:
  /// True when `frame`, rendered by `kind` from `stars`, passes the gate.
  /// Adaptive frames need `table`, built at the setting the frame used; an
  /// adaptive frame without one fails, its producing configuration unknown.
  [[nodiscard]] bool check(const starsim::SceneConfig& scene,
                           std::span<const starsim::Star> stars,
                           starsim::SimulatorKind kind,
                           const starsim::LookupTable* table,
                           const starsim::imageio::ImageF& frame);

 private:
  [[nodiscard]] starsim::imageio::ImageF reference(
      const starsim::SceneConfig& scene, std::span<const starsim::Star> stars,
      starsim::SimulatorKind kind, const starsim::LookupTable* table);

  starsim::SequentialSimulator sequential_;
};

}  // namespace starbench
