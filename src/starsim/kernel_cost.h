// Shared arithmetic-cost constants for the intensity-model inner loop.
//
// The sequential simulator, both GPU kernels, and the analytic work
// predictor (sched/cost.h) must count identical flop-equivalents for
// identical work — that is what makes modeled CPU/GPU times comparable and lets the
// predictor reproduce measured counters exactly. Any change to a kernel's
// arithmetic must be mirrored here and in every implementation (the
// predictor-vs-counters tests enforce this).
#pragma once

#include <cstdint>

namespace starsim::kernel_cost {

/// Computing a ROI pixel's image coordinates from the star position and the
/// thread/loop indices (2 rounds + 2 adds, per axis folded).
inline constexpr std::uint64_t kCoordFlops = 4;

/// The image-bounds test on a pixel coordinate pair.
inline constexpr std::uint64_t kBoundsFlops = 2;

/// Scaling the PSF rate by brightness and accumulating into the pixel.
inline constexpr std::uint64_t kAccumFlops = 2;

/// Folding the per-star weight into the brightness (both simulator paths).
inline constexpr std::uint64_t kWeightFlops = 1;

/// Adaptive kernel only: magnitude-bin, subpixel-phase and table-row index
/// arithmetic for one lookup-table fetch.
inline constexpr std::uint64_t kLutIndexFlops = 10;

}  // namespace starsim::kernel_cost
