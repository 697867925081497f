// ScheduleSpace — the legal candidate schedules for one workload.
//
// The space is small by design: every axis is grounded in a decision the
// codebase can actually execute. Simulator kind (the paper's decomposition
// axis), ROI tiling of the star-centric kernel (exact divisors only, so
// counter predictions stay exact), lookup-table resolution (searched
// *upward* from the workload's accuracy floor — coarser tables would change
// rendered output), and OpenMP thread count. Legality comes from the same
// DeviceSpec constraints the functional engine enforces at launch:
// block-dim and threads-per-block limits, grid extents, a nonzero
// occupancy, and the adaptive simulator's texture-height and memory caps.
#pragma once

#include <vector>

#include "gpusim/device_spec.h"
#include "gpusim/host_spec.h"
#include "sched/schedule.h"

namespace starsim::sched {

struct SpaceOptions {
  /// Lookup-table search ceiling: bins_per_magnitude up to
  /// floor * lut_bins_scale_cap, subpixel_phases up to lut_phases_cap
  /// (never below the floor on either axis).
  int lut_bins_scale_cap = 8;
  int lut_phases_cap = 4;
};

class ScheduleSpace {
 public:
  explicit ScheduleSpace(gpusim::DeviceSpec device = gpusim::DeviceSpec::gtx480(),
                         gpusim::HostSpec host = gpusim::HostSpec::i7_860(),
                         SpaceOptions options = {});

  /// One seed per simulator family the tuner's beam starts from. Always
  /// contains the paper's fixed schedules (untiled parallel, floor-LUT
  /// adaptive when legal, sequential, all-cores CPU-parallel) — which is
  /// what guarantees the tuner never returns anything worse than the
  /// paper's Table III policy.
  [[nodiscard]] std::vector<Schedule> seeds(
      const SceneConfig& scene, std::size_t star_count,
      const LookupTableOptions& lut_floor, std::size_t batch_hint) const;

  /// One-step mutations of `schedule` (adjacent tile side, halved/doubled
  /// thread count, refined LUT), already filtered through legal().
  [[nodiscard]] std::vector<Schedule> neighbors(
      const Schedule& schedule, const SceneConfig& scene,
      std::size_t star_count, const LookupTableOptions& lut_floor) const;

  /// Whether the device could actually launch (or the host run) `schedule`.
  [[nodiscard]] bool legal(const Schedule& schedule, const SceneConfig& scene,
                           std::size_t star_count) const;

  /// Tile sides the star-centric kernel can use on this scene: exact
  /// divisors t of roi_side with 2 <= t < roi_side (t == roi_side is the
  /// untiled kernel; partial tiles are never proposed).
  [[nodiscard]] std::vector<int> tile_candidates(const SceneConfig& scene) const;

  [[nodiscard]] const gpusim::DeviceSpec& device() const { return device_; }
  [[nodiscard]] const gpusim::HostSpec& host() const { return host_; }
  [[nodiscard]] const SpaceOptions& options() const { return options_; }

 private:
  [[nodiscard]] Schedule make_parallel(const SceneConfig& scene,
                                       std::size_t star_count, int tile_side,
                                       const LookupTableOptions& lut_floor,
                                       std::size_t batch_hint) const;

  gpusim::DeviceSpec device_;
  gpusim::HostSpec host_;
  SpaceOptions options_;
};

}  // namespace starsim::sched
