// Schedule — the auto-scheduler's decision vector.
//
// The paper fixes its execution strategy per experiment: star-centric
// blocks of roi_side^2 threads, one simulator chosen at Table III's
// inflection points, the default lookup-table resolution. Following the
// algorithm/schedule split of Halide and the search-based tuning of
// OpenTuner, starsim::sched turns all of those into one searchable value:
// which simulator runs, how its launch is shaped (ROI tiling for the
// star-centric kernel), how finely the adaptive path's lookup table is
// sampled, how many CPU threads the OpenMP path uses, and how many frames
// a batch is expected to amortize per-scene setup over. Every field maps
// onto machinery that already exists (ParallelOptions, LookupTableOptions,
// OpenMpSimulator, AdaptiveSimulator::simulate_batch) — a Schedule never
// changes *what* is rendered, only how the work is decomposed.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/device_spec.h"
#include "gpusim/dim.h"
#include "starsim/lookup_table.h"
#include "starsim/scene.h"
#include "starsim/simulator.h"

namespace starsim::sched {

struct Schedule {
  SimulatorKind simulator = SimulatorKind::kParallel;
  /// Star-centric tiling: 0 runs the paper's untiled kernel (one block per
  /// star, roi_side^2 threads); t > 0 runs one block per (star, tile) with
  /// t^2 threads. The schedule space only proposes exact divisors of the
  /// ROI side, so tiled launches have no partial tiles and the cost model's
  /// counter predictions stay exact.
  int tile_side = 0;
  /// Launch geometry implied by the workload this schedule was tuned for
  /// (GPU simulators only; zero-sized for CPU schedules).
  gpusim::LaunchConfig launch;
  /// Lookup-table resolution (adaptive simulator only). The tuner treats
  /// the workload's requested resolution as an accuracy floor and searches
  /// upward from it, never below.
  LookupTableOptions lut{};
  /// OpenMP worker threads (cpu-parallel only; 0 = all modeled cores).
  int cpu_threads = 0;
  /// Frames the serving layer is expected to batch against one scene; the
  /// adaptive path's table build/upload/bind amortizes over this many.
  std::size_t batch_hint = 1;

  [[nodiscard]] bool tiled() const { return tile_side > 0; }
  /// Stable human-readable identity, e.g.
  /// "parallel tile=4 grid=256x4 block=4x4 batch=1". Equal strings mean
  /// equal schedules; the tuner dedups candidates on it and the cache file
  /// round-trips through the same fields.
  [[nodiscard]] std::string to_string() const;
};

/// The workload class a schedule is tuned (and cached) for. Star counts
/// are bucketed by floor(log2) — the paper's own sweeps step in powers of
/// two, and a tuned decision is stable well within a 2x band.
struct Workload {
  SceneConfig scene;
  std::size_t star_count = 0;
  std::size_t batch_hint = 1;

  [[nodiscard]] std::uint32_t star_bucket() const;
};

/// Cache key: star-count bucket x image size x ROI x PSF/brightness
/// parameters x LUT floor x batch hint x device-spec fingerprint. FNV-1a
/// over exact bit patterns, like serve's request fingerprints.
[[nodiscard]] std::uint64_t fingerprint_workload(
    const Workload& workload, const LookupTableOptions& lut_floor,
    const gpusim::DeviceSpec& device);

/// The paper's fixed schedule for `kind`: untiled star-centric launch,
/// floor lookup-table resolution, all CPU cores. The paper's Table III
/// policy is exactly a choice among these degenerate schedules.
[[nodiscard]] Schedule fixed_schedule(SimulatorKind kind,
                                      const SceneConfig& scene,
                                      std::size_t star_count,
                                      const LookupTableOptions& lut_floor = {},
                                      std::size_t batch_hint = 1);

}  // namespace starsim::sched
