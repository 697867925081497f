#include "sched/cost.h"

#include <algorithm>
#include <cmath>

#include "gpusim/perf_model.h"
#include "starsim/device_frame.h"
#include "starsim/kernel_cost.h"
#include "starsim/magnitude.h"
#include "starsim/psf.h"
#include "starsim/star.h"
#include "support/error.h"

namespace starsim::sched {

namespace {

namespace kc = kernel_cost;

/// Flop-equivalents of one PSF evaluation under the scene's pixel model
/// (the same constants the sequential loop and both kernels meter).
std::uint64_t psf_eval_flops(const gpusim::DeviceSpec& device,
                             const SceneConfig& scene) {
  if (scene.pixel_integration) {
    return kIntegratedRateArithmeticFlops +
           4 * static_cast<std::uint64_t>(device.erf_flop_equiv);
  }
  return kGaussRateArithmeticFlops +
         static_cast<std::uint64_t>(device.exp_flop_equiv);
}

std::uint64_t image_bytes_of(const SceneConfig& scene) {
  return static_cast<std::uint64_t>(scene.image_width) *
         static_cast<std::uint64_t>(scene.image_height) * sizeof(float);
}

/// Entries of the adaptive simulator's lookup table (bins x phases^2 x
/// ROI area); four bytes each.
std::uint64_t lut_entries_of(const SceneConfig& scene,
                             const LookupTableOptions& lut) {
  const double span = scene.magnitude_max - scene.magnitude_min;
  const int bins = std::max(
      1, static_cast<int>(std::ceil(span * lut.bins_per_magnitude)));
  return static_cast<std::uint64_t>(bins) *
         static_cast<std::uint64_t>(lut.subpixel_phases) *
         static_cast<std::uint64_t>(lut.subpixel_phases) *
         static_cast<std::uint64_t>(scene.roi_side) *
         static_cast<std::uint64_t>(scene.roi_side);
}

/// Per-frame PCIe traffic of a GPU frame: stars and blank image up, image
/// down.
double frame_transfer_s(const gpusim::DeviceSpec& device,
                        const SceneConfig& scene, std::size_t star_count) {
  const double image_s =
      gpusim::estimate_transfer_time(device, image_bytes_of(scene));
  return gpusim::estimate_transfer_time(device, star_count * sizeof(Star)) +
         image_s + image_s;
}

/// Counters shared by the untiled star-centric kernels: launch geometry,
/// the star load and the per-thread atomic accumulation.
gpusim::KernelCounters star_centric_counters(const gpusim::DeviceSpec& device,
                                             const SceneConfig& scene,
                                             std::size_t star_count) {
  scene.validate();
  STARSIM_REQUIRE(star_count > 0, "prediction needs at least one star");
  const auto n = static_cast<std::uint64_t>(star_count);
  const auto side = static_cast<std::uint64_t>(scene.roi_side);
  const std::uint64_t tpb = side * side;
  const std::uint64_t wpb =
      (tpb + static_cast<std::uint64_t>(device.warp_size) - 1) /
      static_cast<std::uint64_t>(device.warp_size);
  const gpusim::LaunchConfig config =
      star_centric_config(star_count, scene.roi_side);

  gpusim::KernelCounters c;
  c.blocks_launched = config.total_blocks();
  c.threads_launched = c.blocks_launched * tpb;
  c.warps_launched = c.blocks_launched * wpb;

  // Thread (0,0) of each active block: star load + brightness staging.
  // The lone 16-byte load coalesces into one transaction; the staged
  // shared values are read warp-wide at the same address (broadcast), so
  // no bank conflicts arise.
  c.global_reads = n;
  c.global_bytes_read = n * sizeof(Star);
  c.global_transactions = n;
  c.shared_bank_conflicts = 0;

  // Every thread of each active block accumulates one pixel.
  const std::uint64_t threads = n * tpb;
  c.atomic_ops = threads;
  c.global_bytes_read += threads * sizeof(float);
  c.global_bytes_written += threads * sizeof(float);
  c.barriers = n * wpb;
  c.branch_sites_evaluated = n * wpb;
  return c;
}

/// Kernel time, utilization and throughput of a GPU column from its
/// predicted counters.
void price_kernel(const gpusim::DeviceSpec& device,
                  const gpusim::LaunchConfig& config,
                  TimingBreakdown& column) {
  const gpusim::KernelTiming timing =
      gpusim::estimate_kernel_time(device, config, column.counters);
  column.kernel_s = timing.kernel_s;
  column.utilization = timing.utilization;
  column.achieved_gflops = timing.achieved_gflops;
}

}  // namespace

CostModel::CostModel(gpusim::DeviceSpec device, gpusim::HostSpec host)
    : device_(std::move(device)), host_(host) {}

gpusim::KernelCounters CostModel::predict_parallel_counters(
    const SceneConfig& scene, std::size_t star_count) const {
  gpusim::KernelCounters c =
      star_centric_counters(device_, scene, star_count);
  const auto n = static_cast<std::uint64_t>(star_count);
  const std::uint64_t threads = c.atomic_ops;
  c.shared_writes = n * 3;
  c.flops += n * (BrightnessModel::kArithmeticFlops +
                  static_cast<std::uint64_t>(device_.pow_flop_equiv) +
                  kc::kWeightFlops);
  c.shared_reads = threads * 3;
  c.flops += threads * (kc::kCoordFlops + kc::kBoundsFlops);
  // Interior stars: every thread passes the bounds test.
  c.flops += threads * (psf_eval_flops(device_, scene) + kc::kAccumFlops);
  c.atomic_conflicts = 0;  // scattered stars (measured value may be small >0)
  c.divergent_warp_branches = 0;
  return c;
}

gpusim::KernelCounters CostModel::predict_adaptive_counters(
    const SceneConfig& scene, std::size_t star_count,
    const LookupTableOptions& lut) const {
  gpusim::KernelCounters c =
      star_centric_counters(device_, scene, star_count);
  const auto n = static_cast<std::uint64_t>(star_count);
  const std::uint64_t threads = c.atomic_ops;
  c.shared_writes = n * 4;
  c.shared_reads = threads * 4;
  c.flops += threads * (kc::kCoordFlops + kc::kBoundsFlops +
                        kc::kLutIndexFlops + kc::kAccumFlops);
  c.texture_fetches = threads;
  // Hit/miss estimate: the whole table is touched cold once per SM; capacity
  // misses appear only when the table outgrows the per-SM cache.
  const std::uint64_t lut_bytes = lut_entries_of(scene, lut) * sizeof(float);
  const auto line = static_cast<std::uint64_t>(device_.texture_cache_line_bytes);
  const std::uint64_t table_lines = (lut_bytes + line - 1) / line;
  const double sm_cache = static_cast<double>(device_.texture_cache_bytes_per_sm);
  const double reuse = std::min(
      1.0, sm_cache / static_cast<double>(std::max<std::uint64_t>(1, lut_bytes)));
  const std::uint64_t cold =
      std::min(c.texture_fetches,
               table_lines * static_cast<std::uint64_t>(device_.sm_count));
  const auto capacity_misses = static_cast<std::uint64_t>(
      (1.0 - reuse) * static_cast<double>(c.texture_fetches - cold));
  c.texture_misses = cold + capacity_misses;
  c.texture_hits = c.texture_fetches - c.texture_misses;
  return c;
}

std::uint64_t CostModel::predict_sequential_flops(
    const SceneConfig& scene, std::size_t star_count) const {
  scene.validate();
  const auto n = static_cast<std::uint64_t>(star_count);
  const auto area = static_cast<std::uint64_t>(scene.roi_side) *
                    static_cast<std::uint64_t>(scene.roi_side);
  const std::uint64_t per_star =
      BrightnessModel::kArithmeticFlops +
      static_cast<std::uint64_t>(device_.pow_flop_equiv) + kc::kWeightFlops;
  const std::uint64_t per_pixel = kc::kCoordFlops + kc::kBoundsFlops +
                                  psf_eval_flops(device_, scene) +
                                  kc::kAccumFlops;
  return n * (per_star + area * per_pixel);
}

Prediction CostModel::predict(const SceneConfig& scene,
                              std::size_t star_count,
                              const LookupTableOptions& lut) const {
  Prediction p;
  p.sequential_s = host_.scalar_time_s(
      static_cast<double>(predict_sequential_flops(scene, star_count)));

  const gpusim::LaunchConfig config =
      star_centric_config(star_count, scene.roi_side);
  const double star_s =
      gpusim::estimate_transfer_time(device_, star_count * sizeof(Star));
  const double image_s =
      gpusim::estimate_transfer_time(device_, image_bytes_of(scene));

  // Parallel: stars + blank image up, image down.
  p.parallel.counters = predict_parallel_counters(scene, star_count);
  price_kernel(device_, config, p.parallel);
  p.parallel.h2d_s = star_s + image_s;
  p.parallel.d2h_s = image_s;

  // Adaptive: additionally builds, uploads and binds the lookup table.
  p.adaptive.counters = predict_adaptive_counters(scene, star_count, lut);
  price_kernel(device_, config, p.adaptive);
  const std::uint64_t lut_entries = lut_entries_of(scene, lut);
  p.adaptive.h2d_s = star_s + image_s +
                     gpusim::estimate_transfer_time(
                         device_, lut_entries * sizeof(float));
  p.adaptive.d2h_s = image_s;
  p.adaptive.lut_build_s =
      host_.lut_build_time_s(static_cast<double>(lut_entries));
  p.adaptive.texture_bind_s = device_.texture_bind_s;

  p.best_gpu = p.adaptive.application_s() < p.parallel.application_s()
                   ? SimulatorKind::kAdaptive
                   : SimulatorKind::kParallel;
  const double best_gpu_s = std::min(p.parallel.application_s(),
                                     p.adaptive.application_s());
  p.best = p.sequential_s < best_gpu_s ? SimulatorKind::kSequential
                                       : p.best_gpu;
  return p;
}

gpusim::KernelCounters CostModel::predict_tiled_parallel_counters(
    const SceneConfig& scene, std::size_t star_count, int tile_side) const {
  scene.validate();
  STARSIM_REQUIRE(star_count > 0, "prediction needs at least one star");
  STARSIM_REQUIRE(tile_side > 0 && scene.roi_side % tile_side == 0,
                  "tile side must divide the ROI side exactly");
  const auto n = static_cast<std::uint64_t>(star_count);
  const auto side = static_cast<std::uint64_t>(scene.roi_side);
  const auto tile = static_cast<std::uint64_t>(tile_side);
  const std::uint64_t tiles_per_axis = side / tile;
  const std::uint64_t tiles = tiles_per_axis * tiles_per_axis;
  const std::uint64_t blocks = n * tiles;
  const std::uint64_t tpb = tile * tile;
  const std::uint64_t wpb =
      (tpb + static_cast<std::uint64_t>(device_.warp_size) - 1) /
      static_cast<std::uint64_t>(device_.warp_size);
  const gpusim::LaunchConfig config = star_centric_config(blocks, tile_side);

  gpusim::KernelCounters c;
  c.blocks_launched = config.total_blocks();
  c.threads_launched = c.blocks_launched * tpb;
  c.warps_launched = c.blocks_launched * wpb;

  // Thread (0,0) of each active block re-stages the star — the redundancy
  // a multi-block star costs over the untiled kernel.
  c.global_reads = blocks;
  c.global_bytes_read = blocks * sizeof(Star);
  c.global_transactions = blocks;
  c.shared_bank_conflicts = 0;
  c.shared_writes = blocks * 3;
  c.flops += blocks * (BrightnessModel::kArithmeticFlops +
                       static_cast<std::uint64_t>(device_.pow_flop_equiv) +
                       kc::kWeightFlops);

  // Every thread of each active block; tile-coordinate arithmetic adds two
  // flops over the untiled kernel.
  const std::uint64_t threads = blocks * tpb;  // == n * roi_side^2
  c.shared_reads = threads * 3;
  c.flops += threads * (kc::kCoordFlops + kc::kBoundsFlops + 2);
  // Exact tiling: every thread is in the ROI, and interior stars pass the
  // image-bounds test — both branch sites are warp-uniform.
  c.flops += threads * (psf_eval_flops(device_, scene) + kc::kAccumFlops);
  c.atomic_ops = threads;
  c.global_bytes_read += threads * sizeof(float);
  c.global_bytes_written += threads * sizeof(float);
  c.atomic_conflicts = 0;

  c.barriers = blocks * wpb;
  c.branch_sites_evaluated = 2 * blocks * wpb;  // in-ROI then in-image
  c.divergent_warp_branches = 0;
  return c;
}

CostBreakdown CostModel::score_parallel(const SceneConfig& scene,
                                        std::size_t star_count,
                                        const Schedule& schedule) const {
  CostBreakdown cost;
  std::size_t blocks = star_count;
  int block_side = scene.roi_side;
  if (schedule.tiled()) {
    const auto tiles_per_axis =
        static_cast<std::size_t>(scene.roi_side / schedule.tile_side);
    blocks *= tiles_per_axis * tiles_per_axis;
    block_side = schedule.tile_side;
    cost.counters =
        predict_tiled_parallel_counters(scene, star_count, schedule.tile_side);
  } else {
    cost.counters = predict_parallel_counters(scene, star_count);
  }
  cost.kernel_s =
      gpusim::estimate_kernel_time(
          device_, star_centric_config(blocks, block_side), cost.counters)
          .kernel_s;
  cost.transfer_s = frame_transfer_s(device_, scene, star_count);
  cost.application_s = cost.kernel_s + cost.transfer_s;
  return cost;
}

CostBreakdown CostModel::score_adaptive(const SceneConfig& scene,
                                        std::size_t star_count,
                                        const Schedule& schedule) const {
  CostBreakdown cost;
  cost.counters = predict_adaptive_counters(scene, star_count, schedule.lut);
  cost.kernel_s =
      gpusim::estimate_kernel_time(
          device_, star_centric_config(star_count, scene.roi_side),
          cost.counters)
          .kernel_s;
  cost.transfer_s = frame_transfer_s(device_, scene, star_count);
  // The per-scene setup a batch pays once: table upload, CPU-side build,
  // texture bind (AdaptiveSimulator::simulate_batch's amortization).
  const std::uint64_t lut_entries = lut_entries_of(scene, schedule.lut);
  const double shared_setup =
      gpusim::estimate_transfer_time(device_, lut_entries * sizeof(float)) +
      host_.lut_build_time_s(static_cast<double>(lut_entries)) +
      device_.texture_bind_s;
  cost.setup_s =
      shared_setup / static_cast<double>(std::max<std::size_t>(
                         1, schedule.batch_hint));
  cost.application_s = cost.kernel_s + cost.transfer_s + cost.setup_s;
  return cost;
}

CostBreakdown CostModel::score_pixel_centric(const SceneConfig& scene,
                                             std::size_t star_count) const {
  // Approximate: the pixel-centric ablation's divergence and load pattern
  // depend on star placement, so this column is an estimate (uniform
  // broadcast loads, ROI-boundary divergence), unlike the exact
  // star-centric predictions. It completes the decomposition axis; its
  // O(pixels x stars) load traffic keeps it far from winning any workload
  // the paper studies, which matches the ablation bench's measurements.
  constexpr std::uint64_t kTile = 16;
  const auto n = static_cast<std::uint64_t>(star_count);
  const auto width = static_cast<std::uint64_t>(scene.image_width);
  const auto height = static_cast<std::uint64_t>(scene.image_height);
  const auto roi = static_cast<std::uint64_t>(scene.roi_side);

  gpusim::LaunchConfig config;
  config.grid = gpusim::Dim3(
      static_cast<std::uint32_t>((width + kTile - 1) / kTile),
      static_cast<std::uint32_t>((height + kTile - 1) / kTile));
  config.block = gpusim::Dim3(kTile, kTile);

  gpusim::KernelCounters c;
  const std::uint64_t tpb = kTile * kTile;
  const std::uint64_t wpb = tpb / static_cast<std::uint64_t>(device_.warp_size);
  c.blocks_launched = config.total_blocks();
  c.threads_launched = c.blocks_launched * tpb;
  c.warps_launched = c.blocks_launched * wpb;

  const std::uint64_t active = width * height;
  c.flops = c.threads_launched * kc::kCoordFlops;
  // Every active thread walks the whole star list.
  c.global_reads = active * n;
  c.global_bytes_read = active * n * sizeof(Star);
  // All threads of a warp load the same star: one broadcast transaction
  // per warp per star.
  c.global_transactions = c.warps_launched * n;
  c.flops += active * n * (kc::kBoundsFlops + 2);
  // Each interior star's ROI covers roi^2 pixels, which evaluate the full
  // brightness + PSF path.
  const std::uint64_t hits = n * roi * roi;
  c.flops += hits * (BrightnessModel::kArithmeticFlops +
                     static_cast<std::uint64_t>(device_.pow_flop_equiv) +
                     kc::kWeightFlops + psf_eval_flops(device_, scene) +
                     kc::kAccumFlops);
  c.branch_sites_evaluated = c.warps_launched * n;
  c.divergent_warp_branches =
      n * ((roi * roi + 31) / 32 + roi);  // warps straddling the ROI edge
  c.global_writes = active;
  c.global_bytes_written = active * sizeof(float);

  CostBreakdown cost;
  cost.counters = c;
  const gpusim::KernelTiming timing =
      gpusim::estimate_kernel_time(device_, config, c);
  cost.kernel_s = timing.kernel_s;
  cost.transfer_s = frame_transfer_s(device_, scene, star_count);
  cost.application_s = cost.kernel_s + cost.transfer_s;
  return cost;
}

CostBreakdown CostModel::score(const SceneConfig& scene,
                               std::size_t star_count,
                               const Schedule& schedule) const {
  scene.validate();
  STARSIM_REQUIRE(star_count > 0, "scoring needs at least one star");
  switch (schedule.simulator) {
    case SimulatorKind::kSequential: {
      CostBreakdown cost;
      cost.host_s = host_.scalar_time_s(static_cast<double>(
          predict_sequential_flops(scene, star_count)));
      cost.application_s = cost.host_s;
      return cost;
    }
    case SimulatorKind::kCpuParallel: {
      CostBreakdown cost;
      const int threads =
          schedule.cpu_threads > 0 ? schedule.cpu_threads : host_.cores;
      const int used = std::clamp(threads, 1, host_.cores);
      const auto flops = static_cast<double>(
          predict_sequential_flops(scene, star_count));
      // Same loops as sequential split over `used` cores, plus streaming
      // the worker-private partial images through host memory once
      // (OpenMpSimulator's reduction).
      cost.host_s =
          host_.parallel_time_s(flops, used) +
          host_.memory_stream_time_s(
              static_cast<double>(used) *
              static_cast<double>(image_bytes_of(scene)));
      cost.application_s = cost.host_s;
      return cost;
    }
    case SimulatorKind::kParallel:
      return score_parallel(scene, star_count, schedule);
    case SimulatorKind::kAdaptive:
      return score_adaptive(scene, star_count, schedule);
    case SimulatorKind::kPixelCentric:
      return score_pixel_centric(scene, star_count);
    default:
      STARSIM_THROW(support::PreconditionError,
                    "simulator kind is not schedulable");
  }
}

}  // namespace starsim::sched
