#include "starsim/parallel_simulator.h"

#include <algorithm>
#include <cmath>

#include "starsim/device_frame.h"
#include "starsim/kernel_cost.h"
#include "starsim/psf.h"
#include "starsim/roi.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace starsim {

namespace {

using gpusim::DevicePtr;
using gpusim::Step;
using gpusim::ThreadCtx;

/// Kernel parameters, shared read-only by every thread — the
/// "indicator elements" the paper passes to keep device accesses in range
/// (image extent, star count) plus the model constants.
struct KernelParams {
  DevicePtr<Star> stars;
  DevicePtr<float> image;
  std::uint32_t star_count = 0;
  int image_width = 0;
  int image_height = 0;
  int margin = 0;
  double psf_coefficient = 0.0;
  double psf_inv_two_sigma_sq = 0.0;
  double psf_inv_sqrt2_sigma = 0.0;
  bool pixel_integration = false;
  BrightnessModel brightness;
};

/// Fig. 6, line for line: phase 0 runs steps 1-6, phase 1 steps 7-8.
Step parallel_kernel(ThreadCtx& ctx, unsigned phase, const KernelParams& p) {
  // Step 3: excess blocks of the 2-D grid bail out.
  const std::uint64_t block_id = ctx.block_linear();
  if (block_id >= p.star_count) return Step::kExit;

  // Step 1: shared staging area (brightness, posX, posY).
  auto shared = ctx.shared_array<float>(3);

  if (phase == 0) {
    // Step 5: the first thread computes the star's brightness once per
    // block.
    if (ctx.thread_idx().x == 0 && ctx.thread_idx().y == 0) {
      const Star star = ctx.load(p.stars, block_id);
      double brightness = p.brightness.brightness(
          ctx, static_cast<double>(star.magnitude));
      ctx.count_flops(kernel_cost::kWeightFlops);
      brightness *= static_cast<double>(star.weight);
      shared.set(0, static_cast<float>(brightness));
      shared.set(1, star.x);
      shared.set(2, star.y);
    }
    // Step 6: no thread may read the staging area before it is written.
    return Step::kSync;
  }

  // Step 7: shared -> registers (read once, reuse), then pixel coordinates.
  const float brightness = shared.get(0);
  const float star_x = shared.get(1);
  const float star_y = shared.get(2);
  const int pixel_x = static_cast<int>(std::lround(star_x)) - p.margin +
                      static_cast<int>(ctx.thread_idx().x);
  const int pixel_y = static_cast<int>(std::lround(star_y)) - p.margin +
                      static_cast<int>(ctx.thread_idx().y);
  ctx.count_flops(kernel_cost::kCoordFlops + kernel_cost::kBoundsFlops);

  // Step 8: boundary test (a warp-divergent branch for border stars), PSF
  // evaluation, atomic accumulation.
  const bool inside = pixel_x >= 0 && pixel_y >= 0 &&
                      pixel_x < p.image_width && pixel_y < p.image_height;
  ctx.branch(0, inside);
  if (!inside) return Step::kExit;

  const double dx = static_cast<double>(pixel_x) - static_cast<double>(star_x);
  const double dy = static_cast<double>(pixel_y) - static_cast<double>(star_y);
  const double rate =
      p.pixel_integration
          ? gauss_integrated_rate(ctx, p.psf_inv_sqrt2_sigma, dx, dy)
          : gauss_rate(ctx, p.psf_coefficient, p.psf_inv_two_sigma_sq, dx,
                       dy);
  ctx.count_flops(kernel_cost::kAccumFlops);
  const std::size_t index =
      static_cast<std::size_t>(pixel_y) *
          static_cast<std::size_t>(p.image_width) +
      static_cast<std::size_t>(pixel_x);
  ctx.atomic_add(p.image, index,
                 static_cast<float>(static_cast<double>(brightness) * rate));
  return Step::kExit;
}

/// Tiled variant for ROIs beyond the block limit: one block per
/// (star, tile), each tile a tile_side^2 patch of the ROI. Thread (0,0) of
/// every tile re-stages the star (the redundancy a multi-block star costs),
/// and threads past the ROI's edge in partial tiles simply skip — a
/// divergence the counters record.
struct TiledKernelParams {
  DevicePtr<Star> stars;
  DevicePtr<float> image;
  std::uint64_t block_count = 0;  ///< stars x tiles (guards grid padding)
  std::uint32_t tiles_per_axis = 1;
  int tile_side = 0;
  int roi_side = 0;
  int image_width = 0;
  int image_height = 0;
  int margin = 0;
  double psf_coefficient = 0.0;
  double psf_inv_two_sigma_sq = 0.0;
  double psf_inv_sqrt2_sigma = 0.0;
  bool pixel_integration = false;
  BrightnessModel brightness;
};

Step tiled_parallel_kernel(ThreadCtx& ctx, unsigned phase,
                           const TiledKernelParams& p) {
  const std::uint64_t block_id = ctx.block_linear();
  if (block_id >= p.block_count) return Step::kExit;
  const std::uint64_t tiles =
      static_cast<std::uint64_t>(p.tiles_per_axis) * p.tiles_per_axis;

  auto shared = ctx.shared_array<float>(3);
  if (phase == 0) {
    if (ctx.thread_idx().x == 0 && ctx.thread_idx().y == 0) {
      const Star star = ctx.load(p.stars, block_id / tiles);
      double brightness =
          p.brightness.brightness(ctx, static_cast<double>(star.magnitude));
      ctx.count_flops(kernel_cost::kWeightFlops);
      brightness *= static_cast<double>(star.weight);
      shared.set(0, static_cast<float>(brightness));
      shared.set(1, star.x);
      shared.set(2, star.y);
    }
    return Step::kSync;
  }

  const auto tile = static_cast<std::uint32_t>(block_id % tiles);
  const auto tile_x = tile % p.tiles_per_axis;
  const auto tile_y = tile / p.tiles_per_axis;
  const float brightness = shared.get(0);
  const float star_x = shared.get(1);
  const float star_y = shared.get(2);

  // ROI offset of this thread within the whole (tiled) ROI.
  const auto roi_x = static_cast<int>(tile_x) * p.tile_side +
                     static_cast<int>(ctx.thread_idx().x);
  const auto roi_y = static_cast<int>(tile_y) * p.tile_side +
                     static_cast<int>(ctx.thread_idx().y);
  ctx.count_flops(kernel_cost::kCoordFlops + kernel_cost::kBoundsFlops + 2);
  // Partial edge tiles: threads beyond the ROI bail (divergent branch).
  const bool in_roi = roi_x < p.roi_side && roi_y < p.roi_side;
  ctx.branch(1, in_roi);
  if (!in_roi) return Step::kExit;

  const int pixel_x =
      static_cast<int>(std::lround(star_x)) - p.margin + roi_x;
  const int pixel_y =
      static_cast<int>(std::lround(star_y)) - p.margin + roi_y;
  const bool inside = pixel_x >= 0 && pixel_y >= 0 &&
                      pixel_x < p.image_width && pixel_y < p.image_height;
  ctx.branch(0, inside);
  if (!inside) return Step::kExit;

  const double dx = static_cast<double>(pixel_x) - static_cast<double>(star_x);
  const double dy = static_cast<double>(pixel_y) - static_cast<double>(star_y);
  const double rate =
      p.pixel_integration
          ? gauss_integrated_rate(ctx, p.psf_inv_sqrt2_sigma, dx, dy)
          : gauss_rate(ctx, p.psf_coefficient, p.psf_inv_two_sigma_sq, dx,
                       dy);
  ctx.count_flops(kernel_cost::kAccumFlops);
  const std::size_t index =
      static_cast<std::size_t>(pixel_y) *
          static_cast<std::size_t>(p.image_width) +
      static_cast<std::size_t>(pixel_x);
  ctx.atomic_add(p.image, index,
                 static_cast<float>(static_cast<double>(brightness) * rate));
  return Step::kExit;
}

}  // namespace

ParallelSimulator::ParallelSimulator(gpusim::Device& device,
                                     ParallelOptions options)
    : device_(device), options_(options) {
  STARSIM_REQUIRE(options_.tile_side > 0, "tile side must be positive");
}

int ParallelSimulator::max_roi_side() const {
  return static_cast<int>(
      std::floor(std::sqrt(device_.spec().max_threads_per_block)));
}

SimulationResult ParallelSimulator::simulate(const SceneConfig& scene,
                                             std::span<const Star> stars) {
  trace::TraceSpan span("starsim", "render");
  if (span.armed()) [[unlikely]] {
    span.arg("simulator", name())
        .arg("stars", stars.size())
        .arg("roi", scene.roi_side);
  }
  scene.validate();
  const long threads_per_block =
      static_cast<long>(scene.roi_side) * scene.roi_side;
  const bool needs_tiling =
      threads_per_block >
      static_cast<long>(device_.spec().max_threads_per_block);
  if (needs_tiling && !options_.allow_tiling) {
    throw support::DeviceError(
        "ROI side " + std::to_string(scene.roi_side) + " needs " +
        std::to_string(threads_per_block) +
        " threads per block, over the device limit of " +
        std::to_string(device_.spec().max_threads_per_block) +
        " (enable ParallelOptions::allow_tiling to lift this)");
  }
  const bool use_tiling =
      options_.allow_tiling &&
      (needs_tiling || scene.roi_side > options_.tile_side);

  const support::WallTimer wall;
  SimulationResult result;
  result.image = imageio::ImageF(scene.image_width, scene.image_height);
  if (stars.empty()) {
    result.timing.wall_s = wall.seconds();
    return result;
  }

  device_.reset_transfer_stats();
  DeviceFrame frame(device_, scene, stars);

  const GaussianPsf psf(scene.psf_sigma);
  gpusim::LaunchResult launch;
  if (use_tiling) {
    TiledKernelParams params;
    params.stars = frame.stars();
    params.image = frame.image();
    const int tile = std::min(options_.tile_side, scene.roi_side);
    params.tile_side = tile;
    params.tiles_per_axis =
        static_cast<std::uint32_t>((scene.roi_side + tile - 1) / tile);
    params.block_count = stars.size() *
                         static_cast<std::uint64_t>(params.tiles_per_axis) *
                         params.tiles_per_axis;
    params.roi_side = scene.roi_side;
    params.image_width = scene.image_width;
    params.image_height = scene.image_height;
    params.margin = Roi(scene.roi_side).margin();
    params.psf_coefficient = psf.coefficient();
    params.psf_inv_two_sigma_sq = psf.inv_two_sigma_sq();
    params.psf_inv_sqrt2_sigma = psf.inv_sqrt2_sigma();
    params.pixel_integration = scene.pixel_integration;
    params.brightness = scene.brightness;

    gpusim::LaunchConfig config =
        star_centric_config(params.block_count, tile);
    launch = device_.launch(
        config, [&params](ThreadCtx& ctx, unsigned phase) {
          return tiled_parallel_kernel(ctx, phase, params);
        });
  } else {
    KernelParams params;
    params.stars = frame.stars();
    params.image = frame.image();
    params.star_count = static_cast<std::uint32_t>(stars.size());
    params.image_width = scene.image_width;
    params.image_height = scene.image_height;
    params.margin = Roi(scene.roi_side).margin();
    params.psf_coefficient = psf.coefficient();
    params.psf_inv_two_sigma_sq = psf.inv_two_sigma_sq();
    params.psf_inv_sqrt2_sigma = psf.inv_sqrt2_sigma();
    params.pixel_integration = scene.pixel_integration;
    params.brightness = scene.brightness;

    const gpusim::LaunchConfig config =
        star_centric_config(stars.size(), scene.roi_side);
    launch = device_.launch(
        config, [&params](ThreadCtx& ctx, unsigned phase) {
          return parallel_kernel(ctx, phase, params);
        });
  }

  frame.readback(result.image);

  const gpusim::TransferStats& transfers = device_.transfer_stats();
  result.timing.kernel_s = launch.timing.kernel_s;
  result.timing.h2d_s = transfers.h2d_s;
  result.timing.d2h_s = transfers.d2h_s;
  result.timing.counters = launch.counters;
  result.timing.utilization = launch.timing.utilization;
  result.timing.achieved_gflops = launch.timing.achieved_gflops;
  result.timing.wall_s = wall.seconds();
  if (span.armed()) [[unlikely]] {
    span.arg("kernel_s", result.timing.kernel_s)
        .arg("non_kernel_s", result.timing.non_kernel_s());
  }
  return result;
}

}  // namespace starsim
