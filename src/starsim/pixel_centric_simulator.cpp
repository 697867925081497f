#include "starsim/pixel_centric_simulator.h"

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

constexpr std::uint32_t kTile = 16;  // 16x16 pixel tiles per block

struct KernelParams {
  DevicePtr<Star> stars;
  DevicePtr<float> image;
  std::uint32_t star_count = 0;
  int image_width = 0;
  int image_height = 0;
  int margin = 0;
  int roi_side = 0;
  double psf_coefficient = 0.0;
  double psf_inv_two_sigma_sq = 0.0;
  double psf_inv_sqrt2_sigma = 0.0;
  bool pixel_integration = false;
  BrightnessModel brightness;
};

/// One phase: no barrier.
Step pixel_centric_kernel(ThreadCtx& ctx, const KernelParams& p) {
  const int pixel_x = static_cast<int>(ctx.block_idx().x * kTile +
                                       ctx.thread_idx().x);
  const int pixel_y = static_cast<int>(ctx.block_idx().y * kTile +
                                       ctx.thread_idx().y);
  ctx.count_flops(kernel_cost::kCoordFlops);
  if (pixel_x >= p.image_width || pixel_y >= p.image_height) {
    return Step::kExit;
  }

  // Accumulate contributions from every star whose ROI covers this pixel.
  // The in-ROI test is the warp-divergent branch the paper's Fig. 3
  // discussion predicts: adjacent pixels of a warp disagree near every ROI
  // edge, and hits are sparse (ROI area / image area per star).
  double accumulated = 0.0;
  for (std::uint32_t i = 0; i < p.star_count; ++i) {
    const Star star = ctx.load(p.stars, i);
    const int base_x =
        static_cast<int>(std::lround(star.x)) - p.margin;
    const int base_y =
        static_cast<int>(std::lround(star.y)) - p.margin;
    ctx.count_flops(kernel_cost::kBoundsFlops + 2);
    const bool in_roi = pixel_x >= base_x && pixel_x < base_x + p.roi_side &&
                        pixel_y >= base_y && pixel_y < base_y + p.roi_side;
    ctx.branch(0, in_roi);
    if (!in_roi) continue;

    double brightness =
        p.brightness.brightness(ctx, static_cast<double>(star.magnitude));
    ctx.count_flops(kernel_cost::kWeightFlops);
    brightness *= static_cast<double>(star.weight);
    const double dx =
        static_cast<double>(pixel_x) - static_cast<double>(star.x);
    const double dy =
        static_cast<double>(pixel_y) - static_cast<double>(star.y);
    const double rate =
        p.pixel_integration
            ? gauss_integrated_rate(ctx, p.psf_inv_sqrt2_sigma, dx, dy)
            : gauss_rate(ctx, p.psf_coefficient, p.psf_inv_two_sigma_sq, dx,
                         dy);
    ctx.count_flops(kernel_cost::kAccumFlops);
    accumulated += brightness * rate;
  }

  // Sole writer of its pixel: a plain store, no atomics.
  const std::size_t index =
      static_cast<std::size_t>(pixel_y) *
          static_cast<std::size_t>(p.image_width) +
      static_cast<std::size_t>(pixel_x);
  ctx.store(p.image, index, static_cast<float>(accumulated));
  return Step::kExit;
}

}  // namespace

PixelCentricSimulator::PixelCentricSimulator(gpusim::Device& device)
    : device_(device) {}

SimulationResult PixelCentricSimulator::simulate(const SceneConfig& scene,
                                                 std::span<const Star> stars) {
  trace::TraceSpan span("starsim", "render");
  if (span.armed()) [[unlikely]] {
    span.arg("simulator", name())
        .arg("stars", stars.size())
        .arg("roi", scene.roi_side);
  }
  scene.validate();
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
  KernelParams params;
  params.stars = frame.stars();
  params.image = frame.image();
  params.star_count = static_cast<std::uint32_t>(stars.size());
  params.image_width = scene.image_width;
  params.image_height = scene.image_height;
  params.margin = Roi(scene.roi_side).margin();
  params.roi_side = scene.roi_side;
  params.psf_coefficient = psf.coefficient();
  params.psf_inv_two_sigma_sq = psf.inv_two_sigma_sq();
  params.psf_inv_sqrt2_sigma = psf.inv_sqrt2_sigma();
  params.pixel_integration = scene.pixel_integration;
  params.brightness = scene.brightness;

  gpusim::LaunchConfig config;
  config.grid = gpusim::Dim3(
      (static_cast<std::uint32_t>(scene.image_width) + kTile - 1) / kTile,
      (static_cast<std::uint32_t>(scene.image_height) + kTile - 1) / kTile);
  config.block = gpusim::Dim3(kTile, kTile);

  const gpusim::LaunchResult launch = device_.launch(
      config,
      [&params](ThreadCtx& ctx, unsigned /*phase*/) {
        return pixel_centric_kernel(ctx, params);
      });

  frame.readback(result.image);

  const gpusim::TransferStats& transfers = device_.transfer_stats();
  result.timing.kernel_s = launch.timing.kernel_s;
  result.timing.h2d_s = transfers.h2d_s;
  result.timing.d2h_s = transfers.d2h_s;
  result.timing.counters = launch.counters;
  result.timing.utilization = launch.timing.utilization;
  result.timing.achieved_gflops = launch.timing.achieved_gflops;
  result.timing.wall_s = wall.seconds();
  return result;
}

}  // namespace starsim
