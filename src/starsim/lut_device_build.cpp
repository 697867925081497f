#include "starsim/lut_device_build.h"

#include <cmath>

#include "starsim/psf.h"
#include "support/error.h"

namespace starsim {

namespace {

using gpusim::DevicePtr;
using gpusim::Step;
using gpusim::ThreadCtx;

struct KernelParams {
  DevicePtr<float> table;
  std::uint32_t rows = 0;  ///< guard for grid-rounding padding blocks
  int side = 0;
  int margin = 0;
  int phases = 1;
  double magnitude_min = 0.0;
  double bin_width = 1.0;
  double psf_coefficient = 0.0;
  double psf_inv_two_sigma_sq = 0.0;
  double psf_inv_sqrt2_sigma = 0.0;
  bool pixel_integration = false;
  BrightnessModel brightness;
};

/// One thread per table entry: block = one texture row (side threads),
/// grid.y walks the rows. Unlike the CPU build, nothing is hoisted — each
/// thread re-derives its bin's brightness — which is exactly the
/// arithmetic redundancy the GPU's parallelism has to beat.
Step lut_build_kernel(ThreadCtx& ctx, const KernelParams& p) {
  if (ctx.block_linear() >= p.rows) return Step::kExit;
  const auto row = static_cast<int>(ctx.block_linear());
  const auto col = static_cast<int>(ctx.thread_idx().x);

  // Decode (bin, phase_y, phase_x, roi_row) from the texture row.
  ctx.count_flops(8);
  const int roi_row = row % p.side;
  const int packed = row / p.side;
  const int phase_x = packed % p.phases;
  const int phase_y = (packed / p.phases) % p.phases;
  const int bin = packed / (p.phases * p.phases);

  const double magnitude = p.magnitude_min + (bin + 0.5) * p.bin_width;
  double brightness = p.brightness.brightness(ctx, magnitude);
  ctx.count_flops(4);
  const double off_x = (phase_x + 0.5) / p.phases - 0.5;
  const double off_y = (phase_y + 0.5) / p.phases - 0.5;
  const double dx = static_cast<double>(col - p.margin) - off_x;
  const double dy = static_cast<double>(roi_row - p.margin) - off_y;
  const double rate =
      p.pixel_integration
          ? gauss_integrated_rate(ctx, p.psf_inv_sqrt2_sigma, dx, dy)
          : gauss_rate(ctx, p.psf_coefficient, p.psf_inv_two_sigma_sq, dx,
                       dy);
  const std::size_t index = static_cast<std::size_t>(row) *
                                static_cast<std::size_t>(p.side) +
                            static_cast<std::size_t>(col);
  ctx.count_flops(1);
  ctx.store(p.table, index, static_cast<float>(brightness * rate));
  return Step::kExit;
}

}  // namespace

DeviceLutBuild build_lookup_table_on_device(gpusim::Device& device,
                                            const SceneConfig& scene,
                                            const LookupTableOptions& options) {
  scene.validate();
  STARSIM_REQUIRE(options.bins_per_magnitude > 0 && options.subpixel_phases > 0,
                  "invalid lookup table options");
  const double span = scene.magnitude_max - scene.magnitude_min;
  const int bins = std::max(
      1, static_cast<int>(std::ceil(span * options.bins_per_magnitude)));
  const int phases = options.subpixel_phases;
  const int side = scene.roi_side;
  const int height = bins * phases * phases * side;

  DeviceLutBuild result;
  result.width = side;
  result.height = height;
  result.table = device.malloc<float>(static_cast<std::size_t>(side) *
                                      static_cast<std::size_t>(height));

  const GaussianPsf psf(scene.psf_sigma);
  KernelParams params;
  params.table = result.table;
  params.rows = static_cast<std::uint32_t>(height);
  params.side = side;
  params.margin = side / 2;
  params.phases = phases;
  params.magnitude_min = scene.magnitude_min;
  params.bin_width = 1.0 / options.bins_per_magnitude;
  params.psf_coefficient = psf.coefficient();
  params.psf_inv_two_sigma_sq = psf.inv_two_sigma_sq();
  params.psf_inv_sqrt2_sigma = psf.inv_sqrt2_sigma();
  params.pixel_integration = scene.pixel_integration;
  params.brightness = scene.brightness;

  gpusim::LaunchConfig config;
  // One block per texture row keeps the geometry valid for any side.
  constexpr std::uint32_t kGridWidth = 256;
  const auto rows = static_cast<std::uint32_t>(height);
  config.grid = rows <= kGridWidth
                    ? gpusim::Dim3(rows)
                    : gpusim::Dim3(kGridWidth,
                                   (rows + kGridWidth - 1) / kGridWidth);
  config.block = gpusim::Dim3(static_cast<std::uint32_t>(side));

  const gpusim::LaunchResult launch = device.launch(
      config,
      [&params](ThreadCtx& ctx, unsigned /*phase*/) {
        return lut_build_kernel(ctx, params);
      });
  result.kernel_s = launch.timing.kernel_s;
  result.utilization = launch.timing.utilization;
  result.flops = launch.counters.flops;
  return result;
}

}  // namespace starsim
