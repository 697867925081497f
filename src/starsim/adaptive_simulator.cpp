#include "starsim/adaptive_simulator.h"

#include <algorithm>
#include <cmath>

#include "gpusim/host_spec.h"
#include "starsim/device_frame.h"
#include "starsim/kernel_cost.h"
#include "starsim/roi.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace starsim {

namespace {

using gpusim::DevicePtr;
using gpusim::Step;
using gpusim::TextureHandle;
using gpusim::ThreadCtx;

struct KernelParams {
  DevicePtr<Star> stars;
  DevicePtr<float> image;
  TextureHandle lut;
  std::uint32_t star_count = 0;
  int image_width = 0;
  int image_height = 0;
  int margin = 0;
  int roi_side = 0;
  // Lookup-table addressing constants.
  double magnitude_min = 0.0;
  double inv_bin_width = 1.0;
  int magnitude_bins = 0;
  int phases = 1;
};

/// Fig. 6 with the Section III-C substitution: "the computation of star
/// brightness and distribution of star on its ROI will be replaced by
/// accessing the search table in texture memory. Then, the content of
/// shared memory ... is also changed by storing star magnitude instead."
/// Phase 0 stages the star in shared memory; phase 1, past the barrier,
/// reads it back and accumulates the table entry.
Step adaptive_kernel(ThreadCtx& ctx, unsigned phase, const KernelParams& p) {
  const std::uint64_t block_id = ctx.block_linear();
  if (block_id >= p.star_count) return Step::kExit;

  auto shared = ctx.shared_array<float>(4);
  if (phase == 0) {
    if (ctx.thread_idx().x == 0 && ctx.thread_idx().y == 0) {
      const Star star = ctx.load(p.stars, block_id);
      shared.set(0, star.magnitude);
      shared.set(1, star.x);
      shared.set(2, star.y);
      shared.set(3, star.weight);
    }
    return Step::kSync;
  }

  const float magnitude = shared.get(0);
  const float star_x = shared.get(1);
  const float star_y = shared.get(2);
  const float weight = shared.get(3);

  const int pixel_x = static_cast<int>(std::lround(star_x)) - p.margin +
                      static_cast<int>(ctx.thread_idx().x);
  const int pixel_y = static_cast<int>(std::lround(star_y)) - p.margin +
                      static_cast<int>(ctx.thread_idx().y);
  ctx.count_flops(kernel_cost::kCoordFlops + kernel_cost::kBoundsFlops);

  const bool inside = pixel_x >= 0 && pixel_y >= 0 &&
                      pixel_x < p.image_width && pixel_y < p.image_height;
  ctx.branch(0, inside);
  if (!inside) return Step::kExit;

  // Table indexing: magnitude bin, subpixel phases, then the texture row of
  // this thread's ROI offset.
  ctx.count_flops(kernel_cost::kLutIndexFlops);
  int bin = static_cast<int>(std::floor(
      (static_cast<double>(magnitude) - p.magnitude_min) * p.inv_bin_width));
  bin = std::clamp(bin, 0, p.magnitude_bins - 1);
  int phase_x = 0;
  int phase_y = 0;
  if (p.phases > 1) {
    const auto phase_of = [&](float coord) {
      const double frac = static_cast<double>(coord) -
                          static_cast<double>(std::lround(coord));
      return std::clamp(
          static_cast<int>(std::floor((frac + 0.5) * p.phases)), 0,
          p.phases - 1);
    };
    phase_x = phase_of(star_x);
    phase_y = phase_of(star_y);
  }
  const int row = ((bin * p.phases + phase_y) * p.phases + phase_x) *
                      p.roi_side +
                  static_cast<int>(ctx.thread_idx().y);
  const float value =
      ctx.tex2d(p.lut, static_cast<int>(ctx.thread_idx().x), row);

  ctx.count_flops(kernel_cost::kAccumFlops);
  const std::size_t index =
      static_cast<std::size_t>(pixel_y) *
          static_cast<std::size_t>(p.image_width) +
      static_cast<std::size_t>(pixel_x);
  ctx.atomic_add(p.image, index, value * weight);
  return Step::kExit;
}

void validate_scene(const gpusim::Device& device, const SceneConfig& scene) {
  scene.validate();
  const long threads_per_block =
      static_cast<long>(scene.roi_side) * scene.roi_side;
  if (threads_per_block >
      static_cast<long>(device.spec().max_threads_per_block)) {
    throw support::DeviceError(
        "ROI side " + std::to_string(scene.roi_side) +
        " exceeds the device block limit");
  }
}

/// The per-scene setup both entry points share, built on the CPU
/// (Section IV-D) and shipped once: lookup-table build, device upload and
/// texture bind, with its modeled costs snapshotted so callers can charge
/// them to one frame or amortize them over a batch. RAII: the device
/// buffer and texture slot are released on destruction (fault-injected
/// frees cannot throw out of the unwind path).
class SharedTable {
 public:
  SharedTable(gpusim::Device& device, const SceneConfig& scene,
              const LookupTableOptions& options)
      : device_(device),
        table_(LookupTable::build(scene, options)),
        inv_bin_width_(options.bins_per_magnitude) {
    trace::TraceSpan span("starsim", "lut_setup");
    if (span.armed()) [[unlikely]] {
      span.arg("entries", table_.entries())
          .arg("magnitude_bins", table_.magnitude_bins())
          .arg("phases", table_.phases());
    }
    if (AdaptiveSimulator::max_magnitude_bins(device_, scene.roi_side,
                                              options.subpixel_phases) <
        table_.magnitude_bins()) {
      throw support::DeviceError(
          "lookup table does not fit the device's texture limits: " +
          std::to_string(table_.magnitude_bins()) + " bins requested");
    }
    device_.reset_transfer_stats();
    buffer_ = device_.malloc<float>(table_.entries());
    try {
      device_.memcpy_h2d(buffer_, table_.values());
      texture_ = device_.bind_texture_2d(buffer_, table_.width(),
                                         table_.height(),
                                         gpusim::AddressMode::kClamp);
    } catch (...) {
      release();
      throw;
    }
    upload_s_ = device_.transfer_stats().h2d_s;
    bind_s_ = device_.transfer_stats().texture_bind_s;
    build_s_ = gpusim::HostSpec::i7_860().lut_build_time_s(
        static_cast<double>(table_.entries()));
  }

  SharedTable(const SharedTable&) = delete;
  SharedTable& operator=(const SharedTable&) = delete;

  ~SharedTable() { release(); }

  [[nodiscard]] const LookupTable& table() const { return table_; }
  [[nodiscard]] TextureHandle texture() const { return texture_; }
  [[nodiscard]] double inv_bin_width() const { return inv_bin_width_; }

  /// Charge this table's modeled setup cost to `timing`, split over `share`
  /// frames (1 = the classic per-call accounting).
  void amortize_into(TimingBreakdown& timing, std::size_t share) const {
    const auto n = static_cast<double>(share);
    timing.h2d_s += upload_s_ / n;
    timing.texture_bind_s += bind_s_ / n;
    timing.lut_build_s += build_s_ / n;
  }

 private:
  void release() noexcept {
    try {
      if (texture_.valid()) device_.unbind_texture(texture_);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    try {
      if (!buffer_.is_null()) device_.free(buffer_);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }

  gpusim::Device& device_;
  LookupTable table_;
  double inv_bin_width_ = 1.0;
  DevicePtr<float> buffer_;
  TextureHandle texture_;
  double upload_s_ = 0.0;
  double bind_s_ = 0.0;
  double build_s_ = 0.0;
};

/// Render one field against an already-bound table. Fills every timing
/// component the frame itself causes (kernel, star/image transfers); the
/// caller adds the table's amortized setup share.
SimulationResult render_frame(gpusim::Device& device, const SceneConfig& scene,
                              std::span<const Star> stars,
                              const SharedTable& shared) {
  SimulationResult result;
  result.image = imageio::ImageF(scene.image_width, scene.image_height);
  if (stars.empty()) return result;

  device.reset_transfer_stats();
  DeviceFrame frame(device, scene, stars);

  KernelParams params;
  params.stars = frame.stars();
  params.image = frame.image();
  params.lut = shared.texture();
  params.star_count = static_cast<std::uint32_t>(stars.size());
  params.image_width = scene.image_width;
  params.image_height = scene.image_height;
  params.margin = Roi(scene.roi_side).margin();
  params.roi_side = scene.roi_side;
  params.magnitude_min = scene.magnitude_min;
  params.inv_bin_width = shared.inv_bin_width();
  params.magnitude_bins = shared.table().magnitude_bins();
  params.phases = shared.table().phases();

  const gpusim::LaunchConfig config =
      star_centric_config(stars.size(), scene.roi_side);
  const gpusim::LaunchResult launch = device.launch(
      config,
      [&params](ThreadCtx& ctx, unsigned phase) {
        return adaptive_kernel(ctx, phase, params);
      });

  frame.readback(result.image);

  const gpusim::TransferStats& transfers = device.transfer_stats();
  result.timing.kernel_s = launch.timing.kernel_s;
  result.timing.h2d_s = transfers.h2d_s;
  result.timing.d2h_s = transfers.d2h_s;
  result.timing.counters = launch.counters;
  result.timing.utilization = launch.timing.utilization;
  result.timing.achieved_gflops = launch.timing.achieved_gflops;
  return result;
}

}  // namespace

AdaptiveSimulator::AdaptiveSimulator(gpusim::Device& device,
                                     LookupTableOptions options)
    : device_(device), options_(options) {}

int AdaptiveSimulator::max_magnitude_bins(const gpusim::Device& device,
                                          int roi_side, int subpixel_phases) {
  STARSIM_REQUIRE(roi_side > 0 && subpixel_phases > 0,
                  "invalid table geometry");
  // Texture rows are capped at 65536 by the addressing model; each
  // (bin, phase_x, phase_y) consumes roi_side rows. Device memory is the
  // second cap.
  const std::uint64_t rows_per_bin = static_cast<std::uint64_t>(roi_side) *
                                     static_cast<std::uint64_t>(
                                         subpixel_phases) *
                                     static_cast<std::uint64_t>(subpixel_phases);
  const std::uint64_t by_extent = 65536ull / rows_per_bin;
  const std::uint64_t bytes_per_bin =
      rows_per_bin * static_cast<std::uint64_t>(roi_side) * sizeof(float);
  const std::uint64_t by_memory =
      device.memory().free_bytes() / std::max<std::uint64_t>(1, bytes_per_bin);
  return static_cast<int>(std::min(by_extent, by_memory));
}

SimulationResult AdaptiveSimulator::simulate(const SceneConfig& scene,
                                             std::span<const Star> stars) {
  trace::TraceSpan span("starsim", "render");
  if (span.armed()) [[unlikely]] {
    span.arg("simulator", name())
        .arg("stars", stars.size())
        .arg("roi", scene.roi_side);
  }
  validate_scene(device_, scene);

  const support::WallTimer wall;
  if (stars.empty()) {
    SimulationResult result;
    result.image = imageio::ImageF(scene.image_width, scene.image_height);
    result.timing.wall_s = wall.seconds();
    return result;
  }

  const SharedTable shared(device_, scene, options_);
  SimulationResult result = render_frame(device_, scene, stars, shared);
  shared.amortize_into(result.timing, 1);
  result.timing.wall_s = wall.seconds();
  if (span.armed()) [[unlikely]] {
    span.arg("kernel_s", result.timing.kernel_s)
        .arg("non_kernel_s", result.timing.non_kernel_s());
  }
  return result;
}

std::vector<SimulationResult> AdaptiveSimulator::simulate_batch(
    const SceneConfig& scene, std::span<const StarField> fields) {
  trace::TraceSpan span("starsim", "simulate_batch");
  if (span.armed()) [[unlikely]] {
    span.arg("simulator", name())
        .arg("fields", fields.size())
        .arg("roi", scene.roi_side);
  }
  validate_scene(device_, scene);

  std::vector<SimulationResult> results;
  results.reserve(fields.size());
  if (fields.empty()) return results;

  const std::size_t non_empty = static_cast<std::size_t>(std::count_if(
      fields.begin(), fields.end(),
      [](const StarField& f) { return !f.empty(); }));
  if (non_empty == 0) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const support::WallTimer wall;
      SimulationResult result;
      result.image = imageio::ImageF(scene.image_width, scene.image_height);
      result.timing.wall_s = wall.seconds();
      results.push_back(std::move(result));
    }
    return results;
  }

  const support::WallTimer setup_wall;
  const SharedTable shared(device_, scene, options_);
  const double setup_wall_s = setup_wall.seconds();

  for (const StarField& field : fields) {
    const support::WallTimer wall;
    SimulationResult result = render_frame(device_, scene, field, shared);
    if (!field.empty()) {
      shared.amortize_into(result.timing, non_empty);
      result.timing.wall_s =
          wall.seconds() + setup_wall_s / static_cast<double>(non_empty);
    } else {
      result.timing.wall_s = wall.seconds();
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace starsim
