// RAII device buffers for one simulated frame.
//
// Owns the star array and image pixel array on the simulated device for the
// duration of one simulate() call, reproducing the paper's transfer
// pipeline: the star array and the (zero-initialized) image are copied host
// to device before the kernel, and the image is copied back afterwards —
// the "CPU-GPU Transmission" row of Table I covers exactly this traffic.
#pragma once

#include <span>

#include "gpusim/device.h"
#include "imageio/image.h"
#include "starsim/scene.h"
#include "starsim/star.h"
#include "trace/trace.h"

namespace starsim {

class DeviceFrame {
 public:
  DeviceFrame(gpusim::Device& device, const SceneConfig& scene,
              std::span<const Star> stars)
      : device_(device),
        pixel_count_(static_cast<std::size_t>(scene.image_width) *
                     static_cast<std::size_t>(scene.image_height)) {
    // A fault (injected OOM, failed upload) mid-construction must not leak
    // the earlier allocations: a retrying caller would otherwise exhaust
    // the device's 1.5 GB after a handful of faulted frames.
    trace::TraceSpan span("starsim", "frame_upload");
    if (span.armed()) [[unlikely]] {
      span.arg("stars", stars.size()).arg("pixels", pixel_count_);
    }
    try {
      stars_ = device_.malloc<Star>(stars.empty() ? 1 : stars.size());
      image_ = device_.malloc<float>(pixel_count_);
      if (!stars.empty()) device_.memcpy_h2d(stars_, stars);
      // The paper's pipeline ships the initial (blank) image to the device;
      // the 1024^2 float image dominates Table I's transmission time.
      device_.memcpy_h2d_zero(image_);
    } catch (...) {
      release();
      throw;
    }
  }

  DeviceFrame(const DeviceFrame&) = delete;
  DeviceFrame& operator=(const DeviceFrame&) = delete;

  ~DeviceFrame() { release(); }

  [[nodiscard]] const gpusim::DevicePtr<Star>& stars() const { return stars_; }
  [[nodiscard]] const gpusim::DevicePtr<float>& image() const {
    return image_;
  }

  /// Copy the device image back into `target` (must match the frame size).
  void readback(imageio::ImageF& target) {
    STARSIM_REQUIRE(target.pixel_count() == pixel_count_,
                    "readback target size mismatch");
    trace::TraceSpan span("starsim", "readback");
    if (span.armed()) [[unlikely]] {
      span.arg("pixels", pixel_count_);
    }
    device_.memcpy_d2h(target.pixels(), image_);
  }

 private:
  // Best effort: frees cannot throw out of a destructor or an unwind path.
  void release() noexcept {
    try {
      if (!stars_.is_null()) device_.free(stars_);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    try {
      if (!image_.is_null()) device_.free(image_);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }

  gpusim::Device& device_;
  std::size_t pixel_count_;
  gpusim::DevicePtr<Star> stars_;
  gpusim::DevicePtr<float> image_;
};

/// The star-centric launch geometry both GPU simulators share: one block
/// per star (2-D grid so star counts beyond 65535 fit), side x side threads
/// per block (one per ROI pixel).
[[nodiscard]] inline gpusim::LaunchConfig star_centric_config(
    std::size_t star_count, int roi_side) {
  constexpr std::uint32_t kGridWidth = 256;
  gpusim::LaunchConfig config;
  if (star_count <= kGridWidth) {
    config.grid = gpusim::Dim3(static_cast<std::uint32_t>(star_count), 1);
  } else {
    const auto rows = static_cast<std::uint32_t>(
        (star_count + kGridWidth - 1) / kGridWidth);
    config.grid = gpusim::Dim3(kGridWidth, rows);
  }
  config.block = gpusim::Dim3(static_cast<std::uint32_t>(roi_side),
                              static_cast<std::uint32_t>(roi_side));
  return config;
}

}  // namespace starsim
