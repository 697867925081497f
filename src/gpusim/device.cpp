#include "gpusim/device.h"

#include <string>

#include "support/log.h"

namespace starsim::gpusim {

Device::Device(DeviceSpec spec)
    : spec_(std::move(spec)), memory_(spec_.global_memory_bytes) {
  STARSIM_REQUIRE(spec_.sm_count > 0, "device needs at least one SM");
  sm_caches_.reserve(static_cast<std::size_t>(spec_.sm_count));
  for (int sm = 0; sm < spec_.sm_count; ++sm) {
    sm_caches_.emplace_back(spec_.texture_cache_bytes_per_sm,
                            spec_.texture_cache_line_bytes,
                            spec_.texture_cache_associativity);
  }
#ifdef _OPENMP
  parallel_blocks_ = true;
#endif
}

Device::~Device() {
  // Destructors must not throw; when leakcheck is armed, teardown leaks are
  // logged here and available programmatically via leak_report() before
  // destruction.
  if (sanitizer_enabled(sanitize_, SanitizerMode::kLeakcheck)) {
    const SanitizerReport leaks = leak_report();
    if (!leaks.clean()) {
      STARSIM_WARN << "device teardown with leaks — " << leaks.summary();
    }
  }
}

SanitizerReport Device::leak_report() const {
  SanitizerReport report;
  report.mode = SanitizerMode::kLeakcheck;
  for (const DeviceMemoryManager::LiveAllocation& alloc :
       memory_.live_allocation_info()) {
    SanitizerFinding finding;
    finding.kind = SanitizerFindingKind::kLeakedAllocation;
    finding.allocation_id = alloc.id;
    finding.address = alloc.bytes;
    finding.message = "device allocation #" + std::to_string(alloc.id) +
                      " (" + std::to_string(alloc.bytes) +
                      " bytes, generation " + std::to_string(alloc.generation) +
                      ") never freed";
    report.add(std::move(finding));
  }
  for (std::size_t i = 0; i < textures_.size(); ++i) {
    if (!textures_[i].has_value()) continue;
    SanitizerFinding finding;
    finding.kind = SanitizerFindingKind::kLeakedTexture;
    finding.allocation_id = textures_[i]->allocation_id();
    finding.address = textures_[i]->bytes();
    finding.message = "texture handle #" + std::to_string(i) +
                      " still bound to allocation #" +
                      std::to_string(textures_[i]->allocation_id()) + " (" +
                      std::to_string(textures_[i]->bytes()) + " bytes)";
    report.add(std::move(finding));
  }
  return report;
}

TextureHandle Device::bind_texture_2d(const DevicePtr<float>& data, int width,
                                      int height, AddressMode mode,
                                      float border_value) {
  if (fault_injector_ != nullptr) [[unlikely]] {
    fault_injector_->on_texture_bind();
  }
  trace::TraceSpan span("gpusim", "texture_bind");
  Texture2D texture(data, width, height, mode, border_value);
  transfers_.texture_binds += 1;
  transfers_.texture_bind_s += spec_.texture_bind_s;
  if (span.armed()) [[unlikely]] {
    span.arg("width", width)
        .arg("height", height)
        .arg("bytes", texture.bytes())
        .arg("modeled_s", spec_.texture_bind_s);
  }
  // Reuse a free slot if any (textures are bound/unbound per frame in the
  // adaptive simulator).
  for (std::size_t i = 0; i < textures_.size(); ++i) {
    if (!textures_[i].has_value()) {
      textures_[i].emplace(texture);
      return TextureHandle{static_cast<std::uint32_t>(i)};
    }
  }
  textures_.emplace_back(texture);
  return TextureHandle{static_cast<std::uint32_t>(textures_.size() - 1)};
}

void Device::unbind_texture(TextureHandle handle) {
  STARSIM_REQUIRE(handle.valid() && handle.index < textures_.size() &&
                      textures_[handle.index].has_value(),
                  "unbinding an invalid or unbound texture");
  textures_[handle.index].reset();
}

std::size_t Device::bound_texture_count() const {
  std::size_t count = 0;
  for (const auto& texture : textures_) {
    if (texture.has_value()) ++count;
  }
  return count;
}

const LaunchResult& Device::last_launch() const {
  STARSIM_REQUIRE(last_launch_.has_value(), "no kernel launched yet");
  return *last_launch_;
}

void Device::account_h2d(trace::TraceSpan& span, std::byte* dst,
                         std::size_t bytes) {
  const double modeled_s =
      estimate_transfer_time(spec_, bytes, pinned_transfers_);
  transfers_.h2d_bytes += bytes;
  transfers_.h2d_calls += 1;
  transfers_.h2d_s += modeled_s;
  if (span.armed()) [[unlikely]] {
    span.arg("bytes", bytes)
        .arg("modeled_s", modeled_s)
        .arg("pinned", pinned_transfers_);
  }
  if (fault_injector_ != nullptr) [[unlikely]] {
    fault_injector_->on_transfer(FaultSite::kMemcpyH2D, dst, bytes);
  }
}

void Device::validate_launch(const LaunchConfig& config) const {
  STARSIM_REQUIRE(config.total_blocks() > 0, "empty grid");
  STARSIM_REQUIRE(config.threads_per_block() > 0, "empty block");
  if (config.threads_per_block() > spec_.max_threads_per_block) {
    throw support::DeviceError(
        "block of " + std::to_string(config.threads_per_block()) +
        " threads exceeds the device limit of " +
        std::to_string(spec_.max_threads_per_block) +
        " (the paper's ROI-size limitation, Section IV-D)");
  }
  if (config.block.x > spec_.max_block_dim_x ||
      config.block.y > spec_.max_block_dim_y ||
      config.block.z > spec_.max_block_dim_z) {
    throw support::DeviceError("block dimension " + to_string(config.block) +
                               " exceeds device limits");
  }
  if (config.total_blocks() > spec_.max_grid_blocks) {
    throw support::DeviceError("grid of " +
                               std::to_string(config.total_blocks()) +
                               " blocks exceeds device limits");
  }
}

}  // namespace starsim::gpusim
