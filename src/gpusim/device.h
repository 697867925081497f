// The simulated GPU device — gpusim's equivalent of the CUDA runtime.
//
// Host code uses a Device the way the paper's host code uses CUDA:
//
//   Device dev(DeviceSpec::gtx480());
//   auto stars = dev.malloc<Star>(n);
//   dev.memcpy_h2d(stars, host_stars);                  // modeled PCIe cost
//   auto result = dev.launch(config, kernel);           // functional + timed
//   dev.memcpy_d2h(host_image, image);                  // modeled PCIe cost
//
// Kernels execute functionally (real data, bounds-checked, barrier-correct);
// every launch returns the counters gathered during execution and the
// modeled KernelTiming derived from them. Host<->device transfers move real
// bytes and accrue modeled PCIe time into TransferStats — the "non-kernel
// overhead" that the paper's evaluation revolves around.
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "gpusim/block_runner.h"
#include "gpusim/device_memory.h"
#include "gpusim/device_spec.h"
#include "gpusim/fault_injector.h"
#include "gpusim/launch_state.h"
#include "gpusim/perf_model.h"
#include "gpusim/sanitizer.h"
#include "gpusim/texture.h"
#include "trace/trace.h"

namespace starsim::gpusim {

/// Accumulated host<->device traffic and its modeled cost.
struct TransferStats {
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint32_t h2d_calls = 0;
  std::uint32_t d2h_calls = 0;
  double h2d_s = 0.0;
  double d2h_s = 0.0;
  std::uint32_t texture_binds = 0;
  double texture_bind_s = 0.0;

  [[nodiscard]] double transfer_s() const { return h2d_s + d2h_s; }
  [[nodiscard]] double total_s() const { return transfer_s() + texture_bind_s; }
};

/// Everything known about one completed kernel launch.
struct LaunchResult {
  LaunchConfig config;
  KernelCounters counters;
  KernelTiming timing;
  /// Findings of this launch; empty (and cost-free) when sanitizing is off.
  SanitizerReport sanitizer;
};

class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::gtx480());
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] const DeviceMemoryManager& memory() const { return memory_; }

  // --- Fault injection ---------------------------------------------------------
  /// Attach a fault-injection oracle (see gpusim/fault_injector.h) consulted
  /// at every allocation, transfer, launch and texture bind. nullptr
  /// detaches. Non-owning; the injector must outlive the device. Disabled
  /// (the default) costs exactly one predictable null check per site.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
    memory_.set_fault_injector(injector);
  }
  [[nodiscard]] FaultInjector* fault_injector() const {
    return fault_injector_;
  }
  /// True when an attached injector has latched the device as lost.
  [[nodiscard]] bool lost() const {
    return fault_injector_ != nullptr && fault_injector_->device_lost();
  }

  // --- Sanitizer ---------------------------------------------------------------
  /// Default SanitizerMode for subsequent launches; also arms the memory
  /// manager (memcheck gives *future* allocations an initialization
  /// shadow, so enable before allocating for full coverage). kOff (the
  /// default) keeps every instrumented site to one predictable branch.
  void set_sanitizer(SanitizerMode mode) {
    sanitize_ = mode;
    memory_.set_sanitizer(mode);
  }
  [[nodiscard]] SanitizerMode sanitizer() const { return sanitize_; }

  /// Findings accumulated across launches (and host-side checks) since
  /// construction or the last clear.
  [[nodiscard]] const SanitizerReport& sanitizer_report() const {
    return sanitizer_report_;
  }
  void clear_sanitizer_report() { sanitizer_report_ = SanitizerReport{}; }

  /// Leakcheck: every still-live allocation and still-bound texture, as of
  /// now. Callers run it when the device *should* be empty (teardown, end
  /// of a frame loop); the destructor logs it when leakcheck is armed.
  [[nodiscard]] SanitizerReport leak_report() const;

  // --- Memory ------------------------------------------------------------------
  template <typename T>
  [[nodiscard]] DevicePtr<T> malloc(std::size_t count) {
    if (trace::tracing_on()) [[unlikely]] {
      trace::instant(
          "gpusim", "malloc",
          {{"bytes", static_cast<std::int64_t>(count * sizeof(T))}});
    }
    return memory_.allocate<T>(count);
  }

  template <typename T>
  void free(DevicePtr<T>& ptr) {
    if (trace::tracing_on()) [[unlikely]] {
      trace::instant("gpusim", "free",
                     {{"bytes", static_cast<std::int64_t>(ptr.bytes())},
                      {"allocation_id",
                       static_cast<std::int64_t>(ptr.allocation_id())}});
    }
    memory_.release(ptr);
  }

  /// Copy host -> device; accrues modeled PCIe time. An oversized copy is
  /// a real defect (SanitizerError, never retryable), with the offending
  /// handle and extents in the message.
  template <typename T>
  void memcpy_h2d(const DevicePtr<T>& dst, std::span<const T> src) {
    if (src.size() > dst.size()) {
      STARSIM_THROW(support::SanitizerError,
                    "h2d copy of " + std::to_string(src.size()) +
                        " element(s) overflows device allocation #" +
                        std::to_string(dst.allocation_id()) + " of " +
                        std::to_string(dst.size()) + " element(s)");
    }
    trace::TraceSpan span("gpusim", "memcpy_h2d");
    std::memcpy(dst.raw(), src.data(), src.size_bytes());
    dst.sanitizer_mark_initialized(0, src.size_bytes());
    account_h2d(span, reinterpret_cast<std::byte*>(dst.raw()),
                src.size_bytes());
  }

  /// Upload a zero-filled host buffer the size of `dst` without building
  /// one: the same bytes, call, modeled seconds, span, memcheck marking
  /// and fault-injection site as memcpy_h2d of that buffer.
  template <typename T>
  void memcpy_h2d_zero(const DevicePtr<T>& dst) {
    trace::TraceSpan span("gpusim", "memcpy_h2d");
    std::memset(dst.raw(), 0, dst.bytes());
    dst.sanitizer_mark_initialized(0, dst.bytes());
    account_h2d(span, reinterpret_cast<std::byte*>(dst.raw()), dst.bytes());
  }

  /// Copy device -> host; accrues modeled PCIe time. Same typed-error
  /// contract as memcpy_h2d; with memcheck armed, reading back bytes no
  /// store/copy/memset ever wrote is reported as an uninitialized read.
  template <typename T>
  void memcpy_d2h(std::span<T> dst, const DevicePtr<T>& src) {
    if (dst.size() < src.size()) {
      STARSIM_THROW(support::SanitizerError,
                    "d2h copy of device allocation #" +
                        std::to_string(src.allocation_id()) + " (" +
                        std::to_string(src.size()) +
                        " element(s)) overflows a host buffer of " +
                        std::to_string(dst.size()) + " element(s)");
    }
    if (!src.sanitizer_initialized(0, src.bytes())) [[unlikely]] {
      SanitizerFinding finding;
      finding.kind = SanitizerFindingKind::kUninitializedRead;
      finding.allocation_id = src.allocation_id();
      finding.message =
          "d2h copy reads device allocation #" +
          std::to_string(src.allocation_id()) +
          " containing byte(s) never written since allocation";
      sanitizer_report_.add(std::move(finding));
    }
    trace::TraceSpan span("gpusim", "memcpy_d2h");
    std::memcpy(dst.data(), src.raw(), src.bytes());
    const double modeled_s =
        estimate_transfer_time(spec_, src.bytes(), pinned_transfers_);
    transfers_.d2h_bytes += src.bytes();
    transfers_.d2h_calls += 1;
    transfers_.d2h_s += modeled_s;
    if (span.armed()) [[unlikely]] {
      span.arg("bytes", src.bytes())
          .arg("modeled_s", modeled_s)
          .arg("pinned", pinned_transfers_);
    }
    if (fault_injector_ != nullptr) [[unlikely]] {
      fault_injector_->on_transfer(FaultSite::kMemcpyD2H,
                                   reinterpret_cast<std::byte*>(dst.data()),
                                   src.bytes());
    }
  }

  /// Stage transfers through page-locked host memory (the transmission
  /// optimization of the paper's reference [10]); raises the modeled PCIe
  /// bandwidth for subsequent copies.
  void set_pinned_transfers(bool enabled) { pinned_transfers_ = enabled; }
  [[nodiscard]] bool pinned_transfers() const { return pinned_transfers_; }

  /// Device-side fill with zero bytes (cudaMemset); no PCIe traffic.
  template <typename T>
  void memset_zero(const DevicePtr<T>& ptr) {
    std::memset(ptr.raw(), 0, ptr.bytes());
    ptr.sanitizer_mark_initialized(0, ptr.bytes());
  }

  // --- Textures -------------------------------------------------------------------
  /// Bind a row-major float region as a 2-D texture; accrues the modeled
  /// binding cost (Table I's "Texture Memory Binding" row).
  TextureHandle bind_texture_2d(const DevicePtr<float>& data, int width,
                                int height, AddressMode mode,
                                float border_value = 0.0f);
  void unbind_texture(TextureHandle handle);
  [[nodiscard]] std::size_t bound_texture_count() const;

  // --- Execution -------------------------------------------------------------------
  /// Launch `kernel` over `config`. The kernel is any callable
  /// `Step(ThreadCtx&, unsigned phase)` (see Step). Blocks run concurrently across host
  /// threads when parallel_blocks() is enabled (OpenMP builds only); their
  /// float atomics and texture-cache lookups are committed in block order,
  /// so the memory, counters and timing equal a serial launch's.
  template <typename KernelFn>
  LaunchResult launch(const LaunchConfig& config, const KernelFn& kernel) {
    return launch_sanitized(config, kernel, sanitize_);
  }

  /// launch() with a per-launch SanitizerMode override (e.g. sanitize one
  /// suspect kernel without paying for the whole frame loop).
  template <typename KernelFn>
  LaunchResult launch_sanitized(const LaunchConfig& config,
                                const KernelFn& kernel, SanitizerMode mode) {
    trace::TraceSpan span("gpusim", "kernel_launch");
    validate_launch(config);
    for (SetAssociativeCache& cache : sm_caches_) cache.reset();

    LaunchState state;
    state.spec = &spec_;
    state.config = config;
    state.sanitize = mode;
    state.textures = &textures_;
    state.sm_caches = &sm_caches_;

    const std::uint64_t block_count = config.total_blocks();
#ifdef _OPENMP
    if (parallel_blocks_) {
      state.parallel_blocks = true;
      commit_->begin(&sm_caches_);
      // Blocks are claimed in index order, so the block the commit waits
      // for is always running somewhere.
      std::atomic<std::uint64_t> next_block{0};
      std::exception_ptr first_error;
      std::mutex error_mutex;
#pragma omp parallel
      for (;;) {
        const std::uint64_t b = next_block.fetch_add(1);
        if (b >= block_count) break;
        try {
          run_block(state, config.grid.delinearize(b), kernel);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        commit_->submit(b, detail::block_scratch().block.effects);
      }
      commit_->finish(state.totals);
      if (first_error) std::rethrow_exception(first_error);
    } else
#endif
    {
      for (std::uint64_t b = 0; b < block_count; ++b) {
        run_block(state, config.grid.delinearize(b), kernel);
      }
    }

    state.totals.atomic_conflicts =
        state.totals.atomic_ops - state.atomic_addresses_touched();
    LaunchResult result{config, state.totals,
                        estimate_kernel_time(spec_, config, state.totals), {}};
    if (span.armed()) [[unlikely]] {
      span.arg("grid_x", config.grid.x)
          .arg("grid_y", config.grid.y)
          .arg("block_x", config.block.x)
          .arg("block_y", config.block.y)
          .arg("blocks", block_count)
          .arg("threads", config.total_threads())
          .arg("kernel_s", result.timing.kernel_s)
          .arg("utilization", result.timing.utilization)
          .arg("achieved_gflops", result.timing.achieved_gflops)
          .arg("flops", result.counters.flops)
          .arg("global_bytes", result.counters.global_bytes())
          .arg("sanitize", to_string(mode));
      // A few sampled per-block markers so a timeline shows the block-level
      // structure of the launch without emitting one event per block. The
      // modeled per-block cost assumes the uniform work distribution that
      // estimate_kernel_time itself assumes.
      if (block_count > 0) {
        const std::uint64_t samples = block_count < 4 ? block_count : 4;
        const std::uint64_t stride = block_count / samples;
        const double per_block_s =
            result.timing.kernel_s / static_cast<double>(block_count);
        for (std::uint64_t i = 0; i < samples; ++i) {
          trace::instant("gpusim", "block_sample",
                         {{"block", static_cast<std::int64_t>(i * stride)},
                          {"modeled_block_s", per_block_s}});
        }
      }
    }
    if (mode != SanitizerMode::kOff) [[unlikely]] {
      state.sanitizer_report.mode = mode;
      result.sanitizer = std::move(state.sanitizer_report);
      sanitizer_report_.merge(result.sanitizer);
    }
    // A launch killed by the (injected) watchdog never retires: it leaves
    // no last_launch_ record, as if cudaDeviceSynchronize returned an error.
    if (fault_injector_ != nullptr) [[unlikely]] {
      fault_injector_->on_kernel_launch(result.timing.kernel_s);
    }
    last_launch_ = result;
    ++launch_count_;
    return result;
  }

  // --- Statistics --------------------------------------------------------------------
  [[nodiscard]] const TransferStats& transfer_stats() const {
    return transfers_;
  }
  void reset_transfer_stats() { transfers_ = TransferStats{}; }

  [[nodiscard]] const LaunchResult& last_launch() const;
  [[nodiscard]] std::size_t launch_count() const { return launch_count_; }

  /// Per-SM texture cache state after the most recent launch.
  [[nodiscard]] const std::vector<SetAssociativeCache>& texture_caches()
      const {
    return sm_caches_;
  }

  /// Enable/disable concurrent block execution (effective in OpenMP builds).
  /// Either way a launch is deterministic: the same memory, counters and
  /// cache statistics on any number of threads.
  void set_parallel_blocks(bool enabled) { parallel_blocks_ = enabled; }
  [[nodiscard]] bool parallel_blocks() const { return parallel_blocks_; }

 private:
  void validate_launch(const LaunchConfig& config) const;
  /// The accounting half of an h2d upload of `bytes` already written to
  /// `dst`: modeled time, TransferStats, span args, fault injection.
  void account_h2d(trace::TraceSpan& span, std::byte* dst, std::size_t bytes);

  DeviceSpec spec_;
  DeviceMemoryManager memory_;
  std::vector<std::optional<Texture2D>> textures_;
  std::vector<SetAssociativeCache> sm_caches_;
  /// In-order commit of parallel blocks' effects, reused across launches.
  std::unique_ptr<BlockCommitQueue> commit_ =
      std::make_unique<BlockCommitQueue>();
  TransferStats transfers_;
  FaultInjector* fault_injector_ = nullptr;  // non-owning, may be null
  std::optional<LaunchResult> last_launch_;
  std::size_t launch_count_ = 0;
  bool parallel_blocks_ = false;
  bool pinned_transfers_ = false;
  SanitizerMode sanitize_ = SanitizerMode::kOff;
  SanitizerReport sanitizer_report_;
};

}  // namespace starsim::gpusim
