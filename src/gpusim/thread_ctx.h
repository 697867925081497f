// The per-thread kernel execution context — gpusim's equivalent of CUDA's
// implicit thread environment (threadIdx/blockIdx/blockDim/gridDim, global
// and shared memory access, atomics, textures). A __syncthreads barrier is
// the boundary between two phases of a kernel (see Step).
//
// Every operation with a timing consequence goes through a ThreadCtx method
// so it is tallied in the block's KernelCounters; the performance model
// prices those tallies afterwards. Plain arithmetic is declared by the
// kernel via count_flops()/exp()/pow(), the same convention the sequential
// simulator uses through FlopMeter, so CPU and GPU work is measured in the
// same unit (fp64 flop-equivalents).
//
// The same methods are the sanitizer's instrumentation points (see
// gpusim/sanitizer.h): with a launch's SanitizerMode off, each access pays
// exactly one predictable branch; with memcheck/racecheck on, defective
// accesses are recorded as findings and suppressed (loads return 0, stores
// are dropped) so one run reports every defect instead of throwing on the
// first.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "gpusim/launch_state.h"
#include "gpusim/device_memory.h"

namespace starsim::gpusim {

/// What one phase of a kernel tells the block runner about its thread. A
/// kernel is any callable `Step kernel(ThreadCtx& ctx, unsigned phase)`:
/// phase p is the code between the p-th and (p+1)-th __syncthreads of the
/// CUDA kernel body. kSync arrives at the barrier that ends the phase (the
/// thread runs phase + 1 once every thread has arrived); kExit returns from
/// the kernel.
enum class Step { kSync, kExit };

class ThreadCtx;

/// Counted shared-memory array handle (see ThreadCtx::shared_array).
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Counted read of element `i`.
  [[nodiscard, gnu::always_inline]] T get(std::size_t i) const;

  /// Counted write of element `i`.
  [[gnu::always_inline]] void set(std::size_t i, T value) const;

 private:
  friend class ThreadCtx;
  SharedArray(T* data, std::size_t count, std::size_t base_offset,
              std::size_t slot, ThreadCtx* ctx)
      : data_(data),
        count_(count),
        base_offset_(base_offset),
        slot_(slot),
        ctx_(ctx) {}

  T* data_ = nullptr;
  std::size_t count_ = 0;
  /// Byte offset of element 0 within the block's shared-memory arena —
  /// the address space bank indices are derived from.
  std::size_t base_offset_ = 0;
  /// Index into BlockState::shared_allocs (the racecheck shadow lives there).
  std::size_t slot_ = 0;
  ThreadCtx* ctx_ = nullptr;
};

class ThreadCtx {
 public:
  /// Thread `thread_idx` of `block`, whose linear index within the block is
  /// `linear` and whose warp is `warp`.
  ThreadCtx(BlockState* block, const Dim3& thread_idx, std::uint32_t linear,
            std::uint32_t warp)
      : block_(block),
        thread_idx_(thread_idx),
        linear_thread_(linear),
        warp_id_(warp) {}

  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;
  ThreadCtx(ThreadCtx&&) = default;
  ThreadCtx& operator=(ThreadCtx&&) = delete;

  // --- Identity -------------------------------------------------------------
  [[nodiscard]] const Dim3& thread_idx() const { return thread_idx_; }
  [[nodiscard]] const Dim3& block_idx() const { return block_->block_idx; }
  [[nodiscard]] const Dim3& block_dim() const {
    return block_->launch->config.block;
  }
  [[nodiscard]] const Dim3& grid_dim() const {
    return block_->launch->config.grid;
  }
  /// Linearized block index within the grid (the paper's blockId).
  [[nodiscard]] std::uint64_t block_linear() const {
    return block_->block_linear;
  }
  [[nodiscard]] std::uint32_t thread_linear() const { return linear_thread_; }
  [[nodiscard]] std::uint32_t warp_id() const { return warp_id_; }

  // --- Arithmetic accounting --------------------------------------------------
  /// Declare `n` fp64 flop-equivalents of plain arithmetic.
  void count_flops(std::uint64_t n) { block_->counters.flops += n; }

  /// Counted transcendentals (software fp64 on the modeled device).
  double exp(double x) {
    block_->counters.flops +=
        static_cast<std::uint64_t>(block_->spec->exp_flop_equiv);
    return std::exp(x);
  }
  double pow(double base, double exponent) {
    block_->counters.flops +=
        static_cast<std::uint64_t>(block_->spec->pow_flop_equiv);
    return std::pow(base, exponent);
  }
  double sqrt(double x) {
    block_->counters.flops +=
        static_cast<std::uint64_t>(block_->spec->sqrt_flop_equiv);
    return std::sqrt(x);
  }
  double erf(double x) {
    block_->counters.flops +=
        static_cast<std::uint64_t>(block_->spec->erf_flop_equiv);
    return std::erf(x);
  }

  // --- Global memory ----------------------------------------------------------
  template <typename T>
  [[nodiscard, gnu::always_inline]] T load(const DevicePtr<T>& ptr,
                                           std::size_t i) {
    if (sanitizing()) [[unlikely]] {
      if (!memcheck_global(ptr, i, /*is_write=*/false)) return T{};
    }
    STARSIM_REQUIRE(i < ptr.size(), "global read out of bounds");
    ++block_->counters.global_reads;
    block_->counters.global_bytes_read += sizeof(T);
    record_global_access(ptr.allocation_id(), i * sizeof(T));
    return ptr.raw()[i];
  }

  template <typename T>
  [[gnu::always_inline]] void store(const DevicePtr<T>& ptr, std::size_t i,
                                    T value) {
    if (sanitizing()) [[unlikely]] {
      if (!memcheck_global(ptr, i, /*is_write=*/true)) return;
    }
    STARSIM_REQUIRE(i < ptr.size(), "global write out of bounds");
    ++block_->counters.global_writes;
    block_->counters.global_bytes_written += sizeof(T);
    record_global_access(ptr.allocation_id(), i * sizeof(T));
    ptr.raw()[i] = value;
  }

  /// atomicAdd on a float in global memory, with exact per-address
  /// conflict accounting (the first op on an element sets its bit in the
  /// launch's touch bitmap; see LaunchState). A serial block adds in place;
  /// a parallel block stages the add for the in-order commit (see
  /// BlockCommitQueue), so the element ends as in a serial launch. Unlike
  /// CUDA's atomicAdd it returns nothing: under concurrent blocks the
  /// previous value depends on scheduling, and no kernel here reads it.
  [[gnu::always_inline]] void atomic_add(const DevicePtr<float>& ptr,
                                         std::size_t i, float value) {
    if (sanitizing()) [[unlikely]] {
      if (!memcheck_global(ptr, i, /*is_write=*/true)) return;
    }
    STARSIM_REQUIRE(i < ptr.size(), "atomic add out of bounds");
    ++block_->counters.atomic_ops;
    block_->counters.global_bytes_read += sizeof(float);
    block_->counters.global_bytes_written += sizeof(float);
    std::atomic<std::uint64_t>& word =
        block_->touched_bits(ptr.allocation_id(), ptr.size())[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((word.load(std::memory_order_relaxed) & bit) == 0) {
      word.fetch_or(bit, std::memory_order_relaxed);
    }
    float* target = ptr.raw() + i;
    if (block_->parallel_blocks) {
      block_->effects.adds.push_back({target, value});
    } else {
      *target += value;
    }
  }

  // --- Shared memory ----------------------------------------------------------
  /// Attach to (or, for the first thread to get here, create) the block's
  /// next shared-memory array. All threads of a block must make the same
  /// shared_array calls in the same order, as with static __shared__
  /// declarations in CUDA. The order restarts at every phase, so each phase
  /// re-declares the arrays it uses: a re-declaration attaches to the
  /// array the earlier phase made, contents intact, and one of another size
  /// is a sequence mismatch.
  template <typename T>
  [[nodiscard]] SharedArray<T> shared_array(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    auto& allocs = block_->shared_allocs;
    const std::size_t slot = shared_cursor_++;
    if (slot < block_->shared_count) {
      STARSIM_REQUIRE(allocs[slot].bytes == bytes,
                      "shared_array sequence mismatch across threads");
      return SharedArray<T>(reinterpret_cast<T*>(allocs[slot].data.get()),
                            count, allocs[slot].base_offset, slot, this);
    }
    STARSIM_REQUIRE(slot == block_->shared_count,
                    "shared_array sequence mismatch across threads");
    const std::size_t base_offset = block_->shared_used;
    block_->shared_used += bytes;
    STARSIM_REQUIRE(
        block_->shared_used <= block_->spec->shared_memory_per_block,
        "shared memory per block exceeded");
    if (slot == allocs.size()) allocs.emplace_back();
    BlockState::SharedAlloc& alloc = allocs[slot];
    if (alloc.capacity < bytes) {
      alloc.data = std::make_unique<std::byte[]>(bytes);
      alloc.capacity = bytes;
    }
    std::fill_n(alloc.data.get(), bytes, std::byte{0});
    alloc.bytes = bytes;
    alloc.base_offset = base_offset;
    alloc.race.clear();
    ++block_->shared_count;
    return SharedArray<T>(reinterpret_cast<T*>(alloc.data.get()), count,
                          base_offset, slot, this);
  }

  // --- Texture ----------------------------------------------------------------
  /// Nearest-sample fetch through the block's SM texture cache. A parallel
  /// block stages the cache lookup for the in-order commit, which counts
  /// its hit or miss.
  [[gnu::always_inline]] float tex2d(TextureHandle handle, int x, int y) {
    if (sanitizer_enabled(block_->sanitize, SanitizerMode::kMemcheck))
        [[unlikely]] {
      if (!memcheck_texture(handle)) return 0.0f;
    }
    const Texture2D& tex = block_->texture(handle);
    ++block_->counters.texture_fetches;
    if (!tex.resolve(x, y)) {
      // Border fetches are satisfied without a cache transaction.
      ++block_->counters.texture_hits;
      return tex.border_value();
    }
    const std::uint64_t address = tex.cache_address(x, y);
    if (block_->parallel_blocks) {
      block_->effects.texture_addresses.push_back(address);
    } else if (block_->sm_cache->access(address)) {
      ++block_->counters.texture_hits;
    } else {
      ++block_->counters.texture_misses;
    }
    return tex.value(x, y);
  }

  // --- Control ----------------------------------------------------------------
  /// Record the outcome of a potentially warp-divergent branch. `site`
  /// identifies the branch location (0..BlockState::kMaxBranchSites-1).
  void branch(int site, bool taken) {
    STARSIM_REQUIRE(site >= 0 && site < BlockState::kMaxBranchSites,
                    "branch site id out of range");
    ++block_->branch_counts[warp_id_][static_cast<std::size_t>(site)]
                           [taken ? 1 : 0];
  }

  // --- Runner interface ---------------------------------------------------------
  /// Restart the shared_array declaration order (the runner calls this
  /// before each phase of this thread).
  void begin_phase() { shared_cursor_ = 0; }

  // --- Sanitizer hooks ----------------------------------------------------------
  /// True when any sanitizer tool is active for this launch (the single
  /// branch every instrumented site pays in off mode).
  [[nodiscard]] bool sanitizing() const {
    return block_->sanitize != SanitizerMode::kOff;
  }

  /// Record a finding at this thread's coordinates and barrier epoch.
  void report_finding(SanitizerFindingKind kind, std::uint32_t alloc_id,
                      std::uint64_t address, std::string message) {
    SanitizerFinding finding;
    finding.kind = kind;
    finding.block = block_->block_idx;
    finding.thread = thread_idx_;
    finding.allocation_id = alloc_id;
    finding.address = address;
    finding.epoch = block_->sync_epoch;
    finding.message = std::move(message);
    block_->launch->report_finding(std::move(finding));
  }

  /// Memcheck a global access. True = proceed; false = a finding was
  /// recorded and the access must be suppressed.
  template <typename T>
  [[nodiscard]] bool memcheck_global(const DevicePtr<T>& ptr, std::size_t i,
                                     bool is_write) {
    if (!sanitizer_enabled(block_->sanitize, SanitizerMode::kMemcheck)) {
      return true;
    }
    const char* op = is_write ? "write" : "read";
    if (!ptr.is_live()) {
      report_finding(SanitizerFindingKind::kUseAfterFree, ptr.allocation_id(),
                     i * sizeof(T),
                     std::string("global ") + op +
                         " through a freed or null device pointer");
      return false;
    }
    if (i >= ptr.size()) {
      report_finding(SanitizerFindingKind::kGlobalOutOfBounds,
                     ptr.allocation_id(), i * sizeof(T),
                     std::string("global ") + op + " at element " +
                         std::to_string(i) + " beyond extent " +
                         std::to_string(ptr.size()));
      return false;
    }
    if (is_write) {
      ptr.sanitizer_mark_initialized(i * sizeof(T), sizeof(T));
    } else if (!ptr.sanitizer_initialized(i * sizeof(T), sizeof(T))) {
      // The bytes are deterministically zero, so the read itself is safe;
      // report and proceed so one run surfaces every uninitialized site.
      report_finding(SanitizerFindingKind::kUninitializedRead,
                     ptr.allocation_id(), i * sizeof(T),
                     "global read of " + std::to_string(sizeof(T)) +
                         " byte(s) never written since allocation");
    }
    return true;
  }

  /// Memcheck a texture fetch: the handle must name a bound texture whose
  /// backing allocation is live. Same proceed/suppress contract.
  [[nodiscard]] bool memcheck_texture(TextureHandle handle) {
    const Texture2D* pre = block_->launch->texture_or_null(handle);
    if (pre == nullptr) {
      report_finding(SanitizerFindingKind::kInvalidTextureFetch, 0xffffffffu,
                     0,
                     "fetch through invalid or unbound texture handle #" +
                         std::to_string(handle.index));
      return false;
    }
    if (!pre->backing_live()) {
      report_finding(SanitizerFindingKind::kUseAfterFree,
                     pre->allocation_id(), 0,
                     "texture fetch through a freed backing allocation");
      return false;
    }
    return true;
  }

  /// Memcheck a shared access (bounds only; shared arrays are zero-filled
  /// at creation by construction). Same proceed/suppress contract.
  [[nodiscard]] bool memcheck_shared(std::size_t slot, std::size_t i,
                                     std::size_t count,
                                     std::size_t elem_bytes, bool is_write) {
    if (!sanitizer_enabled(block_->sanitize, SanitizerMode::kMemcheck)) {
      return true;
    }
    if (i >= count) {
      report_finding(SanitizerFindingKind::kSharedOutOfBounds,
                     static_cast<std::uint32_t>(slot),
                     block_->shared_allocs[slot].base_offset + i * elem_bytes,
                     std::string("shared ") + (is_write ? "write" : "read") +
                         " at element " + std::to_string(i) +
                         " beyond extent " + std::to_string(count));
      return false;
    }
    return true;
  }

  // --- Access-class bookkeeping (SharedArray + load/store) -----------------------
  [[gnu::always_inline]] void record_shared_access(
      std::size_t slot, std::size_t byte_in_alloc, std::size_t arena_offset,
      std::size_t bytes, bool is_write) {
    if (is_write) {
      ++block_->counters.shared_writes;
    } else {
      ++block_->counters.shared_reads;
    }
    block_->shared_access.record(warp_id_, shared_seq_++, arena_offset);
    if (sanitizer_enabled(block_->sanitize, SanitizerMode::kRacecheck))
        [[unlikely]] {
      check_shared_race(slot, byte_in_alloc, arena_offset, bytes, is_write);
    }
  }

 private:
  /// Racecheck: per-4-byte-word shadow cells record the last write and the
  /// readers of the current barrier epoch; a second thread touching the
  /// same word in the same epoch with at least one write is a hazard. One
  /// finding per word (the cell is then flagged) keeps reports readable.
  void check_shared_race(std::size_t slot, std::size_t byte_in_alloc,
                         std::size_t arena_offset, std::size_t bytes,
                         bool is_write) {
    BlockState::SharedAlloc& alloc = block_->shared_allocs[slot];
    if (alloc.race.empty()) alloc.race.resize((alloc.bytes + 3) / 4);
    const auto epoch = static_cast<std::int64_t>(block_->sync_epoch);
    const std::uint32_t me = linear_thread_;
    const std::size_t first = byte_in_alloc / 4;
    const std::size_t last = (byte_in_alloc + bytes - 1) / 4;
    for (std::size_t w = first; w <= last && w < alloc.race.size(); ++w) {
      BlockState::SharedAlloc::RaceCell& cell = alloc.race[w];
      if (is_write) {
        const bool write_write = cell.write_epoch == epoch && cell.writer != me;
        const bool read_write =
            cell.read_epoch == epoch &&
            (cell.reader != me || cell.multiple_readers);
        if ((write_write || read_write) && !cell.flagged) {
          cell.flagged = true;
          const std::uint32_t other = write_write ? cell.writer : cell.reader;
          report_finding(
              SanitizerFindingKind::kSharedRace,
              static_cast<std::uint32_t>(slot), arena_offset,
              std::string(write_write ? "write-after-write"
                                      : "write-after-read") +
                  " hazard on shared word " + std::to_string(w) +
                  ": threads " + std::to_string(other) + " and " +
                  std::to_string(me) +
                  " with no __syncthreads between them");
        }
        cell.write_epoch = epoch;
        cell.writer = me;
      } else {
        if (cell.write_epoch == epoch && cell.writer != me && !cell.flagged) {
          cell.flagged = true;
          report_finding(
              SanitizerFindingKind::kSharedRace,
              static_cast<std::uint32_t>(slot), arena_offset,
              "read-after-write hazard on shared word " + std::to_string(w) +
                  ": threads " + std::to_string(cell.writer) + " and " +
                  std::to_string(me) +
                  " with no __syncthreads between them");
        }
        if (cell.read_epoch != epoch) {
          cell.read_epoch = epoch;
          cell.reader = me;
          cell.multiple_readers = false;
        } else if (cell.reader != me) {
          cell.multiple_readers = true;
        }
      }
    }
  }

  [[gnu::always_inline]] void record_global_access(std::uint32_t alloc_id,
                                                   std::size_t byte_offset) {
    // Distinct allocations cannot coalesce: offset them far apart in the
    // tracker's address space.
    block_->global_access.record(
        warp_id_, global_seq_++,
        (static_cast<std::uint64_t>(alloc_id) << 40) + byte_offset);
  }

  BlockState* block_;
  Dim3 thread_idx_;
  std::uint32_t linear_thread_ = 0;
  std::uint32_t warp_id_ = 0;
  std::uint32_t shared_cursor_ = 0;
  std::uint32_t shared_seq_ = 0;
  std::uint32_t global_seq_ = 0;
};

template <typename T>
inline T SharedArray<T>::get(std::size_t i) const {
  if (ctx_->sanitizing()) [[unlikely]] {
    if (!ctx_->memcheck_shared(slot_, i, count_, sizeof(T),
                               /*is_write=*/false)) {
      return T{};
    }
  }
  STARSIM_REQUIRE(i < count_, "shared memory read out of bounds");
  ctx_->record_shared_access(slot_, i * sizeof(T),
                             base_offset_ + i * sizeof(T), sizeof(T),
                             /*is_write=*/false);
  return data_[i];
}

template <typename T>
inline void SharedArray<T>::set(std::size_t i, T value) const {
  if (ctx_->sanitizing()) [[unlikely]] {
    if (!ctx_->memcheck_shared(slot_, i, count_, sizeof(T),
                               /*is_write=*/true)) {
      return;
    }
  }
  STARSIM_REQUIRE(i < count_, "shared memory write out of bounds");
  ctx_->record_shared_access(slot_, i * sizeof(T),
                             base_offset_ + i * sizeof(T), sizeof(T),
                             /*is_write=*/true);
  data_[i] = value;
}

}  // namespace starsim::gpusim
