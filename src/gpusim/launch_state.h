// Mutable state of one in-flight kernel launch, plus the per-block slice.
//
// LaunchState is created by Device::launch and shared (read-mostly) by all
// block executions; the only cross-block mutable pieces are guarded: counter
// merging and the atomic touch bitmaps. (Parallel blocks stage their float
// atomics and SM texture-cache lookups in BlockState::effects, committed in
// block order by BlockCommitQueue.) BlockState is private to the OS thread
// executing the block, so its counters and shared-memory arrays need no
// synchronization. Each OS thread keeps one BlockState and reuses its
// storage for every block it runs, in this launch and later ones.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gpusim/block_commit.h"
#include "gpusim/cache.h"
#include "gpusim/counters.h"
#include "gpusim/device_spec.h"
#include "gpusim/dim.h"
#include "gpusim/sanitizer.h"
#include "gpusim/texture.h"
#include "support/error.h"

namespace starsim::gpusim {

struct LaunchState {
  const DeviceSpec* spec = nullptr;
  LaunchConfig config;
  /// Unique per launch in the process, so per-OS-thread block scratch can
  /// tell a new launch from the last one (a LaunchState's address repeats).
  const std::uint64_t serial = next_serial();
  /// True when blocks may execute on multiple OS threads: shared structures
  /// then take their locks, and float atomics and texture-cache lookups are
  /// staged for the in-order commit instead of applied.
  bool parallel_blocks = false;
  /// Sanitizer tools active for this launch (Device default or per-launch
  /// override). kOff keeps every instrumentation site to one branch.
  SanitizerMode sanitize = SanitizerMode::kOff;

  // Texture machinery, borrowed from the owning Device for the duration of
  // the launch. Caches are indexed by simulated SM id.
  const std::vector<std::optional<Texture2D>>* textures = nullptr;
  std::vector<SetAssociativeCache>* sm_caches = nullptr;

  // --- Atomic conflict accounting --------------------------------------------
  // One bit per element of every allocation that receives atomics this
  // launch, set by the first atomic to reach the element. Every later atomic
  // on that element queued behind another op on the address, so the
  // launch's conflicts are atomic_ops minus the bits set: the sum of
  // (ops - 1) over every address hit more than once.
  struct TouchedBits {
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
    std::size_t word_count = 0;
  };
  std::mutex touched_mutex;
  std::unordered_map<std::uint32_t, TouchedBits> touched;

  /// Bitmap of `alloc_id`, created (zeroed) on first use. Each OS thread
  /// looks an allocation up once per launch (BlockState caches it).
  std::atomic<std::uint64_t>* touched_bits(std::uint32_t alloc_id,
                                           std::size_t element_count) {
    const std::lock_guard<std::mutex> lock(touched_mutex);
    TouchedBits& bits = touched[alloc_id];
    if (!bits.words) {
      bits.word_count = (element_count + 63) / 64;
      bits.words =
          std::make_unique<std::atomic<std::uint64_t>[]>(bits.word_count);
    }
    return bits.words.get();
  }

  /// Distinct elements touched by atomics this launch.
  [[nodiscard]] std::uint64_t atomic_addresses_touched() const {
    std::uint64_t touched_count = 0;
    for (const auto& [id, bits] : touched) {
      for (std::size_t w = 0; w < bits.word_count; ++w) {
        touched_count += static_cast<std::uint64_t>(
            std::popcount(bits.words[w].load(std::memory_order_relaxed)));
      }
    }
    return touched_count;
  }

  // --- Result accumulation ----------------------------------------------------
  std::mutex merge_mutex;
  KernelCounters totals;

  void merge_block(const KernelCounters& block_counters) {
    if (parallel_blocks) {
      const std::lock_guard<std::mutex> lock(merge_mutex);
      totals.merge(block_counters);
    } else {
      totals.merge(block_counters);
    }
  }

  [[nodiscard]] const Texture2D& texture(TextureHandle handle) const {
    STARSIM_REQUIRE(textures != nullptr && handle.index < textures->size() &&
                        (*textures)[handle.index].has_value(),
                    "fetch through invalid or unbound texture handle");
    return *(*textures)[handle.index];
  }

  /// Non-throwing lookup for the sanitizer's pre-validation of fetches.
  [[nodiscard]] const Texture2D* texture_or_null(TextureHandle handle) const {
    if (textures == nullptr || handle.index >= textures->size() ||
        !(*textures)[handle.index].has_value()) {
      return nullptr;
    }
    return &*(*textures)[handle.index];
  }

  // --- Sanitizer findings -----------------------------------------------------
  std::mutex sanitizer_mutex;
  SanitizerReport sanitizer_report;

  void report_finding(SanitizerFinding finding) {
    if (parallel_blocks) {
      const std::lock_guard<std::mutex> lock(sanitizer_mutex);
      sanitizer_report.add(std::move(finding));
    } else {
      sanitizer_report.add(std::move(finding));
    }
  }

 private:
  static std::uint64_t next_serial() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

/// Groups the memory accesses a warp's threads issue at the same program
/// point ("same point" = equal per-thread access sequence number for the
/// access class, the standard SIMT lockstep assumption). From those groups
/// the block derives bank conflicts (shared memory) and coalesced
/// transaction counts (global memory) when it retires.
///
/// A group whose lanes all touched one address (a broadcast, the common case
/// in the paper's kernels) is kept as that address and a lane count; the
/// lanes' addresses are spilled to a full list only once a lane differs.
class WarpAccessTracker {
 public:
  void record(std::size_t warp, std::uint32_t seq, std::uint64_t address) {
    if (warp >= warps_.size() || seq >= warps_[warp].size()) [[unlikely]] {
      grow(warp, seq);
    }
    Slot& slot = warps_[warp][seq];
    if (slot.count >= kWarpCapacity) return;
    if (slot.count > 0 && slot.spill == kUniform && address != slot.first) {
      spill(slot);
    }
    if (slot.spill == kUniform) {
      slot.first = address;
    } else {
      spills_[slot.spill][slot.count] = address;
    }
    ++slot.count;
  }

  /// Forget every recorded access, keeping the storage for the next block.
  void clear() {
    for (std::vector<Slot>& slots : warps_) slots.clear();
    spills_.clear();
  }

  /// Extra serialized passes from distinct-address same-bank collisions
  /// (bank index = (address / bank_width) % banks; same-address accesses
  /// broadcast for free).
  [[nodiscard]] std::uint64_t bank_conflicts(int banks,
                                             int bank_width_bytes) const;

  /// Memory transactions after coalescing into `segment_bytes` segments.
  [[nodiscard]] std::uint64_t transactions(int segment_bytes) const;

 private:
  static constexpr std::uint8_t kWarpCapacity = 32;
  static constexpr std::uint32_t kUniform = 0xffffffffu;
  static constexpr int kMaxBanks = 64;
  using Lanes = std::array<std::uint64_t, kWarpCapacity>;
  struct Slot {
    std::uint64_t first = 0;  ///< the address every lane so far touched
    std::uint32_t spill = kUniform;  ///< index into spills_ once lanes differ
    std::uint8_t count = 0;  ///< lanes recorded
  };

  /// Make room for group `seq` of `warp` (the first lane to reach it).
  [[gnu::noinline]] void grow(std::size_t warp, std::uint32_t seq) {
    if (warp >= warps_.size()) warps_.resize(warp + 1);
    if (seq >= warps_[warp].size()) warps_[warp].resize(seq + 1);
  }

  /// A lane differs from a uniform group: list the lanes recorded so far.
  [[gnu::noinline]] void spill(Slot& slot) {
    slot.spill = static_cast<std::uint32_t>(spills_.size());
    spills_.emplace_back();
    std::fill_n(spills_.back().begin(), slot.count, slot.first);
  }

  /// Distinct values of `values[0, count)` in first-seen order; returns how
  /// many were written to `out`.
  static std::size_t distinct(const Lanes& values, std::uint8_t count,
                              Lanes& out) {
    std::size_t n = 0;
    for (std::uint8_t i = 0; i < count; ++i) {
      if (std::find(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n),
                    values[i]) == out.begin() + static_cast<std::ptrdiff_t>(n)) {
        out[n++] = values[i];
      }
    }
    return n;
  }

  std::vector<std::vector<Slot>> warps_;
  std::vector<Lanes> spills_;
};

inline std::uint64_t WarpAccessTracker::bank_conflicts(
    int banks, int bank_width_bytes) const {
  STARSIM_REQUIRE(banks > 0 && banks <= kMaxBanks,
                  "shared memory bank count out of range");
  std::uint64_t conflicts = 0;
  for (const std::vector<Slot>& slots : warps_) {
    for (const Slot& slot : slots) {
      if (slot.spill == kUniform) continue;  // broadcast: conflict-free
      Lanes addresses;
      const std::size_t n = distinct(spills_[slot.spill], slot.count, addresses);
      std::array<std::uint8_t, kMaxBanks> per_bank{};
      std::uint8_t worst = 1;
      for (std::size_t i = 0; i < n; ++i) {
        const auto bank = static_cast<std::size_t>(
            (addresses[i] / static_cast<std::uint64_t>(bank_width_bytes)) %
            static_cast<std::uint64_t>(banks));
        worst = std::max(worst, ++per_bank[bank]);
      }
      conflicts += static_cast<std::uint64_t>(worst) - 1;
    }
  }
  return conflicts;
}

inline std::uint64_t WarpAccessTracker::transactions(
    int segment_bytes) const {
  std::uint64_t total = 0;
  for (const std::vector<Slot>& slots : warps_) {
    for (const Slot& slot : slots) {
      if (slot.count == 0) continue;
      if (slot.spill == kUniform) {
        ++total;  // one address, one segment
        continue;
      }
      Lanes segments;
      const Lanes& addresses = spills_[slot.spill];
      for (std::uint8_t i = 0; i < slot.count; ++i) {
        segments[i] = addresses[i] / static_cast<std::uint64_t>(segment_bytes);
      }
      Lanes unique;
      total += distinct(segments, slot.count, unique);
    }
  }
  return total;
}

/// Per-block execution state. Each OS thread owns one (see run_block) and
/// rebinds it with begin() for every block it runs, so a steady-state block
/// reuses the shared-memory buffers, race cells, branch tallies and warp
/// groups of the blocks before it instead of allocating its own.
struct BlockState {
  static constexpr int kMaxBranchSites = 16;

  // Per-launch invariants, refreshed when begin() sees a new launch.
  LaunchState* launch = nullptr;
  const DeviceSpec* spec = nullptr;
  std::uint64_t launch_serial = 0;
  SanitizerMode sanitize = SanitizerMode::kOff;
  bool parallel_blocks = false;

  Dim3 block_idx;
  std::uint64_t block_linear = 0;
  int sm_id = 0;
  int warps = 0;
  KernelCounters counters;

  // Shared memory: allocations are made in program order by the first
  // thread to execute each ctx.shared_array() call; later threads attach by
  // call sequence, mirroring CUDA's static __shared__ declarations. Slots
  // [0, shared_count) belong to the current block; their buffers are reused
  // by later blocks and zero-filled for each.
  struct SharedAlloc {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;  ///< bytes allocated behind `data`
    std::size_t bytes = 0;
    std::size_t base_offset = 0;  ///< position in the block's arena

    /// Racecheck shadow: one cell per 4-byte word, tracking the last access
    /// in the current barrier epoch. Two different threads touching the
    /// same word in the same epoch with at least one write is a hazard.
    /// Empty unless racecheck is on; emptied for every block.
    struct RaceCell {
      std::int64_t write_epoch = -1;
      std::uint32_t writer = 0;
      std::int64_t read_epoch = -1;
      std::uint32_t reader = 0;
      bool multiple_readers = false;
      bool flagged = false;  ///< one finding per word, not per access
    };
    std::vector<RaceCell> race;
  };
  std::vector<SharedAlloc> shared_allocs;
  std::size_t shared_count = 0;
  std::size_t shared_used = 0;

  /// __syncthreads crossings completed so far — the racecheck epoch. Two
  /// accesses with the same epoch value have no barrier between them.
  std::uint32_t sync_epoch = 0;

  // Branch outcome tallies: [warp][site][taken]. A site evaluated with both
  // outcomes inside one warp is a divergent warp-branch.
  using SiteCounts = std::array<std::array<std::uint32_t, 2>, kMaxBranchSites>;
  std::vector<SiteCounts> branch_counts;

  // Launch-lifetime caches: the touch bitmap of the most recent atomic
  // destination (kernels direct nearly all atomics at one buffer) and the
  // most recently fetched texture. Bindings cannot change mid-launch.
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t touched_alloc_id = kNone;
  std::atomic<std::uint64_t>* touched = nullptr;
  std::uint32_t texture_index = kNone;
  const Texture2D* bound_texture = nullptr;

  // This block's SM texture cache (looked up directly by a serial block).
  SetAssociativeCache* sm_cache = nullptr;

  /// What a parallel block leaves for the in-order commit (see
  /// BlockCommitQueue); unused by a serial block.
  BlockEffects effects;

  // Warp-level access grouping (see WarpAccessTracker).
  WarpAccessTracker shared_access;
  WarpAccessTracker global_access;

  /// Rebind to block `idx` of `launch_state`, resetting every per-block
  /// field and keeping the storage.
  void begin(LaunchState& launch_state, const Dim3& idx) {
    if (launch_state.serial != launch_serial) {
      launch = &launch_state;
      spec = launch_state.spec;
      launch_serial = launch_state.serial;
      sanitize = launch_state.sanitize;
      parallel_blocks = launch_state.parallel_blocks;
      touched_alloc_id = kNone;
      touched = nullptr;
      texture_index = kNone;
      bound_texture = nullptr;
    }
    block_idx = idx;
    block_linear = launch_state.config.grid.linear(idx);
    sm_id = static_cast<int>(block_linear %
                             static_cast<std::uint64_t>(spec->sm_count));
    sm_cache = &(*launch_state.sm_caches)[static_cast<std::size_t>(sm_id)];
    effects.clear();
    effects.sm_id = sm_id;
    const std::uint64_t threads = launch_state.config.block.count();
    warps = static_cast<int>(
        (threads + static_cast<std::uint64_t>(spec->warp_size) - 1) /
        static_cast<std::uint64_t>(spec->warp_size));
    counters = KernelCounters{};
    counters.blocks_launched = 1;
    counters.threads_launched = threads;
    counters.warps_launched = static_cast<std::uint64_t>(warps);
    shared_count = 0;
    shared_used = 0;
    sync_epoch = 0;
    branch_counts.assign(static_cast<std::size_t>(warps), SiteCounts{});
    shared_access.clear();
    global_access.clear();
  }

  /// The launch's touch bitmap for `alloc_id` (see LaunchState).
  std::atomic<std::uint64_t>* touched_bits(std::uint32_t alloc_id,
                                           std::size_t element_count) {
    if (alloc_id != touched_alloc_id) [[unlikely]] {
      touched = launch->touched_bits(alloc_id, element_count);
      touched_alloc_id = alloc_id;
    }
    return touched;
  }

  /// The texture bound at `handle` (throws for an invalid handle).
  const Texture2D& texture(TextureHandle handle) {
    if (bound_texture == nullptr || handle.index != texture_index)
        [[unlikely]] {
      bound_texture = &launch->texture(handle);
      texture_index = handle.index;
    }
    return *bound_texture;
  }

  /// Fold branch tallies into the divergence counters (runner calls this
  /// once when the block retires).
  void finalize_branch_stats() {
    for (const SiteCounts& per_warp : branch_counts) {
      for (const auto& site : per_warp) {
        const bool any = site[0] > 0 || site[1] > 0;
        if (!any) continue;
        ++counters.branch_sites_evaluated;
        if (site[0] > 0 && site[1] > 0) ++counters.divergent_warp_branches;
      }
    }
    counters.shared_bank_conflicts = shared_access.bank_conflicts(
        spec->shared_memory_banks, spec->shared_bank_width_bytes);
    counters.global_transactions =
        global_access.transactions(spec->global_transaction_bytes);
  }
};

}  // namespace starsim::gpusim
