// In-order commit of the order-sensitive effects of blocks that execute out
// of order.
//
// With parallel blocks, the blocks of a launch run on several OS threads in
// an order that changes from run to run. Two of a block's effects depend on
// the order blocks land in: float atomicAdds (float addition does not
// associate, so a pixel summed in a different order differs in the last
// bits) and SM texture-cache lookups (a hit depends on the lines the
// earlier blocks of that SM left behind). A parallel block therefore stages
// both in its BlockEffects instead of applying them, and BlockCommitQueue
// applies the staged effects in block-index order, the order a serial
// launch applies them in. A parallel launch thus ends with the image bits,
// the cache state and the texture counters of the serial launch, on any
// number of OS threads.
//
// Blocks hand their effects over as they finish; whichever thread finds
// the next block in index order ready applies it (and every ready block
// after it), so no thread waits for the commit while blocks are left to
// run. A bounded ring holds the blocks that finished ahead of an earlier,
// slower one; a thread whose block would overrun the ring helps commit
// until there is room.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gpusim/cache.h"
#include "gpusim/counters.h"

namespace starsim::gpusim {

/// The order-sensitive effects one block staged, in program order.
struct BlockEffects {
  struct Add {
    float* target = nullptr;
    float value = 0.0f;
  };
  std::vector<Add> adds;  ///< float atomicAdds
  /// Cache addresses of the texture fetches that went to the SM cache
  /// (border fetches never reach it).
  std::vector<std::uint64_t> texture_addresses;
  int sm_id = 0;

  void clear() {
    adds.clear();
    texture_addresses.clear();
  }
};

class BlockCommitQueue {
 public:
  static constexpr std::size_t kDefaultSlots = 256;

  explicit BlockCommitQueue(std::size_t slots = kDefaultSlots)
      : slots_(std::make_unique<Slot[]>(slots)), slot_count_(slots) {}

  /// Start a launch whose texture lookups go to `sm_caches` (indexed by SM).
  void begin(std::vector<SetAssociativeCache>* sm_caches) {
    sm_caches_ = sm_caches;
    next_.store(0);
    texture_hits_ = 0;
    texture_misses_ = 0;
  }

  /// Hand over the effects of block `block` (a copy; `effects` keeps its
  /// storage) and commit whatever is now in order. Every block of the
  /// launch must be submitted exactly once, a failed one included.
  void submit(std::uint64_t block, const BlockEffects& effects) {
    while (block - next_.load() >= slot_count_) {
      drain();
      std::this_thread::yield();
    }
    Slot& slot = slots_[block % slot_count_];
    slot.effects.adds.assign(effects.adds.begin(), effects.adds.end());
    slot.effects.texture_addresses.assign(effects.texture_addresses.begin(),
                                          effects.texture_addresses.end());
    slot.effects.sm_id = effects.sm_id;
    slot.ready.store(true);
    drain();
  }

  /// After every block was submitted and every submitting thread joined:
  /// commit the rest and add the texture hits and misses to `totals`.
  void finish(KernelCounters& totals) {
    drain();
    totals.texture_hits += texture_hits_;
    totals.texture_misses += texture_misses_;
  }

 private:
  struct Slot {
    BlockEffects effects;
    std::atomic<bool> ready{false};
  };

  /// Commit every ready block from next_ on. Only one thread commits at a
  /// time; one that finds the lock taken leaves its block to the holder, or
  /// to the next submit or finish().
  void drain() {
    const std::unique_lock<std::mutex> lock(commit_mutex_, std::try_to_lock);
    if (!lock.owns_lock()) return;
    std::uint64_t next = next_.load();
    for (;;) {
      Slot& slot = slots_[next % slot_count_];
      if (!slot.ready.load()) break;
      apply(slot.effects);
      slot.ready.store(false);
      next_.store(++next);
    }
  }

  void apply(const BlockEffects& effects) {
    for (const BlockEffects::Add& add : effects.adds) {
      *add.target += add.value;
    }
    if (effects.texture_addresses.empty()) return;
    SetAssociativeCache& cache =
        (*sm_caches_)[static_cast<std::size_t>(effects.sm_id)];
    for (const std::uint64_t address : effects.texture_addresses) {
      if (cache.access(address)) {
        ++texture_hits_;
      } else {
        ++texture_misses_;
      }
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t slot_count_;
  std::vector<SetAssociativeCache>* sm_caches_ = nullptr;
  std::atomic<std::uint64_t> next_{0};  ///< first block not yet committed
  std::mutex commit_mutex_;
  // Guarded by commit_mutex_.
  std::uint64_t texture_hits_ = 0;
  std::uint64_t texture_misses_ = 0;
};

}  // namespace starsim::gpusim
