// Executes one thread block to completion.
//
// A kernel is a sequence of phases separated by __syncthreads (see Step).
// All threads of a block run on a single OS thread: phase 0 runs as a plain
// loop over the threads in warp order, then phase 1, and so on, so a
// barrier is the boundary between two loops and nothing suspends. The block
// retires after the first phase in which every thread exits. CUDA's barrier
// contract is enforced — if, within one phase, some threads arrive at the
// barrier while others exit, the launch fails with a DeviceError instead of
// deadlocking (the real hardware's behaviour is undefined; failing loudly
// is the useful simulation of "undefined"). Under the sanitizer's synccheck
// tool the divergence is instead recorded as a kBarrierDivergence finding
// and the block is abandoned, so a sanitized run reports the defect for
// every affected block rather than dying on the first.
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gpusim/launch_state.h"
#include "gpusim/thread_ctx.h"

namespace starsim::gpusim {

namespace detail {

/// Storage one OS thread reuses for every block it runs: the block state
/// and the thread contexts. Reused across launches too, so a steady-state
/// block allocates nothing but what its kernel does.
struct BlockScratch {
  BlockState block;
  std::vector<ThreadCtx> ctxs;
};

inline BlockScratch& block_scratch() {
  thread_local BlockScratch scratch;
  return scratch;
}

}  // namespace detail

/// Run the block `block_idx` of the launch described by `launch`, invoking
/// `kernel(ctx, phase)` once per thread and phase. The block's counters are
/// merged into the launch totals when the block retires.
template <typename KernelFn>
void run_block(LaunchState& launch, const Dim3& block_idx,
               const KernelFn& kernel) {
  static_assert(
      std::is_same_v<std::invoke_result_t<const KernelFn&, ThreadCtx&, unsigned>,
                     Step>,
      "a gpusim kernel is a callable Step(ThreadCtx&, unsigned phase)");
  detail::BlockScratch& scratch = detail::block_scratch();
  BlockState& block = scratch.block;
  block.begin(launch, block_idx);
  const Dim3& dim = launch.config.block;
  const std::size_t thread_count = static_cast<std::size_t>(dim.count());
  const auto warp_size = static_cast<std::uint32_t>(launch.spec->warp_size);

  std::vector<ThreadCtx>& ctxs = scratch.ctxs;
  ctxs.clear();
  ctxs.reserve(thread_count);
  std::uint32_t t = 0;
  std::uint32_t warp = 0;
  std::uint32_t lane = 0;
  for (std::uint32_t z = 0; z < dim.z; ++z) {
    for (std::uint32_t y = 0; y < dim.y; ++y) {
      for (std::uint32_t x = 0; x < dim.x; ++x, ++t) {
        ctxs.emplace_back(&block, Dim3(x, y, z), t, warp);
        if (++lane == warp_size) {
          lane = 0;
          ++warp;
        }
      }
    }
  }

  // Every thread runs every phase: a phase that some threads exit and
  // others end at the barrier is the divergence below, so no thread can
  // leave early and a phase after a barrier finds them all alive.
  for (unsigned phase = 0;; ++phase) {
    std::size_t synced = 0;
    std::size_t first_synced = thread_count;  // a thread at the barrier
    for (std::size_t i = 0; i < thread_count; ++i) {
      ThreadCtx& ctx = ctxs[i];
      ctx.begin_phase();
      if (kernel(ctx, phase) == Step::kSync && synced++ == 0) first_synced = i;
    }
    if (synced == 0) break;
    if (synced < thread_count) {
      const std::string message =
          "__syncthreads divergence in block " + to_string(block_idx) + ": " +
          std::to_string(synced) + " thread(s) at the barrier, " +
          std::to_string(thread_count - synced) + " exited without it";
      if (sanitizer_enabled(block.sanitize, SanitizerMode::kSynccheck)) {
        SanitizerFinding finding;
        finding.kind = SanitizerFindingKind::kBarrierDivergence;
        finding.block = block_idx;
        finding.thread = ctxs[first_synced].thread_idx();
        finding.epoch = block.sync_epoch;
        finding.message = message;
        launch.report_finding(std::move(finding));
        // Abandon the block; whatever was counted so far still merges.
        block.finalize_branch_stats();
        launch.merge_block(block.counters);
        return;
      }
      throw support::DeviceError(message);
    }
    // Every warp of the block crosses this barrier once.
    block.counters.barriers += static_cast<std::uint64_t>(block.warps);
    ++block.sync_epoch;
  }

  block.finalize_branch_stats();
  launch.merge_block(block.counters);
}

}  // namespace starsim::gpusim
