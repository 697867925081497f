// Executes one thread block to completion.
//
// All threads of a block run as coroutines on a single OS thread, resumed in
// warp order. Execution proceeds in passes: each pass resumes every live
// thread until it either finishes or suspends at a __syncthreads barrier.
// CUDA's barrier contract is enforced — if, within one pass, some threads
// reach a barrier while others run to completion, the launch fails with a
// DeviceError instead of deadlocking (the real hardware's behaviour is
// undefined; failing loudly is the useful simulation of "undefined").
// Under the sanitizer's synccheck tool the divergence is instead recorded
// as a kBarrierDivergence finding and the block is abandoned (stranded
// coroutines are destroyed), so a sanitized run reports the defect for
// every affected block rather than dying on the first.
#pragma once

#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/launch_state.h"
#include "gpusim/thread_ctx.h"
#include "gpusim/thread_program.h"

namespace starsim::gpusim {

namespace detail {

/// Storage one OS thread reuses for every block it runs: the block state,
/// the thread contexts and the coroutine handles. Reused across launches
/// too, so a steady-state block allocates nothing but what its kernel does.
struct BlockScratch {
  BlockState block;
  std::vector<ThreadCtx> ctxs;
  std::vector<ThreadProgram::Handle> handles;
};

inline BlockScratch& block_scratch() {
  thread_local BlockScratch scratch;
  return scratch;
}

/// RAII guard over the raw coroutine handles of a block so an exception
/// mid-run (kernel error or barrier-contract violation) cannot leak frames.
/// A retired (finished) thread's handle is null.
class HandleSet {
 public:
  HandleSet(std::vector<ThreadProgram::Handle>& handles, std::size_t count)
      : handles_(handles) {
    handles_.assign(count, ThreadProgram::Handle{});
  }
  HandleSet(const HandleSet&) = delete;
  HandleSet& operator=(const HandleSet&) = delete;
  ~HandleSet() {
    for (ThreadProgram::Handle& handle : handles_) {
      if (handle) handle.destroy();
      handle = {};
    }
  }

  ThreadProgram::Handle& operator[](std::size_t i) { return handles_[i]; }

  /// Destroy and null the handle at `i`.
  void retire(std::size_t i) {
    handles_[i].destroy();
    handles_[i] = {};
  }

 private:
  std::vector<ThreadProgram::Handle>& handles_;
};

}  // namespace detail

/// Run the block `block_idx` of the launch described by `launch`, invoking
/// `kernel(ctx)` once per thread. The block's counters are merged into the
/// launch totals when the block retires.
template <typename KernelFn>
void run_block(LaunchState& launch, const Dim3& block_idx,
               const KernelFn& kernel) {
  detail::BlockScratch& scratch = detail::block_scratch();
  BlockState& block = scratch.block;
  block.begin(launch, block_idx);
  const Dim3& dim = launch.config.block;
  const std::size_t thread_count = static_cast<std::size_t>(dim.count());
  const auto warp_size = static_cast<std::uint32_t>(launch.spec->warp_size);

  // Kernels hold references to their ThreadCtx: reserve first so no
  // emplace_back below can move one.
  std::vector<ThreadCtx>& ctxs = scratch.ctxs;
  ctxs.clear();
  ctxs.reserve(thread_count);
  detail::HandleSet handles(scratch.handles, thread_count);
  std::uint32_t t = 0;
  std::uint32_t warp = 0;
  std::uint32_t lane = 0;
  for (std::uint32_t z = 0; z < dim.z; ++z) {
    for (std::uint32_t y = 0; y < dim.y; ++y) {
      for (std::uint32_t x = 0; x < dim.x; ++x, ++t) {
        ctxs.emplace_back(&block, Dim3(x, y, z), t, warp);
        handles[t] = kernel(ctxs[t]).release();
        if (++lane == warp_size) {
          lane = 0;
          ++warp;
        }
      }
    }
  }

  std::size_t live = thread_count;
  while (live > 0) {
    std::size_t suspended = 0;
    std::size_t finished_this_pass = 0;
    std::size_t first_waiting = thread_count;  // a thread at the barrier
    for (std::size_t i = 0; i < thread_count; ++i) {
      ThreadProgram::Handle& handle = handles[i];
      if (!handle) continue;  // retired
      handle.resume();
      if (handle.done()) {
        std::exception_ptr exception = std::move(handle.promise().exception);
        handles.retire(i);
        --live;
        ++finished_this_pass;
        if (exception) std::rethrow_exception(exception);
      } else {
        STARSIM_REQUIRE(ctxs[i].at_barrier(),
                        "thread suspended outside a barrier");
        ctxs[i].clear_barrier();
        if (first_waiting == thread_count) first_waiting = i;
        ++suspended;
      }
    }
    if (suspended > 0) {
      if (finished_this_pass > 0) {
        const std::string message =
            "__syncthreads divergence in block " + to_string(block_idx) +
            ": " + std::to_string(suspended) + " thread(s) at the barrier, " +
            std::to_string(finished_this_pass) + " exited without it";
        if (sanitizer_enabled(block.sanitize, SanitizerMode::kSynccheck)) {
          SanitizerFinding finding;
          finding.kind = SanitizerFindingKind::kBarrierDivergence;
          finding.block = block_idx;
          finding.thread = ctxs[first_waiting].thread_idx();
          finding.epoch = block.sync_epoch;
          finding.message = message;
          launch.report_finding(std::move(finding));
          // Abandon the block: HandleSet destroys the stranded coroutines;
          // whatever was counted so far still merges.
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
  }

  block.finalize_branch_stats();
  launch.merge_block(block.counters);
}

}  // namespace starsim::gpusim
