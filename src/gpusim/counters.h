// Execution counters gathered while a kernel runs functionally.
//
// These are the *inputs* to the performance model (perf_model.h): the
// functional engine executes the kernel on real data and tallies the work it
// actually performed; the model converts the tallies into modeled time using
// DeviceSpec parameters. Nothing in the timing path is hard-coded per
// kernel — change the kernel and the counters (hence the time) change.
#pragma once

#include <cstdint>
#include <string>

namespace starsim::gpusim {

struct KernelCounters {
  // Launch geometry.
  std::uint64_t blocks_launched = 0;
  std::uint64_t threads_launched = 0;
  std::uint64_t warps_launched = 0;

  // Arithmetic, in fp64 flop-equivalents. Transcendentals are counted at
  // the DeviceSpec's flop-equivalent cost (software fp64 exp/pow on Fermi).
  std::uint64_t flops = 0;

  // Global (device) memory.
  std::uint64_t global_reads = 0;
  std::uint64_t global_writes = 0;
  std::uint64_t global_bytes_read = 0;
  std::uint64_t global_bytes_written = 0;
  /// Memory transactions after warp-level coalescing: accesses issued by
  /// the threads of a warp at the same program point that fall in the same
  /// 128-byte segment are serviced together.
  std::uint64_t global_transactions = 0;

  // On-chip shared memory.
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;
  /// Extra serialized passes caused by warp-simultaneous accesses to
  /// *distinct* addresses in the same bank (same-address broadcasts are
  /// free, as on real hardware).
  std::uint64_t shared_bank_conflicts = 0;

  // Atomic read-modify-write operations on global memory, and how many of
  // them landed on an address some other atomic in the same launch also
  // touched (exact: atomic_ops minus the distinct addresses touched).
  std::uint64_t atomic_ops = 0;
  std::uint64_t atomic_conflicts = 0;

  // Texture unit.
  std::uint64_t texture_fetches = 0;
  std::uint64_t texture_hits = 0;
  std::uint64_t texture_misses = 0;

  // Control.
  std::uint64_t barriers = 0;  ///< warp-barrier crossings (warps x epochs)
  std::uint64_t branch_sites_evaluated = 0;  ///< warp x site evaluations
  std::uint64_t divergent_warp_branches = 0;  ///< of those, mixed outcomes

  /// Accumulate another counter set (per-block -> per-launch merging).
  void merge(const KernelCounters& other);

  /// Total global memory traffic in bytes.
  [[nodiscard]] std::uint64_t global_bytes() const {
    return global_bytes_read + global_bytes_written;
  }

  /// Fraction of evaluated warp-branch sites that diverged (0 when none).
  [[nodiscard]] double divergence_rate() const {
    return branch_sites_evaluated == 0
               ? 0.0
               : static_cast<double>(divergent_warp_branches) /
                     static_cast<double>(branch_sites_evaluated);
  }

  [[nodiscard]] std::string to_string() const;
};

}  // namespace starsim::gpusim
