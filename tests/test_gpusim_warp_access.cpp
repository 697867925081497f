// Warp-level access grouping: shared-memory bank conflicts and global
// memory coalescing — the two hardware behaviours Section III-B's
// optimizations (register staging, coalesced star loads) are aimed at.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch_state.h"
#include "support/error.h"

namespace {

namespace gs = starsim::gpusim;

struct SerialDevice : gs::Device {
  SerialDevice() : gs::Device(gs::DeviceSpec::test_small()) {
    set_parallel_blocks(false);
  }
};

// ---------- WarpAccessTracker unit level ----------

TEST(WarpAccessTracker, BroadcastIsConflictFree) {
  gs::WarpAccessTracker tracker;
  for (int t = 0; t < 32; ++t) tracker.record(0, 0, 64);  // same address
  EXPECT_EQ(tracker.bank_conflicts(32, 4), 0u);
}

TEST(WarpAccessTracker, UnitStrideIsConflictFree) {
  gs::WarpAccessTracker tracker;
  for (std::uint64_t t = 0; t < 32; ++t) tracker.record(0, 0, t * 4);
  EXPECT_EQ(tracker.bank_conflicts(32, 4), 0u);
}

TEST(WarpAccessTracker, StrideTwoIsTwoWayConflict) {
  gs::WarpAccessTracker tracker;
  // 32 threads, 8-byte stride: threads t and t+16 share bank (2t mod 32).
  for (std::uint64_t t = 0; t < 32; ++t) tracker.record(0, 0, t * 8);
  EXPECT_EQ(tracker.bank_conflicts(32, 4), 1u);  // one extra pass
}

TEST(WarpAccessTracker, SameBankAllThreadsIsWorstCase) {
  gs::WarpAccessTracker tracker;
  // 32 distinct addresses, all bank 0 (stride = 32 banks x 4 B).
  for (std::uint64_t t = 0; t < 32; ++t) tracker.record(0, 0, t * 128);
  EXPECT_EQ(tracker.bank_conflicts(32, 4), 31u);
}

TEST(WarpAccessTracker, SlotsAccumulateIndependently) {
  gs::WarpAccessTracker tracker;
  for (std::uint64_t t = 0; t < 32; ++t) {
    tracker.record(0, 0, t * 8);    // 2-way conflict
    tracker.record(0, 1, t * 4);    // clean
    tracker.record(1, 0, t * 128);  // other warp: 32-way
  }
  EXPECT_EQ(tracker.bank_conflicts(32, 4), 1u + 31u);
}

TEST(WarpAccessTracker, CoalescedLoadIsOneTransaction) {
  gs::WarpAccessTracker tracker;
  for (std::uint64_t t = 0; t < 32; ++t) tracker.record(0, 0, t * 4);
  EXPECT_EQ(tracker.transactions(128), 1u);  // 128 contiguous bytes
}

TEST(WarpAccessTracker, ScatteredLoadIsOneTransactionPerSegment) {
  gs::WarpAccessTracker tracker;
  for (std::uint64_t t = 0; t < 32; ++t) tracker.record(0, 0, t * 128);
  EXPECT_EQ(tracker.transactions(128), 32u);
}

TEST(WarpAccessTracker, TwoSegmentStraddle) {
  gs::WarpAccessTracker tracker;
  // 32 x 8-byte accesses = 256 bytes = 2 segments.
  for (std::uint64_t t = 0; t < 32; ++t) tracker.record(0, 0, t * 8);
  EXPECT_EQ(tracker.transactions(128), 2u);
}

TEST(WarpAccessTracker, SameAddressLoadsShareOneTransaction) {
  gs::WarpAccessTracker tracker;
  for (int t = 0; t < 32; ++t) tracker.record(0, 0, 4096);
  EXPECT_EQ(tracker.transactions(128), 1u);
}

// A warp group is kept as one address while every lane agrees and spilled
// to a full lane list when one differs. Whatever the lane at which it
// diverges, and whatever the differing address, the counts must equal those
// computed from every lane's address.
std::uint64_t reference_bank_conflicts(const std::vector<std::uint64_t>& lanes) {
  std::vector<std::uint64_t> distinct;
  for (std::uint64_t a : lanes) {
    if (std::find(distinct.begin(), distinct.end(), a) == distinct.end()) {
      distinct.push_back(a);
    }
  }
  std::vector<int> per_bank(32, 0);
  int worst = 1;
  for (std::uint64_t a : distinct) worst = std::max(worst, ++per_bank[(a / 4) % 32]);
  return static_cast<std::uint64_t>(worst - 1);
}

std::uint64_t reference_transactions(const std::vector<std::uint64_t>& lanes) {
  std::vector<std::uint64_t> segments;
  for (std::uint64_t a : lanes) {
    if (std::find(segments.begin(), segments.end(), a / 128) ==
        segments.end()) {
      segments.push_back(a / 128);
    }
  }
  return segments.size();
}

TEST(WarpAccessTracker, UniformSlotThatDivergesCountsEveryLane) {
  const std::uint64_t base = 4096 + 8;
  // Same bank other segment, other bank same segment, far away, and a lane
  // pattern that returns to the uniform address after diverging.
  const std::vector<std::uint64_t> offsets = {128, 4, 1 << 20, 256 + 8};
  for (int diverge_at : {1, 2, 5, 16, 31}) {
    for (std::uint64_t offset : offsets) {
      for (int period : {1, 2, 3}) {
        std::vector<std::uint64_t> lanes;
        for (int t = 0; t < 32; ++t) {
          const bool differs = t >= diverge_at && (t - diverge_at) % period == 0;
          lanes.push_back(differs ? base + offset * static_cast<std::uint64_t>(
                                                     1 + (t % 3))
                                  : base);
        }
        gs::WarpAccessTracker tracker;
        for (int t = 0; t < 32; ++t) {
          tracker.record(0, 0, lanes[static_cast<std::size_t>(t)]);
          tracker.record(1, 2, base);  // an untouched uniform slot beside it
        }
        SCOPED_TRACE(testing::Message() << "diverge_at " << diverge_at
                                        << " offset " << offset << " period "
                                        << period);
        EXPECT_EQ(tracker.bank_conflicts(32, 4),
                  reference_bank_conflicts(lanes));
        EXPECT_EQ(tracker.transactions(128), reference_transactions(lanes) + 1);
      }
    }
  }
}

TEST(WarpAccessTracker, ClearForgetsSpilledSlots) {
  gs::WarpAccessTracker tracker;
  for (std::uint64_t t = 0; t < 32; ++t) tracker.record(0, 0, t * 128);
  EXPECT_EQ(tracker.bank_conflicts(32, 4), 31u);
  tracker.clear();
  for (int t = 0; t < 32; ++t) tracker.record(0, 0, 64);
  EXPECT_EQ(tracker.bank_conflicts(32, 4), 0u);
  EXPECT_EQ(tracker.transactions(128), 1u);
}

// ---------- End-to-end through kernels ----------

TEST(WarpAccess, KernelUnitStrideLoadsCoalesce) {
  SerialDevice dev;
  auto buf = dev.malloc<float>(64);
  dev.memset_zero(buf);
  auto kernel = [&buf](gs::ThreadCtx& ctx, unsigned) {
    (void)ctx.load(buf, ctx.thread_linear());
    return gs::Step::kExit;
  };
  // 64 threads = 2 warps; each warp's 32 x 4 B = one 128 B transaction.
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(64)}, kernel);
  EXPECT_EQ(r.counters.global_reads, 64u);
  EXPECT_EQ(r.counters.global_transactions, 2u);
}

TEST(WarpAccess, KernelStridedLoadsDoNotCoalesce) {
  SerialDevice dev;
  auto buf = dev.malloc<float>(32 * 32);
  dev.memset_zero(buf);
  auto kernel = [&buf](gs::ThreadCtx& ctx, unsigned) {
    (void)ctx.load(buf, ctx.thread_linear() * 32ull);  // 128 B apart
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(32)}, kernel);
  EXPECT_EQ(r.counters.global_transactions, 32u);
}

TEST(WarpAccess, DistinctAllocationsNeverCoalesce) {
  SerialDevice dev;
  auto a = dev.malloc<float>(32);
  auto b = dev.malloc<float>(32);
  dev.memset_zero(a);
  dev.memset_zero(b);
  auto kernel = [&a, &b](gs::ThreadCtx& ctx, unsigned) {
    // Even threads read allocation a at offset 0, odd threads b at offset
    // 0: same byte offsets, different buffers — two transactions.
    if (ctx.thread_linear() % 2 == 0) {
      (void)ctx.load(a, 0);
    } else {
      (void)ctx.load(b, 0);
    }
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(32)}, kernel);
  EXPECT_EQ(r.counters.global_transactions, 2u);
}

TEST(WarpAccess, SharedBroadcastReadHasNoConflicts) {
  SerialDevice dev;
  // The Fig. 6 pattern: every thread reads shared[0..2].
  auto kernel = [](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(3);
    if (phase == 0) {
      if (ctx.thread_linear() == 0) {
        shared.set(0, 1.0f);
        shared.set(1, 2.0f);
        shared.set(2, 3.0f);
      }
      return gs::Step::kSync;
    }
    float total = 0.0f;
    total += shared.get(0);
    total += shared.get(1);
    total += shared.get(2);
    ctx.count_flops(static_cast<std::uint64_t>(total) == 6u ? 1 : 1);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(2), gs::Dim3(64)}, kernel);
  EXPECT_EQ(r.counters.shared_bank_conflicts, 0u);
}

TEST(WarpAccess, SharedStrideTwoConflicts) {
  SerialDevice dev;
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    auto shared = ctx.shared_array<float>(128);
    shared.set(ctx.thread_linear() * 2ull, 1.0f);  // 8-byte stride
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(32)}, kernel);
  EXPECT_EQ(r.counters.shared_bank_conflicts, 1u);
}

TEST(WarpAccess, SharedSameBankWorstCase) {
  SerialDevice dev;  // 1 KiB shared per block caps the array at 256 floats
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    auto shared = ctx.shared_array<float>(8ull * 32ull);
    shared.set(ctx.thread_linear() * 32ull, 1.0f);  // all bank 0
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(8)}, kernel);
  EXPECT_EQ(r.counters.shared_bank_conflicts, 7u);
}

TEST(WarpAccess, ConflictsRaiseModeledSharedTime) {
  const gs::DeviceSpec spec = gs::DeviceSpec::gtx480();
  gs::LaunchConfig config{gs::Dim3(64), gs::Dim3(32)};
  gs::KernelCounters clean;
  clean.blocks_launched = 64;
  clean.threads_launched = 2048;
  clean.warps_launched = 64;
  clean.shared_reads = 100000;
  gs::KernelCounters conflicted = clean;
  conflicted.shared_bank_conflicts = 3'100'000;
  EXPECT_GT(gs::estimate_kernel_time(spec, config, conflicted).shared_s,
            gs::estimate_kernel_time(spec, config, clean).shared_s * 2);
}

TEST(WarpAccess, CoalescingLowersModeledGlobalTime) {
  const gs::DeviceSpec spec = gs::DeviceSpec::gtx480();
  gs::LaunchConfig config{gs::Dim3(64), gs::Dim3(32)};
  gs::KernelCounters scattered;
  scattered.blocks_launched = 64;
  scattered.threads_launched = 2048;
  scattered.warps_launched = 64;
  scattered.global_reads = 1'000'000;
  scattered.global_bytes_read = 4'000'000;
  scattered.global_transactions = 1'000'000;  // nothing coalesced
  gs::KernelCounters coalesced = scattered;
  coalesced.global_transactions = 1'000'000 / 32;
  EXPECT_LT(gs::estimate_kernel_time(spec, config, coalesced).global_s,
            gs::estimate_kernel_time(spec, config, scattered).global_s);
}

}  // namespace
