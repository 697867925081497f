// Execution-semantics tests for the functional GPU engine: thread identity,
// barriers, shared memory, atomics, divergence tracking, counters, and
// error behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/device.h"
#include "support/error.h"

namespace {

namespace gs = starsim::gpusim;
using starsim::support::DeviceError;
using starsim::support::PreconditionError;

gs::Step noop_kernel(gs::ThreadCtx&, unsigned) { return gs::Step::kExit; }

// Device is non-copyable; tests construct in place and serialize block
// execution for deterministic counters.
struct SerialDevice : gs::Device {
  SerialDevice() : gs::Device(gs::DeviceSpec::test_small()) {
    set_parallel_blocks(false);
  }
};

TEST(Exec, EveryThreadRunsExactlyOnce) {
  SerialDevice dev;
  auto out = dev.malloc<float>(2 * 3 * 4 * 2);  // grid(2,3) x block(4,2)
  dev.memset_zero(out);

  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    const std::uint64_t global =
        ctx.block_linear() * ctx.block_dim().count() +
        ctx.block_dim().linear(ctx.thread_idx());
    ctx.atomic_add(out, global, 1.0f);
    return gs::Step::kExit;
  };
  gs::LaunchConfig config{gs::Dim3(2, 3), gs::Dim3(4, 2)};
  const gs::LaunchResult r = dev.launch(config, kernel);

  std::vector<float> host(out.size());
  dev.memcpy_d2h(std::span<float>(host), out);
  for (float v : host) ASSERT_EQ(v, 1.0f);
  EXPECT_EQ(r.counters.threads_launched, 48u);
  EXPECT_EQ(r.counters.blocks_launched, 6u);
  dev.free(out);
}

TEST(Exec, ThreadAndBlockIndicesAreCorrect) {
  SerialDevice dev;
  // Encode identity into a value and verify it lands at the right slot.
  auto out = dev.malloc<float>(4 * 6);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    const auto bx = ctx.block_idx().x;
    const auto tx = ctx.thread_idx().x;
    const auto ty = ctx.thread_idx().y;
    const std::uint64_t slot = ctx.block_linear() * 6 + ty * 3 + tx;
    ctx.store(out, slot,
              static_cast<float>(bx * 100 + ty * 10 + tx));
    return gs::Step::kExit;
  };
  gs::LaunchConfig config{gs::Dim3(4), gs::Dim3(3, 2)};
  (void)dev.launch(config, kernel);
  std::vector<float> host(out.size());
  dev.memcpy_d2h(std::span<float>(host), out);
  for (unsigned b = 0; b < 4; ++b) {
    for (unsigned ty = 0; ty < 2; ++ty) {
      for (unsigned tx = 0; tx < 3; ++tx) {
        ASSERT_EQ(host[b * 6 + ty * 3 + tx],
                  static_cast<float>(b * 100 + ty * 10 + tx));
      }
    }
  }
  dev.free(out);
}

TEST(Exec, GridAndBlockDimsVisibleInKernel) {
  SerialDevice dev;
  auto out = dev.malloc<float>(4);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    if (ctx.block_linear() == 0 && ctx.thread_linear() == 0) {
      ctx.store(out, 0, static_cast<float>(ctx.grid_dim().x));
      ctx.store(out, 1, static_cast<float>(ctx.grid_dim().y));
      ctx.store(out, 2, static_cast<float>(ctx.block_dim().x));
      ctx.store(out, 3, static_cast<float>(ctx.block_dim().y));
    }
    return gs::Step::kExit;
  };
  (void)dev.launch({gs::Dim3(5, 2), gs::Dim3(4, 3)}, kernel);
  std::vector<float> host(4);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 5.0f);
  EXPECT_EQ(host[1], 2.0f);
  EXPECT_EQ(host[2], 4.0f);
  EXPECT_EQ(host[3], 3.0f);
  dev.free(out);
}

TEST(Exec, BarrierOrdersSharedMemoryWrites) {
  SerialDevice dev;
  auto out = dev.malloc<float>(64);
  // Thread 0 writes shared memory; all threads read it after the barrier —
  // the exact Fig. 6 pattern. Without the barrier threads running before
  // thread 0 would read zero.
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(1);
    if (phase == 0) {
      // Run threads in reverse-dependency order: the LAST thread writes.
      if (ctx.thread_linear() == ctx.block_dim().count() - 1) {
        shared.set(0, 42.0f);
      }
      return gs::Step::kSync;
    }
    ctx.store(out, ctx.thread_linear(), shared.get(0));
    return gs::Step::kExit;
  };
  (void)dev.launch({gs::Dim3(1), gs::Dim3(64)}, kernel);
  std::vector<float> host(64);
  dev.memcpy_d2h(std::span<float>(host), out);
  for (float v : host) ASSERT_EQ(v, 42.0f);
  dev.free(out);
}

TEST(Exec, MultipleBarriersAlternatePhases) {
  SerialDevice dev;
  auto out = dev.malloc<float>(32);
  // A value read in one phase and used in a later one crosses the barrier
  // through shared memory, as in CUDA.
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(1);
    auto first = ctx.shared_array<float>(32);
    switch (phase) {
      case 0:
        if (ctx.thread_linear() == 0) shared.set(0, 1.0f);
        return gs::Step::kSync;
      case 1:
        first.set(ctx.thread_linear(), shared.get(0));
        return gs::Step::kSync;
      case 2:
        if (ctx.thread_linear() == 31) shared.set(0, first.get(31) + 1.0f);
        return gs::Step::kSync;
      default:
        ctx.store(out, ctx.thread_linear(), shared.get(0));
        return gs::Step::kExit;
    }
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(32)}, kernel);
  std::vector<float> host(32);
  dev.memcpy_d2h(std::span<float>(host), out);
  for (float v : host) ASSERT_EQ(v, 2.0f);
  EXPECT_EQ(r.counters.barriers, 3u);  // 1 warp x 3 barrier epochs
  dev.free(out);
}

TEST(Exec, BarrierDivergenceIsAnError) {
  SerialDevice dev;
  auto kernel = [](gs::ThreadCtx& ctx, unsigned phase) {
    if (phase == 0 && ctx.thread_linear() % 2 == 0) {
      return gs::Step::kSync;  // odd threads never arrive
    }
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)dev.launch({gs::Dim3(1), gs::Dim3(8)}, kernel),
               DeviceError);
}

TEST(Exec, KernelExceptionPropagates) {
  SerialDevice dev;
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    if (ctx.thread_linear() == 3) {
      throw std::runtime_error("bad thread");
    }
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)dev.launch({gs::Dim3(1), gs::Dim3(8)}, kernel),
               std::runtime_error);
}

TEST(Exec, GlobalLoadStoreBoundsChecked) {
  SerialDevice dev;
  auto buffer = dev.malloc<float>(4);
  auto kernel = [&buffer](gs::ThreadCtx& ctx, unsigned) {
    ctx.store(buffer, 100, 1.0f);  // out of bounds
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel),
               PreconditionError);
  dev.free(buffer);
}

TEST(Exec, SharedMemoryIsPerBlock) {
  SerialDevice dev;
  auto out = dev.malloc<float>(8);
  // Each block writes its own id into shared memory; cross-block leakage
  // would mix ids.
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(1);
    if (phase == 0) {
      if (ctx.thread_linear() == 0) {
        shared.set(0, static_cast<float>(ctx.block_linear()));
      }
      return gs::Step::kSync;
    }
    if (ctx.thread_linear() == 1) {
      ctx.store(out, ctx.block_linear(), shared.get(0));
    }
    return gs::Step::kExit;
  };
  (void)dev.launch({gs::Dim3(8), gs::Dim3(2)}, kernel);
  std::vector<float> host(8);
  dev.memcpy_d2h(std::span<float>(host), out);
  for (unsigned b = 0; b < 8; ++b) ASSERT_EQ(host[b], static_cast<float>(b));
  dev.free(out);
}

TEST(Exec, SharedMemoryZeroInitialized) {
  SerialDevice dev;
  auto out = dev.malloc<float>(1);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    auto shared = ctx.shared_array<float>(4);
    ctx.store(out, 0, shared.get(3));
    return gs::Step::kExit;
  };
  (void)dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  std::vector<float> host(1, -1.0f);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 0.0f);
  dev.free(out);
}

// Each block dirties its whole shared array; the next block, with a larger
// array, must still read zeros everywhere.
TEST(Exec, SharedMemoryZeroedForEveryBlock) {
  SerialDevice dev;  // 1 KiB shared per block: up to 256 floats
  auto dirty = dev.malloc<float>(1);
  dev.memset_zero(dirty);
  auto kernel = [&dirty](gs::ThreadCtx& ctx, unsigned) {
    const std::size_t count = 32 + 32 * ctx.block_linear();
    auto first = ctx.shared_array<float>(count / 2);
    auto second = ctx.shared_array<float>(count - count / 2);
    for (std::size_t i = ctx.thread_linear(); i < first.size(); i += 4) {
      if (first.get(i) != 0.0f) ctx.atomic_add(dirty, 0, 1.0f);
      first.set(i, 9.0f);
    }
    for (std::size_t i = ctx.thread_linear(); i < second.size(); i += 4) {
      if (second.get(i) != 0.0f) ctx.atomic_add(dirty, 0, 1.0f);
      second.set(i, -3.0f);
    }
    return gs::Step::kExit;
  };
  (void)dev.launch({gs::Dim3(7), gs::Dim3(4)}, kernel);
  (void)dev.launch({gs::Dim3(7), gs::Dim3(4)}, kernel);
  std::vector<float> host(1, -1.0f);
  dev.memcpy_d2h(std::span<float>(host), dirty);
  EXPECT_EQ(host[0], 0.0f);
  dev.free(dirty);
}

TEST(Exec, SharedMemoryBudgetEnforced) {
  SerialDevice dev;  // 1 KiB shared per block
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    (void)ctx.shared_array<float>(512);  // 2 KiB
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel),
               PreconditionError);
}

TEST(Exec, SharedSequenceMismatchDetected) {
  SerialDevice dev;
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    if (ctx.thread_linear() == 0) {
      (void)ctx.shared_array<float>(4);
    } else {
      (void)ctx.shared_array<float>(8);  // different size, same slot
    }
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)dev.launch({gs::Dim3(1), gs::Dim3(2)}, kernel),
               PreconditionError);
}

// Each phase re-declares the block's shared arrays in the same order, as
// static __shared__ declarations are in scope across a CUDA barrier; the
// re-declaration attaches to the array the earlier phase wrote, unzeroed.
TEST(Exec, SharedArrayRedeclaredInLaterPhaseKeepsContents) {
  SerialDevice dev;
  auto out = dev.malloc<float>(2 * 8);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned phase) {
    auto first = ctx.shared_array<float>(8);
    auto second = ctx.shared_array<float>(8);
    const std::uint32_t t = ctx.thread_linear();
    if (phase == 0) {
      first.set(t, static_cast<float>(10 * ctx.block_linear() + t));
      second.set(7 - t, static_cast<float>(t));
      return gs::Step::kSync;
    }
    ctx.store(out, ctx.block_linear() * 8 + t,
              first.get(7 - t) + 100.0f * second.get(t));
    return gs::Step::kExit;
  };
  (void)dev.launch({gs::Dim3(2), gs::Dim3(8)}, kernel);
  std::vector<float> host(out.size());
  dev.memcpy_d2h(std::span<float>(host), out);
  for (unsigned b = 0; b < 2; ++b) {
    for (unsigned t = 0; t < 8; ++t) {
      ASSERT_EQ(host[b * 8 + t],
                static_cast<float>(10 * b + (7 - t)) +
                    100.0f * static_cast<float>(7 - t))
          << "block " << b << " thread " << t;
    }
  }
  dev.free(out);
}

TEST(Exec, SharedArrayRedeclaredWithAnotherSizeThrows) {
  SerialDevice dev;
  auto kernel = [](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(phase == 0 ? 4 : 8);
    if (phase == 0) {
      shared.set(ctx.thread_linear(), 1.0f);
      return gs::Step::kSync;
    }
    return gs::Step::kExit;
  };
  try {
    (void)dev.launch({gs::Dim3(1), gs::Dim3(4)}, kernel);
    FAIL() << "a resized re-declaration must throw";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("sequence mismatch"),
              std::string::npos)
        << error.what();
  }
}

TEST(Exec, AtomicAddAccumulatesAcrossBlocks) {
  SerialDevice dev;
  auto cell = dev.malloc<float>(1);
  dev.memset_zero(cell);
  auto kernel = [&cell](gs::ThreadCtx& ctx, unsigned) {
    ctx.atomic_add(cell, 0, 1.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(16), gs::Dim3(32)}, kernel);
  std::vector<float> host(1);
  dev.memcpy_d2h(std::span<float>(host), cell);
  EXPECT_EQ(host[0], 512.0f);
  EXPECT_EQ(r.counters.atomic_ops, 512u);
  // 512 ops on one address: 511 of them conflicted.
  EXPECT_EQ(r.counters.atomic_conflicts, 511u);
  dev.free(cell);
}

TEST(Exec, AtomicConflictsZeroWhenAddressesDisjoint) {
  SerialDevice dev;
  auto cells = dev.malloc<float>(64);
  dev.memset_zero(cells);
  auto kernel = [&cells](gs::ThreadCtx& ctx, unsigned) {
    ctx.atomic_add(cells, ctx.thread_linear(), 2.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(64)}, kernel);
  EXPECT_EQ(r.counters.atomic_ops, 64u);
  EXPECT_EQ(r.counters.atomic_conflicts, 0u);
  dev.free(cells);
}

TEST(Exec, AtomicConflictCountIsExact) {
  SerialDevice dev;
  auto cells = dev.malloc<float>(4);
  dev.memset_zero(cells);
  // Threads 0..31 hit cell (t % 2): 16 ops per cell -> 15 conflicts each.
  auto kernel = [&cells](gs::ThreadCtx& ctx, unsigned) {
    ctx.atomic_add(cells, ctx.thread_linear() % 2, 1.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(32)}, kernel);
  EXPECT_EQ(r.counters.atomic_conflicts, 30u);
  dev.free(cells);
}

TEST(Exec, WarpCountsRoundUp) {
  SerialDevice dev;
  const gs::LaunchResult r =
      dev.launch({gs::Dim3(3), gs::Dim3(33)}, noop_kernel);
  EXPECT_EQ(r.counters.warps_launched, 6u);  // ceil(33/32)=2 per block
  EXPECT_EQ(r.counters.threads_launched, 99u);
}

TEST(Exec, UniformBranchIsNotDivergent) {
  SerialDevice dev;
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    ctx.branch(0, true);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(2), gs::Dim3(32)}, kernel);
  EXPECT_EQ(r.counters.branch_sites_evaluated, 2u);
  EXPECT_EQ(r.counters.divergent_warp_branches, 0u);
}

TEST(Exec, MixedBranchWithinWarpIsDivergent) {
  SerialDevice dev;
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    ctx.branch(0, ctx.thread_linear() % 2 == 0);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(32)}, kernel);
  EXPECT_EQ(r.counters.branch_sites_evaluated, 1u);
  EXPECT_EQ(r.counters.divergent_warp_branches, 1u);
  EXPECT_DOUBLE_EQ(r.counters.divergence_rate(), 1.0);
}

TEST(Exec, WarpUniformButGridMixedIsNotDivergent) {
  SerialDevice dev;
  // Warp 0 all-true, warp 1 all-false: no divergence inside either warp.
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    ctx.branch(0, ctx.warp_id() == 0);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(64)}, kernel);
  EXPECT_EQ(r.counters.branch_sites_evaluated, 2u);
  EXPECT_EQ(r.counters.divergent_warp_branches, 0u);
}

TEST(Exec, BranchSiteOutOfRangeThrows) {
  SerialDevice dev;
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    ctx.branch(99, true);
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel),
               PreconditionError);
}

TEST(Exec, MeteredTranscendentalsCountFlops) {
  SerialDevice dev;
  const gs::DeviceSpec& spec = dev.spec();
  auto out = dev.malloc<float>(1);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    const double v = ctx.exp(0.0) + ctx.pow(2.0, 3.0) + ctx.sqrt(16.0);
    ctx.count_flops(2);
    ctx.store(out, 0, static_cast<float>(v));
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  const auto expected = static_cast<std::uint64_t>(
      spec.exp_flop_equiv + spec.pow_flop_equiv + spec.sqrt_flop_equiv + 2);
  EXPECT_EQ(r.counters.flops, expected);
  std::vector<float> host(1);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_FLOAT_EQ(host[0], 1.0f + 8.0f + 4.0f);
  dev.free(out);
}

TEST(Exec, CountersSumMemoryTraffic) {
  SerialDevice dev;
  auto buf = dev.malloc<float>(32);
  dev.memset_zero(buf);
  auto kernel = [&buf](gs::ThreadCtx& ctx, unsigned) {
    const float v = ctx.load(buf, ctx.thread_linear());
    ctx.store(buf, ctx.thread_linear(), v + 1.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(32)}, kernel);
  EXPECT_EQ(r.counters.global_reads, 32u);
  EXPECT_EQ(r.counters.global_writes, 32u);
  EXPECT_EQ(r.counters.global_bytes_read, 128u);
  EXPECT_EQ(r.counters.global_bytes_written, 128u);
  dev.free(buf);
}

TEST(Exec, ParallelAndSerialProduceSameImage) {
  gs::DeviceSpec spec = gs::DeviceSpec::test_small();
  gs::Device serial(spec);
  serial.set_parallel_blocks(false);
  gs::Device parallel(spec);
  parallel.set_parallel_blocks(true);

  auto run = [](gs::Device& dev) {
    auto buf = dev.malloc<float>(64);
    dev.memset_zero(buf);
    auto kernel = [&buf](gs::ThreadCtx& ctx, unsigned) {
      ctx.atomic_add(buf, ctx.thread_linear() % 64, 1.0f);
      return gs::Step::kExit;
    };
    (void)dev.launch({gs::Dim3(16), gs::Dim3(32)}, kernel);
    std::vector<float> host(64);
    dev.memcpy_d2h(std::span<float>(host), buf);
    dev.free(buf);
    return host;
  };
  EXPECT_EQ(run(serial), run(parallel));
}


// Four threads submit interleaved blocks to a 4-slot ring, so blocks arrive
// out of order and submitters wait for room. Each block adds 1 or ±1e8, and
// a float at 1e8 cannot hold a +1, so which 1s survive depends on the order:
// the cell must end as adding the blocks in index order does.
TEST(Exec, CommitQueueAppliesBlocksInIndexOrder) {
  constexpr std::uint64_t kBlocks = 64;
  auto value_of = [](std::uint64_t b) {
    return b % 8 == 0 ? (b % 16 == 0 ? 1e8f : -1e8f) : 1.0f;
  };
  float expected = 0.0f;
  for (std::uint64_t b = 0; b < kBlocks; ++b) expected += value_of(b);

  gs::BlockCommitQueue queue(4);
  float cell = 0.0f;
  queue.begin(nullptr);
  std::vector<std::thread> submitters;
  for (std::uint64_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      gs::BlockEffects effects;
      for (std::uint64_t b = 3 - t; b < kBlocks; b += 4) {
        effects.clear();
        effects.adds.push_back({&cell, value_of(b)});
        queue.submit(b, effects);
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  gs::KernelCounters totals;
  queue.finish(totals);
  EXPECT_EQ(cell, expected);
}

TEST(Exec, KernelExceptionPropagatesFromParallelBlocks) {
  gs::Device dev(gs::DeviceSpec::test_small());
  dev.set_parallel_blocks(true);
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    if (ctx.block_linear() == 13 && ctx.thread_linear() == 2) {
      throw std::runtime_error("bad block");
    }
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)dev.launch({gs::Dim3(32), gs::Dim3(8)}, kernel),
               std::runtime_error);
}

TEST(Exec, ThreeDimensionalBlocksSupported) {
  SerialDevice dev;
  auto out = dev.malloc<float>(2 * 4 * 2);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    const auto& t = ctx.thread_idx();
    ctx.store(out, ctx.thread_linear(),
              static_cast<float>(t.z * 100 + t.y * 10 + t.x));
    return gs::Step::kExit;
  };
  (void)dev.launch({gs::Dim3(1), gs::Dim3(2, 4, 2)}, kernel);
  std::vector<float> host(16);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 0.0f);      // (0,0,0)
  EXPECT_EQ(host[1], 1.0f);      // (1,0,0)
  EXPECT_EQ(host[2], 10.0f);     // (0,1,0)
  EXPECT_EQ(host[8], 100.0f);    // (0,0,1)
  EXPECT_EQ(host[15], 131.0f);   // (1,3,1)
  dev.free(out);
}

TEST(Exec, MultipleTexturesUsableInOneKernel) {
  SerialDevice dev;
  auto a = dev.malloc<float>(16);
  auto b = dev.malloc<float>(16);
  std::vector<float> ha(16, 2.0f);
  std::vector<float> hb(16, 5.0f);
  dev.memcpy_h2d(a, std::span<const float>(ha));
  dev.memcpy_h2d(b, std::span<const float>(hb));
  const auto ta = dev.bind_texture_2d(a, 4, 4, gs::AddressMode::kClamp);
  const auto tb = dev.bind_texture_2d(b, 4, 4, gs::AddressMode::kClamp);
  auto out = dev.malloc<float>(1);
  auto kernel = [&](gs::ThreadCtx& ctx, unsigned) {
    ctx.store(out, 0, ctx.tex2d(ta, 1, 1) + ctx.tex2d(tb, 2, 2));
    return gs::Step::kExit;
  };
  (void)dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  std::vector<float> host(1);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 7.0f);
  dev.unbind_texture(ta);
  dev.unbind_texture(tb);
  dev.free(a);
  dev.free(b);
  dev.free(out);
}

TEST(Exec, BarrierInsideLoopCountsEveryEpoch) {
  SerialDevice dev;
  // The loop counter is the phase index: one barrier per round.
  auto kernel = [](gs::ThreadCtx& ctx, unsigned round) {
    auto shared = ctx.shared_array<float>(1);
    if (round == 5) return gs::Step::kExit;
    if (ctx.thread_linear() == 0) shared.set(0, static_cast<float>(round));
    return gs::Step::kSync;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(64)}, kernel);
  EXPECT_EQ(r.counters.barriers, 5u * 2u);  // 5 epochs x 2 warps
}

TEST(Exec, GridZDimensionWorks) {
  SerialDevice dev;
  auto out = dev.malloc<float>(8);
  dev.memset_zero(out);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    ctx.atomic_add(out, ctx.block_linear(), 1.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r =
      dev.launch({gs::Dim3(2, 2, 2), gs::Dim3(4)}, kernel);
  EXPECT_EQ(r.counters.blocks_launched, 8u);
  std::vector<float> host(8);
  dev.memcpy_d2h(std::span<float>(host), out);
  for (float v : host) EXPECT_EQ(v, 4.0f);
  dev.free(out);
}

}  // namespace
