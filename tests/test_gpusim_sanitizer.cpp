// Sanitizer tests: the defect corpus (each seeded defect is caught with the
// right kind and coordinates), clean-run assertions for every simulator
// under full instrumentation, and the off-mode equivalence contract.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/sanitizer.h"
#include "starsim/adaptive_simulator.h"
#include "starsim/multi_gpu_simulator.h"
#include "starsim/parallel_simulator.h"
#include "starsim/pixel_centric_simulator.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"
#include "support/error.h"

namespace {

namespace gs = starsim::gpusim;
using gs::SanitizerFinding;
using gs::SanitizerFindingKind;
using gs::SanitizerMode;
using starsim::support::DeviceError;
using starsim::support::SanitizerError;

// Serialized blocks make the order of every access (and therefore
// racecheck orderings) deterministic.
struct SanitizedDevice : gs::Device {
  explicit SanitizedDevice(SanitizerMode mode = SanitizerMode::kAll)
      : gs::Device(gs::DeviceSpec::test_small()) {
    set_parallel_blocks(false);
    set_sanitizer(mode);
  }
};

starsim::SceneConfig small_scene() {
  starsim::SceneConfig scene;
  scene.image_width = 64;
  scene.image_height = 64;
  scene.roi_side = 8;
  return scene;
}

starsim::StarField small_field(std::size_t stars = 48) {
  starsim::WorkloadConfig workload;
  workload.star_count = stars;
  workload.image_width = 64;
  workload.image_height = 64;
  workload.integer_positions = false;
  return generate_stars(workload);
}

// --- Mode plumbing -----------------------------------------------------------

TEST(SanitizerMode_, ParseAndPrint) {
  EXPECT_EQ(gs::sanitizer_mode_from_string("off"), SanitizerMode::kOff);
  EXPECT_EQ(gs::sanitizer_mode_from_string("memcheck"),
            SanitizerMode::kMemcheck);
  EXPECT_EQ(gs::sanitizer_mode_from_string("race"), SanitizerMode::kRacecheck);
  EXPECT_EQ(gs::sanitizer_mode_from_string("synccheck"),
            SanitizerMode::kSynccheck);
  EXPECT_EQ(gs::sanitizer_mode_from_string("leak"), SanitizerMode::kLeakcheck);
  EXPECT_EQ(gs::sanitizer_mode_from_string("all"), SanitizerMode::kAll);
  EXPECT_THROW((void)gs::sanitizer_mode_from_string("everything"),
               starsim::support::PreconditionError);
  EXPECT_EQ(gs::to_string(SanitizerMode::kOff), "off");
  EXPECT_EQ(gs::to_string(SanitizerMode::kAll), "all");
}

// --- Defect corpus: memcheck -------------------------------------------------

// The paper's failure mode: an ROI whose footprint escapes its buffer. The
// defective store is suppressed (the frame stays intact), attributed to the
// exact block/thread, and the launch does not throw.
TEST(Memcheck, OobRoiWriteFlaggedWithCoordinates) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto buf = dev.malloc<float>(8);
  dev.memset_zero(buf);
  auto kernel = [&buf](gs::ThreadCtx& ctx, unsigned) {
    if (ctx.block_idx().x == 1 && ctx.thread_idx().x == 2) {
      ctx.store(buf, buf.size() + 5, 99.0f);  // the seeded defect
    } else {
      ctx.store(buf, ctx.block_linear() * 4 + ctx.thread_linear(), 1.0f);
    }
    return gs::Step::kExit;
  };
  const gs::LaunchResult r =
      dev.launch({gs::Dim3(2), gs::Dim3(4)}, kernel);

  ASSERT_EQ(r.sanitizer.count(SanitizerFindingKind::kGlobalOutOfBounds), 1u);
  const SanitizerFinding& f = r.sanitizer.findings.front();
  EXPECT_EQ(f.kind, SanitizerFindingKind::kGlobalOutOfBounds);
  EXPECT_EQ(f.block.x, 1u);
  EXPECT_EQ(f.thread.x, 2u);
  EXPECT_EQ(f.allocation_id, buf.allocation_id());
  EXPECT_EQ(f.address, (buf.size() + 5) * sizeof(float));

  // The defective store was suppressed; every in-bounds store landed.
  std::vector<float> host(buf.size());
  dev.memcpy_d2h(std::span<float>(host), buf);
  std::size_t ones = 0;
  for (float v : host) {
    if (v == 1.0f) ++ones;
  }
  EXPECT_EQ(ones, 7u);  // 8 threads, one misbehaved
  dev.free(buf);
}

TEST(Memcheck, UseAfterFreeLoadFlaggedAndZero) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto freed = dev.malloc<float>(4);
  auto out = dev.malloc<float>(1);
  dev.memset_zero(freed);
  dev.free(freed);
  auto kernel = [freed, &out](gs::ThreadCtx& ctx, unsigned) {
    ctx.store(out, 0, ctx.load(freed, 0) + 7.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  EXPECT_EQ(r.sanitizer.count(SanitizerFindingKind::kUseAfterFree), 1u);
  std::vector<float> host(1);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 7.0f);  // the suppressed load read as 0
  dev.free(out);
}

TEST(Memcheck, UninitializedReadReportedButProceeds) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto buf = dev.malloc<float>(4);  // never written, never memset
  auto out = dev.malloc<float>(1);
  auto kernel = [&buf, &out](gs::ThreadCtx& ctx, unsigned) {
    ctx.store(out, 0, ctx.load(buf, 2) + 1.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  ASSERT_EQ(r.sanitizer.count(SanitizerFindingKind::kUninitializedRead), 1u);
  EXPECT_EQ(r.sanitizer.findings.front().address, 2 * sizeof(float));
  // The read proceeded (device memory is deterministically zeroed).
  std::vector<float> host(1);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 1.0f);
  dev.free(buf);
  dev.free(out);
}

TEST(Memcheck, DoubleFreeIsTypedAndNeverRetryable) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto buf = dev.malloc<float>(16);
  auto stale = buf;  // free() resets its argument; the copy stays stale
  dev.free(buf);
  try {
    dev.free(stale);
    FAIL() << "double free must throw";
  } catch (const SanitizerError& error) {
    EXPECT_FALSE(error.retryable());  // ResilientExecutor must not retry it
    EXPECT_NE(std::string(error.what()).find("double free"),
              std::string::npos);
  }
}

// Slot recycling must not let a stale handle free the slot's new tenant.
TEST(Memcheck, StaleHandleFreeAfterRecyclingIsCaught) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto old_handle = dev.malloc<float>(8);
  auto stale = old_handle;
  dev.free(old_handle);
  auto tenant = dev.malloc<float>(8);  // recycles the slot
  EXPECT_THROW(dev.free(stale), SanitizerError);
  // The tenant survived the stale free and is still usable.
  dev.memset_zero(tenant);
  std::vector<float> host(8);
  dev.memcpy_d2h(std::span<float>(host), tenant);
  dev.free(tenant);
}

TEST(Memcheck, SharedOutOfBoundsSuppressedNotThrown) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto out = dev.malloc<float>(1);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    auto shared = ctx.shared_array<float>(4);
    shared.set(0, 5.0f);
    ctx.store(out, 0, shared.get(9));  // beyond extent: suppressed, reads 0
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  EXPECT_EQ(r.sanitizer.count(SanitizerFindingKind::kSharedOutOfBounds), 1u);
  std::vector<float> host(1);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 0.0f);
  dev.free(out);
}

TEST(Memcheck, StaleTextureFetchFlagged) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto data = dev.malloc<float>(16);
  dev.memset_zero(data);
  const auto tex = dev.bind_texture_2d(data, 4, 4, gs::AddressMode::kClamp);
  dev.unbind_texture(tex);
  auto out = dev.malloc<float>(1);
  auto kernel = [tex, &out](gs::ThreadCtx& ctx, unsigned) {
    ctx.store(out, 0, ctx.tex2d(tex, 1, 1) + 3.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  EXPECT_EQ(r.sanitizer.count(SanitizerFindingKind::kInvalidTextureFetch),
            1u);
  std::vector<float> host(1);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 3.0f);  // suppressed fetch returned 0
  dev.free(data);
  dev.free(out);
}

TEST(Memcheck, HostCopyOfUninitializedBufferReported) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto buf = dev.malloc<float>(4);  // no memset, no stores
  std::vector<float> host(4);
  dev.memcpy_d2h(std::span<float>(host), buf);
  EXPECT_EQ(
      dev.sanitizer_report().count(SanitizerFindingKind::kUninitializedRead),
      1u);
  dev.free(buf);
}

// --- Defect corpus: racecheck ------------------------------------------------

// Fig. 6's shared-memory pattern with the barrier removed: the write and
// the sibling reads share epoch 0.
TEST(Racecheck, MissingBarrierFlagged) {
  SanitizedDevice dev(SanitizerMode::kRacecheck);
  auto out = dev.malloc<float>(8);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned) {
    auto shared = ctx.shared_array<float>(1);
    if (ctx.thread_linear() == 0) shared.set(0, 42.0f);
    // defect: no barrier (a kSync phase boundary) here
    ctx.store(out, ctx.thread_linear(), shared.get(0));
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(8)}, kernel);
  // One finding per shared word, not one per racing pair.
  ASSERT_EQ(r.sanitizer.count(SanitizerFindingKind::kSharedRace), 1u);
  EXPECT_EQ(r.sanitizer.findings.front().epoch, 0u);
  dev.free(out);
}

// A non-atomic shared accumulate (read-modify-write from every thread) is
// the racing-accumulate defect; atomic_add is the correct tool.
TEST(Racecheck, RacingNonAtomicAccumulateFlagged) {
  SanitizedDevice dev(SanitizerMode::kRacecheck);
  auto out = dev.malloc<float>(1);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(1);
    if (phase == 0) {
      shared.set(0, shared.get(0) + 1.0f);  // defect: unsynchronized RMW
      return gs::Step::kSync;
    }
    if (ctx.thread_linear() == 0) ctx.store(out, 0, shared.get(0));
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(4)}, kernel);
  EXPECT_GE(r.sanitizer.count(SanitizerFindingKind::kSharedRace), 1u);
  dev.free(out);
}

TEST(Racecheck, BarrierSeparatedAccessesAreClean) {
  SanitizedDevice dev(SanitizerMode::kRacecheck);
  auto out = dev.malloc<float>(8);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(1);
    if (phase == 0) {
      if (ctx.thread_linear() == 0) shared.set(0, 42.0f);
      return gs::Step::kSync;
    }
    ctx.store(out, ctx.thread_linear(), shared.get(0));
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(1), gs::Dim3(8)}, kernel);
  EXPECT_TRUE(r.sanitizer.clean()) << r.sanitizer.summary();
  std::vector<float> host(8);
  dev.memcpy_d2h(std::span<float>(host), out);
  for (float v : host) EXPECT_EQ(v, 42.0f);
  dev.free(out);
}

// Race cells belong to one block: a second block on the same OS thread
// that touches the word block 0 wrote, from a different thread and in the
// same epoch number, is no hazard.
TEST(Racecheck, BlocksOnOneThreadDoNotShareRaceCells) {
  SanitizedDevice dev(SanitizerMode::kRacecheck);
  auto kernel = [](gs::ThreadCtx& ctx, unsigned) {
    auto shared = ctx.shared_array<float>(4);
    if (ctx.thread_linear() == ctx.block_linear()) shared.set(0, 1.0f);
    if (ctx.thread_linear() == (ctx.block_linear() + 1) % 2) {
      (void)shared.get(1);
    }
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(2), gs::Dim3(2)}, kernel);
  EXPECT_TRUE(r.sanitizer.clean()) << r.sanitizer.summary();
  // The same pattern across launches on one device and thread.
  const gs::LaunchResult again =
      dev.launch({gs::Dim3(2), gs::Dim3(2)}, kernel);
  EXPECT_TRUE(again.sanitizer.clean()) << again.sanitizer.summary();
}

// --- Defect corpus: synccheck ------------------------------------------------

// Off mode throws on a divergent barrier; under synccheck the launch
// completes, reports the divergence, and abandons the broken block.
TEST(Synccheck, DivergentBarrierReportedNotThrown) {
  auto kernel = [](gs::ThreadCtx& ctx, unsigned phase) {
    if (phase > 0 || ctx.thread_linear() == 0) {
      return gs::Step::kExit;  // defect: thread 0 skips the barrier
    }
    return gs::Step::kSync;
  };
  {
    SanitizedDevice off(SanitizerMode::kOff);
    EXPECT_THROW((void)off.launch({gs::Dim3(1), gs::Dim3(4)}, kernel),
                 DeviceError);
  }
  SanitizedDevice dev(SanitizerMode::kSynccheck);
  gs::LaunchResult r;
  ASSERT_NO_THROW(r = dev.launch({gs::Dim3(1), gs::Dim3(4)}, kernel));
  ASSERT_EQ(r.sanitizer.count(SanitizerFindingKind::kBarrierDivergence), 1u);
  EXPECT_EQ(r.sanitizer.findings.front().epoch, 0u);
}

// The same defect at the block's second barrier: the first one is crossed
// (counted, epoch 0 -> 1), then thread 0 exits while its siblings wait.
TEST(Synccheck, DivergenceAtSecondBarrierReportsEpochOne) {
  auto kernel = [](gs::ThreadCtx& ctx, unsigned phase) {
    if (phase == 0) return gs::Step::kSync;
    if (phase > 1 || ctx.thread_linear() == 0) {
      return gs::Step::kExit;  // defect: thread 0 skips the second barrier
    }
    return gs::Step::kSync;
  };
  {
    SanitizedDevice off(SanitizerMode::kOff);
    EXPECT_THROW((void)off.launch({gs::Dim3(1), gs::Dim3(4)}, kernel),
                 DeviceError);
  }
  SanitizedDevice dev(SanitizerMode::kSynccheck);
  gs::LaunchResult r;
  ASSERT_NO_THROW(r = dev.launch({gs::Dim3(1), gs::Dim3(4)}, kernel));
  ASSERT_EQ(r.sanitizer.count(SanitizerFindingKind::kBarrierDivergence), 1u);
  const SanitizerFinding& f = r.sanitizer.findings.front();
  EXPECT_EQ(f.epoch, 1u);
  EXPECT_EQ(f.thread.x, 1u);  // the first thread waiting at the barrier
  EXPECT_EQ(r.counters.barriers, 1u);  // the crossed barrier, one warp
}

// Divergence in one block must not poison the others' results.
TEST(Synccheck, HealthyBlocksSurviveASiblingsDivergence) {
  SanitizedDevice dev(SanitizerMode::kSynccheck);
  auto out = dev.malloc<float>(4);
  dev.memset_zero(out);
  auto kernel = [&out](gs::ThreadCtx& ctx, unsigned phase) {
    if (phase == 0) {
      if (ctx.block_idx().x == 1 && ctx.thread_linear() == 0) {
        return gs::Step::kExit;
      }
      return gs::Step::kSync;
    }
    if (ctx.thread_linear() == 0) {
      ctx.store(out, ctx.block_linear(), 1.0f);
    }
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(4), gs::Dim3(2)}, kernel);
  EXPECT_EQ(r.sanitizer.count(SanitizerFindingKind::kBarrierDivergence), 1u);
  EXPECT_EQ(r.sanitizer.findings.front().block.x, 1u);
  std::vector<float> host(4);
  dev.memcpy_d2h(std::span<float>(host), out);
  EXPECT_EQ(host[0], 1.0f);
  EXPECT_EQ(host[1], 0.0f);  // the abandoned block wrote nothing
  EXPECT_EQ(host[2], 1.0f);
  EXPECT_EQ(host[3], 1.0f);
  dev.free(out);
}

// --- Defect corpus: leakcheck ------------------------------------------------

// The leaked-LUT-buffer defect: a lookup table uploaded and bound but never
// released shows up as both a leaked allocation and a leaked texture.
TEST(Leakcheck, LeakedLutBufferAndBoundTextureReported) {
  SanitizedDevice dev(SanitizerMode::kLeakcheck);
  auto lut = dev.malloc<float>(64);
  dev.memset_zero(lut);
  const auto tex = dev.bind_texture_2d(lut, 8, 8, gs::AddressMode::kClamp);

  const gs::SanitizerReport leaks = dev.leak_report();
  EXPECT_EQ(leaks.count(SanitizerFindingKind::kLeakedAllocation), 1u);
  ASSERT_EQ(leaks.count(SanitizerFindingKind::kLeakedTexture), 1u);
  bool saw_allocation = false;
  for (const SanitizerFinding& f : leaks.findings) {
    if (f.kind == SanitizerFindingKind::kLeakedAllocation) {
      saw_allocation = true;
      EXPECT_EQ(f.allocation_id, lut.allocation_id());
      EXPECT_EQ(f.address, 64 * sizeof(float));  // leaked bytes
    }
  }
  EXPECT_TRUE(saw_allocation);

  // Releasing everything clears the report (and the teardown warning).
  dev.unbind_texture(tex);
  dev.free(lut);
  EXPECT_TRUE(dev.leak_report().clean());
}

// --- Per-launch override and off-mode contract -------------------------------

TEST(Sanitizer, PerLaunchOverrideOnAnUninstrumentedDevice) {
  SanitizedDevice dev(SanitizerMode::kOff);
  auto buf = dev.malloc<float>(4);
  auto kernel = [&buf](gs::ThreadCtx& ctx, unsigned) {
    ctx.store(buf, 17, 1.0f);  // out of bounds
    return gs::Step::kExit;
  };
  // Plain launch on an off device keeps the strict throwing contract.
  EXPECT_THROW((void)dev.launch({gs::Dim3(1), gs::Dim3(1)}, kernel),
               starsim::support::PreconditionError);
  // The sanitized override reports instead, and the device accumulates it.
  const gs::LaunchResult r = dev.launch_sanitized(
      {gs::Dim3(1), gs::Dim3(1)}, kernel, SanitizerMode::kMemcheck);
  EXPECT_EQ(r.sanitizer.count(SanitizerFindingKind::kGlobalOutOfBounds), 1u);
  EXPECT_EQ(dev.sanitizer_report().total_findings, 1u);
  dev.free(buf);
}

TEST(Sanitizer, ReportCapKeepsCounting) {
  SanitizedDevice dev(SanitizerMode::kMemcheck);
  auto buf = dev.malloc<float>(1);
  auto kernel = [&buf](gs::ThreadCtx& ctx, unsigned) {
    ctx.store(buf, 2 + ctx.thread_linear(), 1.0f);  // every store OOB
    return gs::Step::kExit;
  };
  const gs::LaunchResult r =
      dev.launch({gs::Dim3(8), gs::Dim3(64)}, kernel);
  EXPECT_EQ(r.sanitizer.total_findings, 512u);
  EXPECT_EQ(r.sanitizer.findings.size(),
            gs::SanitizerReport::kMaxFindings);
  dev.free(buf);
}

// --- Clean runs: the shipped simulator stack ---------------------------------

// Every device-backed simulator must run clean under full instrumentation —
// including leakcheck after the simulator released its resources.
template <typename MakeSimulator>
void expect_clean_run(MakeSimulator make, bool parallel_blocks = false) {
  gs::Device device(gs::DeviceSpec::gtx480());
  device.set_parallel_blocks(parallel_blocks);
  device.set_sanitizer(SanitizerMode::kAll);
  {
    auto simulator = make(device);
    const auto result = simulator->simulate(small_scene(), small_field());
    EXPECT_GT(result.image.pixels().size(), 0u);
  }
  EXPECT_TRUE(device.sanitizer_report().clean())
      << device.sanitizer_report().summary();
  EXPECT_TRUE(device.leak_report().clean()) << device.leak_report().summary();
}

TEST(CleanRuns, ParallelSimulatorUnderFullSanitizer) {
  expect_clean_run([](gs::Device& dev) {
    return std::make_unique<starsim::ParallelSimulator>(dev);
  });
}

TEST(CleanRuns, AdaptiveSimulatorUnderFullSanitizer) {
  expect_clean_run([](gs::Device& dev) {
    return std::make_unique<starsim::AdaptiveSimulator>(dev);
  });
}

TEST(CleanRuns, PixelCentricSimulatorUnderFullSanitizer) {
  expect_clean_run([](gs::Device& dev) {
    return std::make_unique<starsim::PixelCentricSimulator>(dev);
  });
}

// OpenMP-offload-style execution: blocks dispatched concurrently, findings
// (there must be none) collected under the launch mutex.
TEST(CleanRuns, ParallelBlockExecutionUnderFullSanitizer) {
  expect_clean_run(
      [](gs::Device& dev) {
        return std::make_unique<starsim::ParallelSimulator>(dev);
      },
      /*parallel_blocks=*/true);
}

TEST(CleanRuns, MultiGpuSimulatorUnderFullSanitizer) {
  starsim::MultiGpuSimulator sim(2);
  for (int i = 0; i < 2; ++i) {
    sim.device(i).set_sanitizer(SanitizerMode::kAll);
  }
  const auto result = sim.simulate(small_scene(), small_field());
  EXPECT_GT(result.image.pixels().size(), 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(sim.device(i).sanitizer_report().clean())
        << sim.device(i).sanitizer_report().summary();
  }
}

// The instrumented render must not change a single bit of the frame.
TEST(CleanRuns, SanitizedFrameIsBitIdenticalToProduction) {
  const auto scene = small_scene();
  const auto stars = small_field();
  gs::Device plain_dev(gs::DeviceSpec::gtx480());
  gs::Device sanitized_dev(gs::DeviceSpec::gtx480());
  sanitized_dev.set_sanitizer(SanitizerMode::kAll);
  starsim::ParallelSimulator plain(plain_dev);
  starsim::ParallelSimulator sanitized(sanitized_dev);
  const auto a = plain.simulate(scene, stars).image;
  const auto b = sanitized.simulate(scene, stars).image;
  ASSERT_EQ(a.pixels().size(), b.pixels().size());
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    ASSERT_EQ(a.pixels()[i], b.pixels()[i]) << "pixel " << i;
  }
  EXPECT_TRUE(sanitized_dev.sanitizer_report().clean());
}

}  // namespace
