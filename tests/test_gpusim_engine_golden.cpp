// Engine golden tests: seeded frames rendered on a serial device through
// every in-repo kernel must keep every KernelCounters field and every image
// bit. The engine's bookkeeping (block scratch, warp-access grouping,
// atomic-conflict counting, texture caches) may be reworked for speed; these
// values may not move. They were recorded on a serial device, where block
// order, float accumulation order and texture-cache state are fixed.
// Fields left out of a pinned KernelCounters are zero. A device running
// blocks in parallel commits them in block order, so it must give the same
// values on any number of OpenMP threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "starsim/adaptive_simulator.h"
#include "starsim/lut_device_build.h"
#include "starsim/parallel_simulator.h"
#include "starsim/pixel_centric_simulator.h"
#include "starsim/workload.h"
#include "support/error.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

namespace gs = starsim::gpusim;
using starsim::SceneConfig;
using starsim::Star;
using starsim::StarField;

/// FNV-1a over the raw bits of a float buffer.
std::uint64_t bits_hash(std::span<const float> values) {
  std::uint64_t hash = 1469598103934665603ull;
  for (float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

struct Golden {
  gs::KernelCounters counters;
  std::uint64_t image_hash = 0;
};

void expect_golden(const gs::KernelCounters& c, std::uint64_t image_hash,
                   const Golden& golden) {
  const gs::KernelCounters& g = golden.counters;
  EXPECT_EQ(c.blocks_launched, g.blocks_launched);
  EXPECT_EQ(c.threads_launched, g.threads_launched);
  EXPECT_EQ(c.warps_launched, g.warps_launched);
  EXPECT_EQ(c.flops, g.flops);
  EXPECT_EQ(c.global_reads, g.global_reads);
  EXPECT_EQ(c.global_writes, g.global_writes);
  EXPECT_EQ(c.global_bytes_read, g.global_bytes_read);
  EXPECT_EQ(c.global_bytes_written, g.global_bytes_written);
  EXPECT_EQ(c.global_transactions, g.global_transactions);
  EXPECT_EQ(c.shared_reads, g.shared_reads);
  EXPECT_EQ(c.shared_writes, g.shared_writes);
  EXPECT_EQ(c.shared_bank_conflicts, g.shared_bank_conflicts);
  EXPECT_EQ(c.atomic_ops, g.atomic_ops);
  EXPECT_EQ(c.atomic_conflicts, g.atomic_conflicts);
  EXPECT_EQ(c.texture_fetches, g.texture_fetches);
  EXPECT_EQ(c.texture_hits, g.texture_hits);
  EXPECT_EQ(c.texture_misses, g.texture_misses);
  EXPECT_EQ(c.barriers, g.barriers);
  EXPECT_EQ(c.branch_sites_evaluated, g.branch_sites_evaluated);
  EXPECT_EQ(c.divergent_warp_branches, g.divergent_warp_branches);
  EXPECT_EQ(image_hash, golden.image_hash)
      << "actual hash: 0x" << std::hex << image_hash;
}

struct SerialDevice : gs::Device {
  SerialDevice() { set_parallel_blocks(false); }
};

SceneConfig scene_of(int edge, int roi) {
  SceneConfig scene;
  scene.image_width = edge;
  scene.image_height = edge;
  scene.roi_side = roi;
  return scene;
}

/// Subpixel stars anywhere in the frame (so some ROIs clip at the border),
/// plus a stacked pair for certain atomic conflicts and a corner star for a
/// certain divergent boundary branch.
StarField golden_field(int edge, std::size_t count, std::uint64_t seed) {
  starsim::WorkloadConfig workload;
  workload.star_count = count;
  workload.image_width = edge;
  workload.image_height = edge;
  workload.integer_positions = false;
  workload.seed = seed;
  StarField stars = starsim::generate_stars(workload);
  const float mid = static_cast<float>(edge) / 2.0f;
  stars.push_back(Star{4.0f, mid + 0.25f, mid - 0.25f, 1.0f});
  stars.push_back(Star{6.5f, mid + 0.25f, mid - 0.25f, 0.5f});
  stars.push_back(Star{2.0f, 0.4f, 0.6f, 1.0f});
  return stars;
}

Golden render_untiled(gs::Device& device) {
  starsim::ParallelSimulator sim(device);
  const auto r = sim.simulate(scene_of(256, 10), golden_field(256, 300, 11));
  return {r.timing.counters, bits_hash(r.image.pixels())};
}

// 300 + 3 stars at ROI 10: a 256 x 2 grid with 209 padding blocks.
const Golden kUntiled{
    {.blocks_launched = 512,
     .threads_launched = 51200,
     .warps_launched = 2048,
     .flops = 5242989,
     .global_reads = 303,
     .global_bytes_read = 123888,
     .global_bytes_written = 119040,
     .global_transactions = 303,
     .shared_reads = 90900,
     .shared_writes = 909,
     .atomic_ops = 29760,
     .atomic_conflicts = 5898,
     .barriers = 1212,
     .branch_sites_evaluated = 1212,
     .divergent_warp_branches = 47},
    0x809cf746a2326a19ull};

TEST(EngineGolden, UntiledParallel) {
  SerialDevice device;
  const Golden g = render_untiled(device);
  expect_golden(g.counters, g.image_hash, kUntiled);
}

Golden render_tiled(gs::Device& device) {
  starsim::ParallelOptions options;
  options.allow_tiling = true;
  options.tile_side = 8;  // ROI 20 -> 3 x 3 tiles, the last ones partial
  starsim::ParallelSimulator sim(device, options);
  const auto r = sim.simulate(scene_of(256, 20), golden_field(256, 60, 12));
  return {r.timing.counters, bits_hash(r.image.pixels())};
}

const Golden kTiled{{.blocks_launched = 768,
                     .threads_launched = 49152,
                     .warps_launched = 1536,
                     .flops = 4429005,
                     .global_reads = 567,
                     .global_bytes_read = 104872,
                     .global_bytes_written = 95800,
                     .global_transactions = 567,
                     .shared_reads = 108864,
                     .shared_writes = 1701,
                     .atomic_ops = 23950,
                     .atomic_conflicts = 4489,
                     .barriers = 1134,
                     .branch_sites_evaluated = 2079,
                     .divergent_warp_branches = 353},
                    0x729f3d0324fe844bull};

TEST(EngineGolden, TiledParallel) {
  SerialDevice device;
  const Golden g = render_tiled(device);
  expect_golden(g.counters, g.image_hash, kTiled);
}

Golden render_adaptive(gs::Device& device) {
  // ROI 32: the paper's 32 x 32 block shape (1024 threads, 32 full warps),
  // through a 4-bin-per-magnitude, 2-phase table.
  starsim::AdaptiveSimulator sim(device, starsim::LookupTableOptions{4, 2});
  const auto r = sim.simulate(scene_of(256, 32), golden_field(256, 40, 13));
  return {r.timing.counters, bits_hash(r.image.pixels())};
}

const Golden kAdaptive{
    {.blocks_launched = 43,
     .threads_launched = 44032,
     .warps_launched = 1376,
     .flops = 742848,
     .global_reads = 43,
     .global_bytes_read = 160240,
     .global_bytes_written = 159552,
     .global_transactions = 43,
     .shared_reads = 176128,
     .shared_writes = 172,
     .atomic_ops = 39888,
     .atomic_conflicts = 9040,
     .texture_fetches = 39888,
     .texture_hits = 34872,
     .texture_misses = 5016,
     .barriers = 1376,
     .branch_sites_evaluated = 1376,
     .divergent_warp_branches = 133},
    0x9453adbc9b8d7432ull};

TEST(EngineGolden, AdaptiveTexture) {
  SerialDevice device;
  const Golden g = render_adaptive(device);
  expect_golden(g.counters, g.image_hash, kAdaptive);
}

TEST(EngineGolden, DeviceLutBuild) {
  SerialDevice device;
  const auto build = starsim::build_lookup_table_on_device(
      device, scene_of(256, 10), starsim::LookupTableOptions{2, 2});
  std::vector<float> table(build.table.size());
  device.memcpy_d2h(std::span<float>(table), build.table);
  auto handle = build.table;
  device.free(handle);
  expect_golden(device.last_launch().counters, bits_hash(table),
                Golden{{.blocks_launched = 1280,
                        .threads_launched = 12800,
                        .warps_launched = 1280,
                        .flops = 4572000,
                        .global_writes = 12000,
                        .global_bytes_written = 48000,
                        .global_transactions = 1500},
                       0xc4337cf04d7d890aull});
}

Golden render_pixel_centric(gs::Device& device) {
  starsim::PixelCentricSimulator sim(device);
  const auto r = sim.simulate(scene_of(48, 10), golden_field(48, 24, 14));
  return {r.timing.counters, bits_hash(r.image.pixels())};
}

const Golden kPixelCentric{{.blocks_launched = 9,
                            .threads_launched = 2304,
                            .warps_launched = 72,
                            .flops = 1163288,
                            .global_reads = 62208,
                            .global_writes = 2304,
                            .global_bytes_read = 995328,
                            .global_bytes_written = 9216,
                            .global_transactions = 2088,
                            .branch_sites_evaluated = 72,
                            .divergent_warp_branches = 67},
                           0xe740699b94cd8195ull};

TEST(EngineGolden, PixelCentric) {
  SerialDevice device;
  const Golden g = render_pixel_centric(device);
  expect_golden(g.counters, g.image_hash, kPixelCentric);
}

// A kernel that throws in its second phase, with the block past a barrier,
// shared arrays allocated and warp accesses half-recorded, must leave
// nothing behind for the next launch on the same OS thread.
TEST(EngineGolden, ThrowingLaunchLeavesNextLaunchGolden) {
  SerialDevice device;
  auto buffer = device.malloc<float>(4096);
  device.memset_zero(buffer);
  auto failing = [&buffer](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(200);
    if (phase == 0) {
      shared.set(ctx.thread_linear(), 7.0f);
      (void)ctx.load(buffer, ctx.thread_linear() * 3ull);
      ctx.atomic_add(buffer, ctx.thread_linear() % 5, 1.0f);
      ctx.branch(2, ctx.thread_linear() % 3 == 0);
      return gs::Step::kSync;
    }
    if (ctx.block_linear() == 1 && ctx.thread_linear() == 40) {
      throw starsim::support::DeviceError("kernel fault");
    }
    (void)shared.get(ctx.thread_linear() + 1);
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)device.launch({gs::Dim3(3), gs::Dim3(10, 10)}, failing),
               starsim::support::DeviceError);
  device.free(buffer);

  const Golden g = render_untiled(device);
  expect_golden(g.counters, g.image_hash, kUntiled);
}

// Blocks finish out of order on several OS threads, yet the float atomics
// (many stars share pixels) and the SM texture-cache lookups land in block
// order: the frames, every counter and so the modeled time equal the serial
// golden values at every thread count. 512 untiled blocks also wrap the
// commit ring; the tiled kernel's threads exit after the barrier at its
// partial tiles' edges, and the pixel-centric kernel has no barrier.
TEST(EngineGolden, ParallelBlocksMatchSerialAtEveryThreadCount) {
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  const std::vector<int> thread_counts{1, 2, 3, 4, 8};
#else
  const std::vector<int> thread_counts{1};
#endif
  for (const int threads : thread_counts) {
    SCOPED_TRACE(threads);
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    gs::Device device;
    device.set_parallel_blocks(true);
    for (int repeat = 0; repeat < 2; ++repeat) {
      const Golden untiled = render_untiled(device);
      expect_golden(untiled.counters, untiled.image_hash, kUntiled);
      const Golden adaptive = render_adaptive(device);
      expect_golden(adaptive.counters, adaptive.image_hash, kAdaptive);
      const Golden tiled = render_tiled(device);
      expect_golden(tiled.counters, tiled.image_hash, kTiled);
      const Golden pixel_centric = render_pixel_centric(device);
      expect_golden(pixel_centric.counters, pixel_centric.image_hash,
                    kPixelCentric);
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

}  // namespace
