#include "gpusim/device.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <variant>
#include <vector>

#include "support/error.h"
#include "trace/trace.h"

namespace {

namespace gs = starsim::gpusim;
using starsim::support::DeviceError;
using starsim::support::PreconditionError;

gs::Step noop_kernel(gs::ThreadCtx&, unsigned) { return gs::Step::kExit; }

TEST(Device, TransfersPreserveData) {
  gs::Device dev(gs::DeviceSpec::test_small());
  std::vector<float> host(1000);
  std::iota(host.begin(), host.end(), 0.0f);
  auto d = dev.malloc<float>(1000);
  dev.memcpy_h2d(d, std::span<const float>(host));
  std::vector<float> back(1000, -1.0f);
  dev.memcpy_d2h(std::span<float>(back), d);
  EXPECT_EQ(back, host);
  dev.free(d);
}

TEST(Device, TransferStatsAccumulate) {
  gs::Device dev(gs::DeviceSpec::test_small());
  dev.reset_transfer_stats();
  std::vector<float> host(256, 1.0f);
  auto d = dev.malloc<float>(256);
  dev.memcpy_h2d(d, std::span<const float>(host));
  dev.memcpy_d2h(std::span<float>(host), d);
  const gs::TransferStats& stats = dev.transfer_stats();
  EXPECT_EQ(stats.h2d_calls, 1u);
  EXPECT_EQ(stats.d2h_calls, 1u);
  EXPECT_EQ(stats.h2d_bytes, 1024u);
  EXPECT_EQ(stats.d2h_bytes, 1024u);
  EXPECT_GT(stats.h2d_s, 0.0);
  EXPECT_GT(stats.d2h_s, 0.0);
  dev.free(d);
}

TEST(Device, TransferTimeMatchesModel) {
  const gs::DeviceSpec spec = gs::DeviceSpec::gtx480();
  gs::Device dev(spec);
  std::vector<float> host(1 << 20);  // 4 MiB
  auto d = dev.malloc<float>(host.size());
  dev.reset_transfer_stats();
  dev.memcpy_h2d(d, std::span<const float>(host));
  const double expected =
      spec.pcie_latency_s + 4.0 * (1 << 20) / (spec.pcie_bandwidth_gbps * 1e9);
  EXPECT_DOUBLE_EQ(dev.transfer_stats().h2d_s, expected);
  dev.free(d);
}

TEST(Device, PartialH2dCopyAllowed) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto d = dev.malloc<int>(10);
  const std::vector<int> host{1, 2, 3};
  dev.memcpy_h2d(d, std::span<const int>(host));
  std::vector<int> back(10);
  dev.memcpy_d2h(std::span<int>(back), d);
  EXPECT_EQ(back[0], 1);
  EXPECT_EQ(back[2], 3);
  dev.free(d);
}

TEST(Device, OversizeH2dRejected) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto d = dev.malloc<int>(4);
  const std::vector<int> host(5);
  try {
    dev.memcpy_h2d(d, std::span<const int>(host));
    FAIL() << "expected SanitizerError";
  } catch (const starsim::support::SanitizerError& error) {
    // Typed defect: never retryable, names the handle and both extents.
    EXPECT_FALSE(error.retryable());
    const std::string what = error.what();
    EXPECT_NE(what.find("h2d copy of 5"), std::string::npos) << what;
    EXPECT_NE(what.find("allocation #" + std::to_string(d.allocation_id())),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("of 4 element(s)"), std::string::npos) << what;
  }
  dev.free(d);
}

TEST(Device, UndersizedD2hRejected) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto d = dev.malloc<int>(8);
  std::vector<int> host(4);
  try {
    dev.memcpy_d2h(std::span<int>(host), d);
    FAIL() << "expected SanitizerError";
  } catch (const starsim::support::SanitizerError& error) {
    EXPECT_FALSE(error.retryable());
    const std::string what = error.what();
    EXPECT_NE(what.find("host buffer of 4"), std::string::npos) << what;
  }
  dev.free(d);
}

TEST(Device, MemsetZeroClearsWithoutPcieTraffic) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto d = dev.malloc<float>(64);
  std::vector<float> host(64, 3.0f);
  dev.memcpy_h2d(d, std::span<const float>(host));
  dev.reset_transfer_stats();
  dev.memset_zero(d);
  EXPECT_EQ(dev.transfer_stats().h2d_bytes, 0u);
  dev.memcpy_d2h(std::span<float>(host), d);
  for (float v : host) EXPECT_EQ(v, 0.0f);
  dev.free(d);
}

// memcpy_h2d_zero stands in for uploading a zero-filled host buffer: the
// same device bytes, TransferStats (bit-equal modeled seconds) and span.
TEST(Device, ZeroUploadChargesLikeZeroBufferUpload) {
  for (const bool pinned : {false, true}) {
    gs::Device copied(gs::DeviceSpec::gtx480());
    gs::Device zeroed(gs::DeviceSpec::gtx480());
    copied.set_pinned_transfers(pinned);
    zeroed.set_pinned_transfers(pinned);
    constexpr std::size_t kPixels = 1000 * 777;
    auto a = copied.malloc<float>(kPixels);
    auto b = zeroed.malloc<float>(kPixels);
    // Dirty the destination first: the zero upload must overwrite it.
    const std::vector<float> dirty(kPixels, 3.5f);
    zeroed.memcpy_h2d(b, std::span<const float>(dirty));
    copied.reset_transfer_stats();
    zeroed.reset_transfer_stats();

    const std::vector<float> blank(kPixels, 0.0f);
    copied.memcpy_h2d(a, std::span<const float>(blank));
    starsim::trace::TraceRecorder::instance().start();
    zeroed.memcpy_h2d_zero(b);
    starsim::trace::TraceRecorder::instance().stop();
    const starsim::trace::TraceSnapshot snapshot =
        starsim::trace::TraceRecorder::instance().snapshot();
    starsim::trace::TraceRecorder::instance().clear();

    const gs::TransferStats& want = copied.transfer_stats();
    const gs::TransferStats& got = zeroed.transfer_stats();
    EXPECT_EQ(got.h2d_bytes, want.h2d_bytes);
    EXPECT_EQ(got.h2d_calls, want.h2d_calls);
    EXPECT_EQ(got.h2d_s, want.h2d_s);
    EXPECT_EQ(got.d2h_bytes, want.d2h_bytes);
    EXPECT_EQ(got.d2h_calls, want.d2h_calls);
    EXPECT_EQ(got.d2h_s, want.d2h_s);
    EXPECT_EQ(got.texture_binds, want.texture_binds);
    EXPECT_EQ(got.texture_bind_s, want.texture_bind_s);

    ASSERT_EQ(snapshot.events.size(), 2u);
    EXPECT_STREQ(snapshot.events[0].category, "gpusim");
    EXPECT_STREQ(snapshot.events[0].name, "memcpy_h2d");
    const auto& args = snapshot.events[1].args;
    ASSERT_EQ(args.size(), 3u);
    EXPECT_EQ(std::get<std::int64_t>(args[0].value),
              static_cast<std::int64_t>(kPixels * sizeof(float)));
    EXPECT_EQ(std::get<double>(args[1].value), want.h2d_s);
    EXPECT_EQ(std::get<bool>(args[2].value), pinned);

    std::vector<float> back(kPixels, -1.0f);
    zeroed.memcpy_d2h(std::span<float>(back), b);
    EXPECT_EQ(back, blank);
    copied.free(a);
    zeroed.free(b);
  }
}

TEST(Device, TextureBindAccruesModeledCost) {
  const gs::DeviceSpec spec = gs::DeviceSpec::gtx480();
  gs::Device dev(spec);
  auto d = dev.malloc<float>(64);
  dev.reset_transfer_stats();
  const gs::TextureHandle t =
      dev.bind_texture_2d(d, 8, 8, gs::AddressMode::kClamp);
  EXPECT_EQ(dev.transfer_stats().texture_binds, 1u);
  EXPECT_DOUBLE_EQ(dev.transfer_stats().texture_bind_s, spec.texture_bind_s);
  EXPECT_EQ(dev.bound_texture_count(), 1u);
  dev.unbind_texture(t);
  EXPECT_EQ(dev.bound_texture_count(), 0u);
  dev.free(d);
}

TEST(Device, TextureSlotReuseAfterUnbind) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto d = dev.malloc<float>(64);
  const auto t1 = dev.bind_texture_2d(d, 8, 8, gs::AddressMode::kClamp);
  dev.unbind_texture(t1);
  const auto t2 = dev.bind_texture_2d(d, 8, 8, gs::AddressMode::kBorder);
  EXPECT_EQ(t1.index, t2.index);  // freed slot reused
  dev.unbind_texture(t2);
  dev.free(d);
}

TEST(Device, DoubleUnbindThrows) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto d = dev.malloc<float>(64);
  const auto t = dev.bind_texture_2d(d, 8, 8, gs::AddressMode::kClamp);
  dev.unbind_texture(t);
  EXPECT_THROW(dev.unbind_texture(t), PreconditionError);
  dev.free(d);
}

TEST(Device, BindRejectsUndersizedSource) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto d = dev.malloc<float>(10);
  EXPECT_THROW((void)dev.bind_texture_2d(d, 8, 8, gs::AddressMode::kClamp),
               PreconditionError);
  dev.free(d);
}

TEST(Device, LaunchValidatesBlockLimits) {
  gs::Device dev(gs::DeviceSpec::test_small());  // 64 threads per block max
  gs::LaunchConfig config;
  config.grid = gs::Dim3(1);
  config.block = gs::Dim3(9, 9);  // 81 > 64
  EXPECT_THROW((void)dev.launch(config, noop_kernel), DeviceError);
}

TEST(Device, LaunchValidatesBlockDimensions) {
  gs::Device dev(gs::DeviceSpec::test_small());
  gs::LaunchConfig config;
  config.grid = gs::Dim3(1);
  config.block = gs::Dim3(1, 1, 64);  // z over max_block_dim_z=8
  EXPECT_THROW((void)dev.launch(config, noop_kernel), DeviceError);
}

TEST(Device, LaunchValidatesGridSize) {
  gs::Device dev(gs::DeviceSpec::test_small());  // max_grid_blocks = 4096
  gs::LaunchConfig config;
  config.grid = gs::Dim3(4097);
  config.block = gs::Dim3(1);
  EXPECT_THROW((void)dev.launch(config, noop_kernel), DeviceError);
}

TEST(Device, LaunchRejectsEmptyGeometry) {
  gs::Device dev(gs::DeviceSpec::test_small());
  gs::LaunchConfig config;
  config.grid = gs::Dim3(0);
  config.block = gs::Dim3(1);
  EXPECT_THROW((void)dev.launch(config, noop_kernel), PreconditionError);
}

TEST(Device, LastLaunchRequiresALaunch) {
  gs::Device dev(gs::DeviceSpec::test_small());
  EXPECT_THROW((void)dev.last_launch(), PreconditionError);
  gs::LaunchConfig config;
  config.grid = gs::Dim3(2);
  config.block = gs::Dim3(4);
  (void)dev.launch(config, noop_kernel);
  EXPECT_EQ(dev.launch_count(), 1u);
  EXPECT_EQ(dev.last_launch().counters.threads_launched, 8u);
}

TEST(Device, DeviceMemoryLimitEnforced) {
  gs::Device dev(gs::DeviceSpec::test_small());  // 1 MiB
  EXPECT_THROW((void)dev.malloc<float>(1 << 20), DeviceError);
  auto ok = dev.malloc<float>(1 << 10);
  dev.free(ok);
}

}  // namespace

// Appended coverage: pinned transfers and the additional device specs.
namespace {

TEST(Device, PinnedTransfersAreFaster) {
  const gs::DeviceSpec spec = gs::DeviceSpec::gtx480();
  gs::Device dev(spec);
  auto d = dev.malloc<float>(1 << 20);
  std::vector<float> host(1 << 20);

  dev.reset_transfer_stats();
  dev.memcpy_h2d(d, std::span<const float>(host));
  const double pageable = dev.transfer_stats().h2d_s;

  dev.set_pinned_transfers(true);
  EXPECT_TRUE(dev.pinned_transfers());
  dev.reset_transfer_stats();
  dev.memcpy_h2d(d, std::span<const float>(host));
  const double pinned = dev.transfer_stats().h2d_s;

  EXPECT_LT(pinned, pageable);
  const double expected =
      spec.pcie_latency_s +
      4.0 * (1 << 20) / (spec.pcie_pinned_bandwidth_gbps * 1e9);
  EXPECT_DOUBLE_EQ(pinned, expected);
  dev.free(d);
}

TEST(Device, TransferEstimateHonorsPinnedFlag) {
  const gs::DeviceSpec spec = gs::DeviceSpec::gtx480();
  EXPECT_LT(gs::estimate_transfer_time(spec, 1 << 20, true),
            gs::estimate_transfer_time(spec, 1 << 20, false));
  // Latency-only floor identical either way.
  EXPECT_DOUBLE_EQ(gs::estimate_transfer_time(spec, 0, true),
                   gs::estimate_transfer_time(spec, 0, false));
}

TEST(DeviceSpecs, GenerationsAreOrderedByThroughput) {
  const gs::DeviceSpec gtx480 = gs::DeviceSpec::gtx480();
  const gs::DeviceSpec gtx580 = gs::DeviceSpec::gtx580();
  const gs::DeviceSpec k20 = gs::DeviceSpec::k20();
  EXPECT_LT(gtx480.peak_fp64_flops(), gtx580.peak_fp64_flops());
  EXPECT_LT(gtx580.peak_fp64_flops(), k20.peak_fp64_flops());
  // Published fp64 peaks: 168 / 198 / 1170 GFLOPS.
  EXPECT_NEAR(gtx480.peak_fp64_flops() / 1e9, 168.0, 1.0);
  EXPECT_NEAR(gtx580.peak_fp64_flops() / 1e9, 198.0, 1.0);
  EXPECT_NEAR(k20.peak_fp64_flops() / 1e9, 1170.0, 5.0);
}

TEST(DeviceSpecs, K20DeviceRunsKernels) {
  gs::Device dev(gs::DeviceSpec::k20());
  auto cell = dev.malloc<float>(1);
  dev.memset_zero(cell);
  auto kernel = [&cell](gs::ThreadCtx& ctx, unsigned) {
    ctx.atomic_add(cell, 0, 1.0f);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev.launch({gs::Dim3(4), gs::Dim3(64)}, kernel);
  EXPECT_EQ(r.counters.atomic_ops, 256u);
  std::vector<float> host(1);
  dev.memcpy_d2h(std::span<float>(host), cell);
  EXPECT_EQ(host[0], 256.0f);
  dev.free(cell);
}

}  // namespace
