#include "gpusim/texture.h"

#include <gtest/gtest.h>

#include <vector>

#include "gpusim/device.h"
#include "support/error.h"

namespace {

namespace gs = starsim::gpusim;
using starsim::support::PreconditionError;

class TextureFixture : public ::testing::Test {
 protected:
  TextureFixture() : dev_(gs::DeviceSpec::test_small()) {
    dev_.set_parallel_blocks(false);
    data_ = dev_.malloc<float>(64);
    std::vector<float> host(64);
    for (int i = 0; i < 64; ++i) host[static_cast<std::size_t>(i)] = static_cast<float>(i);
    dev_.memcpy_h2d(data_, std::span<const float>(host));
  }
  ~TextureFixture() override { dev_.free(data_); }

  /// Run a one-thread kernel that fetches (x, y) and return the value.
  float fetch(gs::TextureHandle tex, int x, int y) {
    auto out = dev_.malloc<float>(1);
    auto kernel = [&](gs::ThreadCtx& ctx, unsigned) {
      ctx.store(out, 0, ctx.tex2d(tex, x, y));
      return gs::Step::kExit;
    };
    (void)dev_.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
    std::vector<float> host(1);
    dev_.memcpy_d2h(std::span<float>(host), out);
    dev_.free(out);
    return host[0];
  }

  gs::Device dev_;
  gs::DevicePtr<float> data_;
};

TEST_F(TextureFixture, FetchReturnsRowMajorTexel) {
  const auto tex = dev_.bind_texture_2d(data_, 8, 8, gs::AddressMode::kClamp);
  EXPECT_EQ(fetch(tex, 0, 0), 0.0f);
  EXPECT_EQ(fetch(tex, 3, 0), 3.0f);
  EXPECT_EQ(fetch(tex, 0, 2), 16.0f);
  EXPECT_EQ(fetch(tex, 7, 7), 63.0f);
  dev_.unbind_texture(tex);
}

TEST_F(TextureFixture, ClampModeClampsCoordinates) {
  const auto tex = dev_.bind_texture_2d(data_, 8, 8, gs::AddressMode::kClamp);
  EXPECT_EQ(fetch(tex, -5, 0), 0.0f);
  EXPECT_EQ(fetch(tex, 100, 0), 7.0f);
  EXPECT_EQ(fetch(tex, 0, 100), 56.0f);
  EXPECT_EQ(fetch(tex, -1, -1), 0.0f);
  dev_.unbind_texture(tex);
}

TEST_F(TextureFixture, BorderModeReturnsBorderValue) {
  const auto tex =
      dev_.bind_texture_2d(data_, 8, 8, gs::AddressMode::kBorder, -9.0f);
  EXPECT_EQ(fetch(tex, -1, 0), -9.0f);
  EXPECT_EQ(fetch(tex, 8, 0), -9.0f);
  EXPECT_EQ(fetch(tex, 3, 3), 27.0f);  // in-range unaffected
  dev_.unbind_texture(tex);
}

TEST_F(TextureFixture, RepeatFetchHitsCache) {
  const auto tex = dev_.bind_texture_2d(data_, 8, 8, gs::AddressMode::kClamp);
  auto kernel = [&](gs::ThreadCtx& ctx, unsigned) {
    for (int i = 0; i < 10; ++i) (void)ctx.tex2d(tex, 2, 2);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev_.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  EXPECT_EQ(r.counters.texture_fetches, 10u);
  EXPECT_EQ(r.counters.texture_misses, 1u);
  EXPECT_EQ(r.counters.texture_hits, 9u);
  dev_.unbind_texture(tex);
}

TEST_F(TextureFixture, NeighborhoodSharesLinesViaMorton) {
  // A 4x4 neighborhood spans 64 bytes = 2 cache lines in Morton layout;
  // a row-major layout of an 8-wide texture would also be compact here, so
  // probe a vertical walk instead: Morton keeps vertical neighbors in the
  // same line pairs-wise, so 8 vertical fetches cost at most 4 misses + the
  // rest hits (row-major in global memory would be 8 distinct 32B lines for
  // a wide texture; see test_gpusim_morton for the locality property).
  const auto tex = dev_.bind_texture_2d(data_, 8, 8, gs::AddressMode::kClamp);
  auto kernel = [&](gs::ThreadCtx& ctx, unsigned) {
    for (int y = 0; y < 8; ++y) (void)ctx.tex2d(tex, 0, y);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev_.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  EXPECT_LE(r.counters.texture_misses, 4u);
  EXPECT_GE(r.counters.texture_hits, 4u);
  dev_.unbind_texture(tex);
}

TEST_F(TextureFixture, BorderFetchCountsAsHitWithoutCacheTransaction) {
  const auto tex =
      dev_.bind_texture_2d(data_, 8, 8, gs::AddressMode::kBorder, 0.0f);
  auto kernel = [&](gs::ThreadCtx& ctx, unsigned) {
    (void)ctx.tex2d(tex, -1, -1);
    return gs::Step::kExit;
  };
  const gs::LaunchResult r = dev_.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  EXPECT_EQ(r.counters.texture_fetches, 1u);
  EXPECT_EQ(r.counters.texture_misses, 0u);
  dev_.unbind_texture(tex);
}

TEST_F(TextureFixture, CachesResetBetweenLaunches) {
  const auto tex = dev_.bind_texture_2d(data_, 8, 8, gs::AddressMode::kClamp);
  auto kernel = [&](gs::ThreadCtx& ctx, unsigned) {
    (void)ctx.tex2d(tex, 1, 1);
    return gs::Step::kExit;
  };
  (void)dev_.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  const gs::LaunchResult r2 = dev_.launch({gs::Dim3(1), gs::Dim3(1)}, kernel);
  // Second launch starts cold: the fetch misses again.
  EXPECT_EQ(r2.counters.texture_misses, 1u);
  dev_.unbind_texture(tex);
}

TEST_F(TextureFixture, FetchThroughUnboundHandleThrows) {
  const auto tex = dev_.bind_texture_2d(data_, 8, 8, gs::AddressMode::kClamp);
  dev_.unbind_texture(tex);
  auto kernel = [&](gs::ThreadCtx& ctx, unsigned) {
    (void)ctx.tex2d(tex, 0, 0);
    return gs::Step::kExit;
  };
  EXPECT_THROW((void)dev_.launch({gs::Dim3(1), gs::Dim3(1)}, kernel),
               PreconditionError);
}

TEST(Texture, ConstructionValidatesGeometry) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto data = dev.malloc<float>(64);
  EXPECT_THROW(gs::Texture2D(data, 0, 8, gs::AddressMode::kClamp),
               PreconditionError);
  EXPECT_THROW(gs::Texture2D(data, 9, 8, gs::AddressMode::kClamp),
               PreconditionError);  // 72 > 64 floats
  EXPECT_NO_THROW(gs::Texture2D(data, 8, 8, gs::AddressMode::kClamp));
  dev.free(data);
}

TEST(Texture, DistinctTexturesDoNotAliasInCacheAddressSpace) {
  gs::Device dev(gs::DeviceSpec::test_small());
  auto a = dev.malloc<float>(16);
  auto b = dev.malloc<float>(16);
  gs::Texture2D ta(a, 4, 4, gs::AddressMode::kClamp);
  gs::Texture2D tb(b, 4, 4, gs::AddressMode::kClamp);
  EXPECT_NE(ta.cache_address(0, 0), tb.cache_address(0, 0));
  dev.free(a);
  dev.free(b);
}

}  // namespace
