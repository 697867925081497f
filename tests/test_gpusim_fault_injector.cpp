#include "gpusim/fault_injector.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/stream.h"
#include "support/error.h"

namespace {

namespace gs = starsim::gpusim;
using gs::FaultInjector;
using gs::FaultKind;
using gs::FaultPolicy;
using gs::FaultSite;
using starsim::support::DeviceError;
using starsim::support::DeviceLostError;
using starsim::support::KernelTimeoutError;
using starsim::support::PreconditionError;
using starsim::support::TransferError;

// Drives every site a fixed number of times, swallowing injected faults,
// and returns the recorded history.
std::vector<gs::InjectedFault> drive(FaultInjector& injector, int rounds) {
  std::vector<std::byte> payload(256, std::byte{0});
  for (int i = 0; i < rounds; ++i) {
    try {
      injector.on_malloc(1024);
    } catch (const DeviceError&) {
    }
    try {
      injector.on_transfer(FaultSite::kMemcpyH2D, payload.data(),
                           payload.size());
    } catch (const DeviceError&) {
    }
    try {
      injector.on_transfer(FaultSite::kMemcpyD2H, payload.data(),
                           payload.size());
    } catch (const DeviceError&) {
    }
    try {
      injector.on_kernel_launch(1e-3);
    } catch (const DeviceError&) {
    }
  }
  return injector.history();
}

TEST(FaultInjector, NoFaultsAtZeroRates) {
  FaultInjector injector(FaultPolicy{});
  const auto history = drive(injector, 50);
  EXPECT_TRUE(history.empty());
  EXPECT_FALSE(injector.device_lost());
  EXPECT_EQ(injector.consult_count(), 200u);
}

TEST(FaultInjector, RejectsOutOfRangeRates) {
  FaultPolicy policy;
  policy.h2d_fault_rate = 1.5;
  EXPECT_THROW(FaultInjector{policy}, PreconditionError);
  policy.h2d_fault_rate = -0.1;
  EXPECT_THROW(FaultInjector{policy}, PreconditionError);
}

TEST(FaultInjector, SameSeedSameFaultSequence) {
  const FaultPolicy policy = FaultPolicy::transient(0.2, 77);
  FaultInjector a(policy);
  FaultInjector b(policy);
  const auto history_a = drive(a, 100);
  const auto history_b = drive(b, 100);
  ASSERT_FALSE(history_a.empty());
  EXPECT_EQ(history_a, history_b);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(FaultPolicy::transient(0.2, 1));
  FaultInjector b(FaultPolicy::transient(0.2, 2));
  EXPECT_NE(drive(a, 100), drive(b, 100));
}

TEST(FaultInjector, ResetReplaysIdentically) {
  FaultInjector injector(FaultPolicy::transient(0.25, 9));
  const auto first = drive(injector, 60);
  injector.reset();
  EXPECT_EQ(injector.consult_count(), 0u);
  const auto second = drive(injector, 60);
  EXPECT_EQ(first, second);
}

TEST(FaultInjector, ApproximatesConfiguredRate) {
  FaultPolicy policy;
  policy.seed = 3;
  policy.h2d_fault_rate = 0.1;
  FaultInjector injector(policy);
  std::vector<std::byte> payload(16, std::byte{0});
  int faults = 0;
  for (int i = 0; i < 5000; ++i) {
    try {
      injector.on_transfer(FaultSite::kMemcpyH2D, payload.data(),
                           payload.size());
    } catch (const TransferError&) {
      ++faults;
    }
  }
  EXPECT_GT(faults, 5000 * 0.1 * 0.6);
  EXPECT_LT(faults, 5000 * 0.1 * 1.4);
}

TEST(FaultInjector, TransferFaultsAreRetryableTransferErrors) {
  FaultPolicy policy;
  policy.seed = 11;
  policy.d2h_fault_rate = 1.0;
  FaultInjector injector(policy);
  std::vector<std::byte> payload(64, std::byte{0});
  try {
    injector.on_transfer(FaultSite::kMemcpyD2H, payload.data(),
                         payload.size());
    FAIL() << "expected TransferError";
  } catch (const TransferError& error) {
    EXPECT_TRUE(error.retryable());
    EXPECT_NE(std::string(error.what()).find("fault_injector"),
              std::string::npos);
  }
}

TEST(FaultInjector, CorruptionActuallyFlipsAByte) {
  FaultPolicy policy;
  policy.seed = 5;
  policy.h2d_fault_rate = 1.0;
  policy.corruption_fraction = 1.0;  // every fault corrupts
  FaultInjector injector(policy);
  std::vector<std::byte> payload(256, std::byte{0});
  EXPECT_THROW(injector.on_transfer(FaultSite::kMemcpyH2D, payload.data(),
                                    payload.size()),
               TransferError);
  int flipped = 0;
  for (std::byte b : payload) {
    if (b != std::byte{0}) ++flipped;
  }
  EXPECT_EQ(flipped, 1);
  ASSERT_EQ(injector.history().size(), 1u);
  EXPECT_EQ(injector.history()[0].kind, FaultKind::kTransferCorruption);
}

TEST(FaultInjector, OutrightFailureTearsDestination) {
  FaultPolicy policy;
  policy.seed = 5;
  policy.h2d_fault_rate = 1.0;
  policy.corruption_fraction = 0.0;  // every fault fails outright
  FaultInjector injector(policy);
  std::vector<std::byte> payload(256, std::byte{0});
  EXPECT_THROW(injector.on_transfer(FaultSite::kMemcpyH2D, payload.data(),
                                    payload.size()),
               TransferError);
  EXPECT_EQ(payload[0], std::byte{0xee});
  ASSERT_EQ(injector.history().size(), 1u);
  EXPECT_EQ(injector.history()[0].kind, FaultKind::kTransferFailure);
}

TEST(FaultInjector, InjectedOomIsRetryable) {
  FaultPolicy policy;
  policy.seed = 21;
  policy.malloc_oom_rate = 1.0;
  FaultInjector injector(policy);
  try {
    injector.on_malloc(4096);
    FAIL() << "expected DeviceError";
  } catch (const DeviceError& error) {
    EXPECT_TRUE(error.retryable());
  }
}

TEST(FaultInjector, WatchdogBudgetIsDeterministic) {
  FaultPolicy policy;
  policy.watchdog_budget_s = 1e-3;
  FaultInjector injector(policy);
  EXPECT_NO_THROW(injector.on_kernel_launch(5e-4));
  // Over budget: every attempt times out, regardless of the RNG.
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(injector.on_kernel_launch(2e-3), KernelTimeoutError);
  }
}

TEST(FaultInjector, DeviceLostLatchesAcrossAllSites) {
  FaultInjector injector(FaultPolicy{});
  injector.mark_device_lost();
  EXPECT_TRUE(injector.device_lost());
  std::vector<std::byte> payload(8, std::byte{0});
  EXPECT_THROW(injector.on_malloc(1), DeviceLostError);
  EXPECT_THROW(
      injector.on_transfer(FaultSite::kMemcpyH2D, payload.data(), 8),
      DeviceLostError);
  EXPECT_THROW(injector.on_kernel_launch(1e-6), DeviceLostError);
  EXPECT_THROW(injector.on_texture_bind(), DeviceLostError);
  EXPECT_THROW(injector.on_stream_enqueue(), DeviceLostError);
  injector.reset();
  EXPECT_FALSE(injector.device_lost());
  EXPECT_NO_THROW(injector.on_malloc(1));
}

TEST(FaultInjector, EscalationEventuallyLosesTheDevice) {
  FaultPolicy policy;
  policy.seed = 13;
  policy.h2d_fault_rate = 1.0;
  policy.device_lost_rate = 0.5;
  FaultInjector injector(policy);
  std::vector<std::byte> payload(8, std::byte{0});
  bool lost = false;
  for (int i = 0; i < 64 && !lost; ++i) {
    try {
      injector.on_transfer(FaultSite::kMemcpyH2D, payload.data(), 8);
    } catch (const DeviceLostError&) {
      lost = true;
    } catch (const TransferError&) {
    }
  }
  EXPECT_TRUE(lost);
  EXPECT_TRUE(injector.device_lost());
  EXPECT_EQ(injector.history().back().kind, FaultKind::kDeviceLost);
}

TEST(FaultInjector, DeviceConsultsInjectorOnTransfers) {
  gs::Device device(gs::DeviceSpec::gtx480());
  FaultPolicy policy;
  policy.seed = 17;
  policy.h2d_fault_rate = 1.0;
  policy.corruption_fraction = 0.0;
  FaultInjector injector(policy);
  device.set_fault_injector(&injector);
  auto buffer = device.malloc<float>(16);
  const std::vector<float> host(16, 1.0f);
  EXPECT_THROW(device.memcpy_h2d(buffer, std::span<const float>(host)),
               TransferError);
  device.set_fault_injector(nullptr);
  EXPECT_NO_THROW(device.memcpy_h2d(buffer, std::span<const float>(host)));
  device.free(buffer);
}

// The zero upload is an h2d transfer site: an injected in-flight bit flip
// lands in the freshly zeroed image, exactly one byte of it.
TEST(FaultInjector, ZeroUploadCarriesInjectedBitFlip) {
  gs::Device device(gs::DeviceSpec::gtx480());
  FaultPolicy policy;
  policy.seed = 29;
  policy.h2d_fault_rate = 1.0;
  policy.corruption_fraction = 1.0;  // every fault corrupts
  FaultInjector injector(policy);
  device.set_fault_injector(&injector);
  auto image = device.malloc<float>(4096);
  EXPECT_THROW(device.memcpy_h2d_zero(image), TransferError);
  device.set_fault_injector(nullptr);
  ASSERT_EQ(injector.history().size(), 1u);
  EXPECT_EQ(injector.history()[0].site, FaultSite::kMemcpyH2D);
  EXPECT_EQ(injector.history()[0].kind, FaultKind::kTransferCorruption);
  std::vector<float> host(image.size(), -1.0f);
  device.memcpy_d2h(std::span<float>(host), image);
  int flipped_bits = 0;
  for (const float v : host) {
    const auto word = std::bit_cast<std::uint32_t>(v);
    EXPECT_EQ(word & ~0x40404040u, 0u);  // only a 0x40 in some byte
    flipped_bits += std::popcount(word);
  }
  EXPECT_EQ(flipped_bits, 1);
  device.free(image);
}

TEST(FaultInjector, DeviceMallocConsultsInjector) {
  gs::Device device(gs::DeviceSpec::gtx480());
  FaultPolicy policy;
  policy.seed = 19;
  policy.malloc_oom_rate = 1.0;
  FaultInjector injector(policy);
  device.set_fault_injector(&injector);
  EXPECT_THROW((void)device.malloc<float>(16), DeviceError);
  EXPECT_EQ(device.memory().used_bytes(), 0u);
  EXPECT_TRUE(device.lost() == false);
}

TEST(FaultInjector, StreamSchedulerConsultsInjector) {
  gs::StreamScheduler scheduler(1);
  const gs::StreamId stream = scheduler.create_stream();
  FaultPolicy policy;
  policy.seed = 23;
  policy.stream_fault_rate = 1.0;
  FaultInjector injector(policy);
  scheduler.set_fault_injector(&injector);
  EXPECT_THROW((void)scheduler.enqueue_h2d(stream, 1e-3), TransferError);
  scheduler.set_fault_injector(nullptr);
  EXPECT_NO_THROW((void)scheduler.enqueue_h2d(stream, 1e-3));
}

TEST(FaultInjector, LostDeviceReportsThroughDevice) {
  gs::Device device(gs::DeviceSpec::gtx480());
  EXPECT_FALSE(device.lost());
  FaultInjector injector(FaultPolicy{});
  device.set_fault_injector(&injector);
  EXPECT_FALSE(device.lost());
  injector.mark_device_lost();
  EXPECT_TRUE(device.lost());
  EXPECT_THROW((void)device.malloc<float>(1), DeviceLostError);
}

}  // namespace
