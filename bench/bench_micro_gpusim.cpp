// Micro-benchmarks (google-benchmark) for the simulator's building blocks:
// the functional engine's per-thread cost, cache/texture machinery, the
// PSF/brightness arithmetic, and workload generation. These measure *this
// repository's* host-side execution speed (how fast the simulation of the
// GPU runs), not the modeled GTX480 times the paper benches report.
#include <benchmark/benchmark.h>

#include <vector>

#include "gpusim/cache.h"
#include "gpusim/device.h"
#include "gpusim/morton.h"
#include "starsim/cost_model.h"
#include "starsim/lookup_table.h"
#include "starsim/magnitude.h"
#include "starsim/psf.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"
#include "support/rng.h"
#include "trace/trace.h"

namespace {

namespace gs = starsim::gpusim;

void BM_Pcg32Uniform(benchmark::State& state) {
  starsim::support::Pcg32 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_Pcg32Uniform);

void BM_MortonEncode(benchmark::State& state) {
  std::uint32_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::morton_encode(x & 0xffff, (x >> 16)));
    ++x;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_CacheAccess(benchmark::State& state) {
  gs::SetAssociativeCache cache(12 << 10, 32, 4);
  std::uint64_t address = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(address));
    address = (address + 96) % (64 << 10);
  }
}
BENCHMARK(BM_CacheAccess);

void BM_PsfIntensityRate(benchmark::State& state) {
  const starsim::GaussianPsf psf(1.7);
  double d = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(psf.intensity_rate(d, -d));
    d += 1e-6;
  }
}
BENCHMARK(BM_PsfIntensityRate);

void BM_PsfIntegratedRate(benchmark::State& state) {
  const starsim::GaussianPsf psf(1.7);
  double d = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(psf.integrated_rate(d, -d));
    d += 1e-6;
  }
}
BENCHMARK(BM_PsfIntegratedRate);

void BM_Brightness(benchmark::State& state) {
  const starsim::BrightnessModel model;
  double m = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.brightness(m));
    m = m < 15.0 ? m + 1e-6 : 0.0;
  }
}
BENCHMARK(BM_Brightness);

void BM_LookupTableBuild(benchmark::State& state) {
  starsim::SceneConfig scene;
  scene.roi_side = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(starsim::LookupTable::build(scene));
  }
  state.SetItemsProcessed(state.iterations() * 15 * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_LookupTableBuild)->Arg(10)->Arg(20)->Arg(32);

void BM_WorkloadGeneration(benchmark::State& state) {
  starsim::WorkloadConfig config;
  config.star_count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(starsim::generate_stars(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorkloadGeneration)->Arg(1024)->Arg(8192);

// Host-side cost of simulating one GPU thread (two phases around a barrier,
// counter updates, one atomic) — the figure that determines how long the
// paper-scale sweeps take on this machine. range(0) is the block side: 10
// is test1's ROI (100 threads, 4 warps, the last one partial), 32 the
// largest ROI of test2 (1024 threads, 32 full warps).
void BM_FunctionalEngineThreadCost(benchmark::State& state) {
  gs::Device device(gs::DeviceSpec::gtx480());
  auto image = device.malloc<float>(1 << 16);
  device.memset_zero(image);
  auto kernel = [&image](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(1);
    if (phase == 0) {
      if (ctx.thread_linear() == 0) shared.set(0, 1.0f);
      return gs::Step::kSync;
    }
    ctx.count_flops(10);
    ctx.atomic_add(image,
                   (ctx.block_linear() * 97 + ctx.thread_linear()) & 0xffff,
                   shared.get(0));
    return gs::Step::kExit;
  };
  const auto side = static_cast<std::uint32_t>(state.range(0));
  const gs::LaunchConfig config{gs::Dim3(64), gs::Dim3(side, side)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.launch(config, kernel));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_threads()));
  device.free(image);
}
BENCHMARK(BM_FunctionalEngineThreadCost)->Arg(10)->Arg(32);

// The adaptive kernel's shape: thread 0 stages four floats in shared
// memory, every thread reads them back after the barrier, takes a boundary
// branch, fetches one texel through its SM's texture cache and accumulates
// it with an atomic. range(0) is the block side, as above.
void BM_FunctionalEngineTextureThreadCost(benchmark::State& state) {
  gs::Device device(gs::DeviceSpec::gtx480());
  const auto side = static_cast<std::uint32_t>(state.range(0));
  constexpr int kBins = 16;
  const int width = static_cast<int>(side);
  const int height = kBins * width;
  auto table = device.malloc<float>(static_cast<std::size_t>(width) *
                                    static_cast<std::size_t>(height));
  device.memset_zero(table);
  const gs::TextureHandle lut =
      device.bind_texture_2d(table, width, height, gs::AddressMode::kClamp);
  auto image = device.malloc<float>(1 << 16);
  device.memset_zero(image);
  auto kernel = [&image, lut, side](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(4);
    if (phase == 0) {
      if (ctx.thread_linear() == 0) {
        shared.set(0, static_cast<float>(ctx.block_linear() % kBins));
        shared.set(1, static_cast<float>(ctx.block_linear() * 7 % 200));
        shared.set(2, static_cast<float>(ctx.block_linear() * 13 % 200));
        shared.set(3, 1.0f);
      }
      return gs::Step::kSync;
    }
    const auto bin = static_cast<int>(shared.get(0));
    const auto x = static_cast<std::uint64_t>(shared.get(1)) +
                   ctx.thread_idx().x;
    const auto y = static_cast<std::uint64_t>(shared.get(2)) +
                   ctx.thread_idx().y;
    const float weight = shared.get(3);
    ctx.count_flops(8);
    ctx.branch(0, x < 256 && y < 256);
    const float value = ctx.tex2d(
        lut, static_cast<int>(ctx.thread_idx().x),
        bin * static_cast<int>(side) + static_cast<int>(ctx.thread_idx().y));
    ctx.atomic_add(image, (y * 256 + x) & 0xffff, value * weight);
    return gs::Step::kExit;
  };
  const gs::LaunchConfig config{gs::Dim3(64), gs::Dim3(side, side)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.launch(config, kernel));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_threads()));
  device.unbind_texture(lut);
  device.free(image);
  device.free(table);
}
BENCHMARK(BM_FunctionalEngineTextureThreadCost)->Arg(10)->Arg(32);

// The same kernel with the sanitizer armed — the on/off delta is the
// instrumentation cost documented in docs/gpusim.md. range(0) selects the
// mode: 0 = off (the near-zero-overhead contract), 1 = memcheck+synccheck,
// 2 = all four tools (racecheck's shadow words dominate).
void BM_FunctionalEngineThreadCostSanitized(benchmark::State& state) {
  gs::Device device(gs::DeviceSpec::gtx480());
  switch (state.range(0)) {
    case 0: device.set_sanitizer(gs::SanitizerMode::kOff); break;
    case 1:
      device.set_sanitizer(gs::SanitizerMode::kMemcheck |
                           gs::SanitizerMode::kSynccheck);
      break;
    default: device.set_sanitizer(gs::SanitizerMode::kAll); break;
  }
  auto image = device.malloc<float>(1 << 16);
  device.memset_zero(image);
  auto kernel = [&image](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(1);
    if (phase == 0) {
      if (ctx.thread_linear() == 0) shared.set(0, 1.0f);
      return gs::Step::kSync;
    }
    ctx.count_flops(10);
    ctx.atomic_add(image,
                   (ctx.block_linear() * 97 + ctx.thread_linear()) & 0xffff,
                   shared.get(0));
    return gs::Step::kExit;
  };
  const gs::LaunchConfig config{gs::Dim3(64), gs::Dim3(10, 10)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.launch(config, kernel));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_threads()));
  device.free(image);
}
BENCHMARK(BM_FunctionalEngineThreadCostSanitized)->Arg(0)->Arg(1)->Arg(2);

// The same kernel under the tracer — the on/off delta is the observability
// cost documented in docs/observability.md. range(0) = 0 measures the
// disabled path (one relaxed atomic load per instrumented site; the contract
// is "within noise of BM_FunctionalEngineThreadCost"), 1 measures live
// recording of every kernel_launch span. The buffer is cleared periodically
// (off the clock) so long runs stay memory-bounded.
void BM_FunctionalEngineThreadCostTraced(benchmark::State& state) {
  starsim::trace::TraceRecorder& recorder =
      starsim::trace::TraceRecorder::instance();
  const bool traced = state.range(0) != 0;
  if (traced) {
    recorder.start();
  } else {
    recorder.stop();
  }
  gs::Device device(gs::DeviceSpec::gtx480());
  auto image = device.malloc<float>(1 << 16);
  device.memset_zero(image);
  auto kernel = [&image](gs::ThreadCtx& ctx, unsigned phase) {
    auto shared = ctx.shared_array<float>(1);
    if (phase == 0) {
      if (ctx.thread_linear() == 0) shared.set(0, 1.0f);
      return gs::Step::kSync;
    }
    ctx.count_flops(10);
    ctx.atomic_add(image,
                   (ctx.block_linear() * 97 + ctx.thread_linear()) & 0xffff,
                   shared.get(0));
    return gs::Step::kExit;
  };
  const gs::LaunchConfig config{gs::Dim3(64), gs::Dim3(10, 10)};
  std::int64_t since_clear = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.launch(config, kernel));
    if (traced && ++since_clear == 1024) {
      state.PauseTiming();
      recorder.clear();
      since_clear = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_threads()));
  device.free(image);
  recorder.stop();
  recorder.clear();
}
BENCHMARK(BM_FunctionalEngineThreadCostTraced)->Arg(0)->Arg(1);

void BM_SequentialSimulatorPixelRate(benchmark::State& state) {
  starsim::SceneConfig scene;
  scene.image_width = 256;
  scene.image_height = 256;
  scene.roi_side = 10;
  starsim::WorkloadConfig workload;
  workload.star_count = 512;
  workload.image_width = 256;
  workload.image_height = 256;
  const starsim::StarField stars = generate_stars(workload);
  starsim::SequentialSimulator sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(scene, stars));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 100);
}
BENCHMARK(BM_SequentialSimulatorPixelRate);

}  // namespace

BENCHMARK_MAIN();
