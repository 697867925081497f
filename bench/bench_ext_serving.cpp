// Extension — serving throughput: what does the starsim::serve stack buy?
//
// The same request stream (distinct star fields, one shared scene, adaptive
// simulator) is pushed through three execution modes:
//   direct      — one simulator, one device, plain simulate() per request
//                 (the pre-serving baseline);
//   serve-1x1   — FrameService with one worker and batching disabled, one
//                 closed-loop client (measures the service's own overhead);
//   serve-batch — FrameService with a worker fleet and dynamic batching,
//                 8+ concurrent clients (the serving configuration).
// A fourth pass replays the stream against a warm frame cache.
//
// Two claims are checked: batched concurrent serving beats one-at-a-time
// submission on wall-clock throughput, and every frame that came out of the
// service is bit-identical to the direct render of the same request.
#include <cstdio>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "imageio/image.h"
#include "serve/service.h"
#include "starsim/adaptive_simulator.h"
#include "starsim/workload.h"
#include "support/table.h"
#include "support/timer.h"
#include "support/units.h"

namespace {

using namespace starsim;
namespace sup = starsim::support;
using serve::FrameService;
using serve::FrameServiceOptions;
using serve::RenderRequest;
using serve::RenderResponse;
using serve::ServiceStats;

constexpr int kClients = 8;

RenderRequest request_for(const SceneConfig& scene, const StarField& stars) {
  RenderRequest request;
  request.scene = scene;
  request.stars = stars;
  request.simulator = SimulatorKind::kAdaptive;
  return request;
}

struct ModeResult {
  double wall_s = 0.0;
  ServiceStats stats;  // zeroed for the direct mode
};

}  // namespace

int main(int argc, char** argv) {
  using namespace starsim::bench;

  SweepOptions options;
  std::string csv_path;
  if (!parse_bench_cli(argc, argv, "bench_ext_serving",
                       "extension: frame-serving throughput, batching and "
                       "cache effects",
                       options, csv_path)) {
    return 0;
  }
  const std::size_t frames = options.quick ? 12 : 48;
  const int workers = static_cast<int>(
      std::min<unsigned>(4, std::max(2u, std::thread::hardware_concurrency())));

  SceneConfig scene;
  scene.image_width = 512;
  scene.image_height = 512;
  scene.roi_side = 10;

  // A fine lookup table: the accuracy configuration whose per-frame build
  // cost batching amortizes (see docs/serving.md).
  LookupTableOptions lut;
  lut.bins_per_magnitude = 100;
  lut.subpixel_phases = 2;

  std::vector<StarField> fields;
  for (std::size_t i = 0; i < frames; ++i) {
    WorkloadConfig workload;
    workload.star_count = 256;
    workload.image_width = scene.image_width;
    workload.image_height = scene.image_height;
    workload.seed = options.seed + i;
    fields.push_back(generate_stars(workload));
  }

  // Direct baseline + bit-identity references.
  std::vector<imageio::ImageF> references;
  references.reserve(frames);
  ModeResult direct;
  {
    gpusim::Device device(gpusim::DeviceSpec::gtx480());
    AdaptiveSimulator simulator(device, lut);
    const sup::WallTimer timer;
    for (const StarField& stars : fields) {
      references.push_back(simulator.simulate(scene, stars).image);
    }
    direct.wall_s = timer.seconds();
  }

  // Service, one worker, batching and caching off, one closed-loop client.
  ModeResult serial;
  {
    FrameServiceOptions opts;
    opts.workers = 1;
    opts.max_batch_size = 1;
    opts.cache_capacity = 0;
    opts.worker.lut = lut;
    FrameService service(std::move(opts));
    const sup::WallTimer timer;
    for (const StarField& stars : fields) {
      (void)service.render(request_for(scene, stars));
    }
    serial.wall_s = timer.seconds();
    serial.stats = service.stats();
  }

  // Service, worker fleet, dynamic batching, kClients concurrent clients.
  ModeResult batched;
  std::size_t mismatches = 0;
  {
    FrameServiceOptions opts;
    opts.workers = workers;
    opts.max_batch_size = 8;
    opts.queue_capacity = 2 * frames;
    opts.cache_capacity = 0;
    opts.worker.lut = lut;
    FrameService service(std::move(opts));

    std::vector<std::vector<std::future<RenderResponse>>> futures(kClients);
    const sup::WallTimer timer;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Client c owns every kClients-th request of the shared stream.
        for (std::size_t i = static_cast<std::size_t>(c); i < frames;
             i += kClients) {
          futures[static_cast<std::size_t>(c)].push_back(
              service.submit(request_for(scene, fields[i])));
        }
      });
    }
    for (auto& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      auto& mine = futures[static_cast<std::size_t>(c)];
      for (std::size_t j = 0; j < mine.size(); ++j) {
        const std::size_t i = static_cast<std::size_t>(c) + j * kClients;
        const RenderResponse response = mine[j].get();
        if (max_abs_difference(response.result->image, references[i]) != 0.0) {
          ++mismatches;
        }
      }
    }
    batched.wall_s = timer.seconds();
    batched.stats = service.stats();
  }

  // Replay against a warm cache: repeat traffic never reaches a device.
  ModeResult cached;
  {
    FrameServiceOptions opts;
    opts.workers = workers;
    opts.max_batch_size = 8;
    opts.cache_capacity = frames;
    opts.worker.lut = lut;
    FrameService service(std::move(opts));
    for (const StarField& stars : fields) {
      (void)service.render(request_for(scene, stars));  // cold pass
    }
    const sup::WallTimer timer;
    for (const StarField& stars : fields) {
      (void)service.render(request_for(scene, stars));  // warm pass
    }
    cached.wall_s = timer.seconds();
    cached.stats = service.stats();
  }

  std::printf(
      "Extension — serving throughput (%zu frames, 256 stars, 512^2, "
      "adaptive, %d workers, %d clients)\n\n",
      frames, workers, kClients);
  sup::ConsoleTable table({"mode", "wall", "frames/s", "p50", "p95", "p99",
                           "mean batch", "cache hits"});
  sup::CsvWriter csv({"mode", "wall_s", "throughput_fps", "p50_s", "p95_s",
                      "p99_s", "mean_batch", "cache_hit_rate"});
  const auto add = [&](const char* mode, const ModeResult& r) {
    const double fps = static_cast<double>(frames) / r.wall_s;
    table.add_row({mode, sup::format_time(r.wall_s), sup::fixed(fps, 1),
                   sup::format_time(r.stats.latency.p50),
                   sup::format_time(r.stats.latency.p95),
                   sup::format_time(r.stats.latency.p99),
                   sup::fixed(r.stats.mean_batch_size(), 2),
                   sup::fixed(r.stats.cache_hit_rate() * 100.0, 0) + "%"});
    csv.add_row({mode, sup::compact(r.wall_s), sup::fixed(fps, 2),
                 sup::compact(r.stats.latency.p50),
                 sup::compact(r.stats.latency.p95),
                 sup::compact(r.stats.latency.p99),
                 sup::fixed(r.stats.mean_batch_size(), 2),
                 sup::fixed(r.stats.cache_hit_rate(), 3)});
  };
  add("direct", direct);
  add("serve-1x1", serial);
  add("serve-batch", batched);
  add("serve-cached", cached);
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nbatch-size histogram (serve-batch): ");
  const auto& histogram = batched.stats.batch_size_histogram;
  for (std::size_t size = 1; size < histogram.size(); ++size) {
    if (histogram[size] > 0) {
      std::printf("%zux%llu ", size,
                  static_cast<unsigned long long>(histogram[size]));
    }
  }
  std::puts("");
  std::printf("bit-identity vs direct renders: %s (%zu mismatching frames)\n",
              mismatches == 0 ? "PASS" : "FAIL", mismatches);
  const double speedup = serial.wall_s / batched.wall_s;
  std::printf("throughput: serve-batch is %.2fx serve-1x1\n", speedup);
  std::puts(
      "\nreading: batching shares one LUT build/upload/bind per compatible"
      "\nrun and the worker fleet renders runs concurrently, so batched"
      "\nsubmission clears the stream in a fraction of the one-at-a-time"
      "\nwall; the warm cache replays the stream without touching a device.");
  maybe_write_csv(csv, csv_path);
  return mismatches == 0 && speedup > 1.0 ? 0 : 1;
}
