// starsim_cli — the library as a command-line workflow, mirroring the
// paper's four-stage pipeline as composable steps that exchange star files:
//
//   starsim_cli catalog  --count 200000 --out sky.cat
//   starsim_cli project  --catalog sky.cat --yaw 12 --pitch 3 --out fov.stars
//   starsim_cli generate --stars 8192 --out random.stars
//   starsim_cli simulate --in fov.stars --sim auto --out frame
//   starsim_cli autoschedule --roi 10 --schedule-cache schedules.txt
//   starsim_cli serve-bench --clients 8 --workers 2 --batch 8
//   starsim_cli serve-bench --shards 4 --replicas 2 --hedge-ms 5
//   starsim_cli trace-check --trace trace.json --metrics metrics.prom
//
// `simulate --sim auto` renders the schedule the serving auto-scheduler
// tunes for the workload; `serve-bench` load-tests the concurrent
// FrameService (docs/serving.md). Both accept --trace=<file> to export a
// Chrome trace of the run, serve-bench adds --metrics=<file> for one
// Prometheus scrape, and trace-check validates either artifact
// (docs/observability.md).
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/router.h"
#include "gpusim/device.h"
#include "gpusim/fault_injector.h"
#include "gpusim/sanitizer.h"
#include "sched/apply.h"
#include "sched/scheduler.h"
#include "serve/service.h"
#include "starsim/adaptive_simulator.h"
#include "starsim/openmp_simulator.h"
#include "starsim/parallel_simulator.h"
#include "starsim/projection.h"
#include "starsim/render.h"
#include "starsim/resilient_executor.h"
#include "starsim/sequential_simulator.h"
#include "starsim/star_io.h"
#include "starsim/workload.h"
#include "support/cli.h"
#include "support/timer.h"
#include "support/units.h"
#include "trace/chrome_trace.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace {

using namespace starsim;
namespace sup = starsim::support;

/// Parse a --sanitize value; nullopt (after an stderr diagnostic) on junk.
std::optional<gpusim::SanitizerMode> parse_sanitize(const std::string& value) {
  try {
    return gpusim::sanitizer_mode_from_string(value);
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "bad --sanitize (want off|memcheck|race|sync|leak|all): %s\n",
                 value.c_str());
    return std::nullopt;
  }
}

/// Whole-file slurp for trace-check; nullopt (after a diagnostic) on failure.
std::optional<std::string> read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Stop the recorder and export its snapshot as Chrome trace JSON.
int finish_trace(const std::string& path) {
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  recorder.stop();
  try {
    trace::write_chrome_trace(path, recorder.snapshot());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cannot write trace %s: %s\n", path.c_str(),
                 error.what());
    return 1;
  }
  std::printf("wrote trace to %s (load in Perfetto or chrome://tracing)\n",
              path.c_str());
  return 0;
}

int cmd_catalog(int argc, char** argv) {
  sup::Cli cli("starsim_cli catalog", "synthesize a celestial catalogue");
  cli.add_option("count", "catalogue size", "200000");
  cli.add_option("seed", "generator seed", "2012");
  cli.add_option("magmax", "faintest magnitude", "7.0");
  cli.add_option("out", "output catalogue file", "sky.cat");
  if (!cli.parse(argc, argv)) return 0;
  const Catalog catalog = Catalog::synthesize(
      static_cast<std::size_t>(cli.integer("count")),
      static_cast<std::uint64_t>(cli.integer("seed")), 0.0,
      cli.real("magmax"));
  write_catalog_file(catalog, cli.str("out"));
  std::printf("wrote %zu catalogue stars to %s\n", catalog.size(),
              cli.str("out").c_str());
  return 0;
}

int cmd_project(int argc, char** argv) {
  sup::Cli cli("starsim_cli project",
               "retrieve the FOV stars for an attitude");
  cli.add_option("catalog", "input catalogue file", "sky.cat");
  cli.add_option("yaw", "attitude yaw, degrees", "0");
  cli.add_option("pitch", "attitude pitch, degrees", "0");
  cli.add_option("roll", "attitude roll, degrees", "0");
  cli.add_option("size", "image edge, pixels", "1024");
  cli.add_option("focal", "focal length, pixels", "2500");
  cli.add_option("maglimit", "detection limit", "6.5");
  cli.add_option("out", "output star file", "fov.stars");
  if (!cli.parse(argc, argv)) return 0;
  const Catalog catalog = read_catalog_file(cli.str("catalog"));
  CameraModel camera;
  camera.width = static_cast<int>(cli.integer("size"));
  camera.height = camera.width;
  camera.focal_length_px = cli.real("focal");
  camera.magnitude_limit = cli.real("maglimit");
  constexpr double kDeg = std::numbers::pi / 180.0;
  const Quaternion attitude = Quaternion::from_euler(
      cli.real("yaw") * kDeg, cli.real("pitch") * kDeg,
      cli.real("roll") * kDeg);
  const StarField stars = project_to_image(catalog.stars(), attitude, camera);
  write_star_file(stars, cli.str("out"));
  std::printf("projected %zu of %zu stars into the FOV -> %s\n",
              stars.size(), catalog.size(), cli.str("out").c_str());
  return 0;
}

int cmd_generate(int argc, char** argv) {
  sup::Cli cli("starsim_cli generate",
               "generate a random benchmark star field");
  cli.add_option("stars", "number of stars", "8192");
  cli.add_option("size", "image edge, pixels", "1024");
  cli.add_option("seed", "generator seed", "42");
  cli.add_flag("subpixel", "continuous (non-integer) positions");
  cli.add_option("out", "output star file", "random.stars");
  if (!cli.parse(argc, argv)) return 0;
  WorkloadConfig workload;
  workload.star_count = static_cast<std::size_t>(cli.integer("stars"));
  workload.image_width = static_cast<int>(cli.integer("size"));
  workload.image_height = workload.image_width;
  workload.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  workload.integer_positions = !cli.flag("subpixel");
  const StarField stars = generate_stars(workload);
  write_star_file(stars, cli.str("out"));
  std::printf("wrote %zu stars to %s\n", stars.size(),
              cli.str("out").c_str());
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  sup::Cli cli("starsim_cli simulate", "render a star file to an image");
  cli.add_option("in", "input star file", "random.stars");
  cli.add_option(
      "sim", "auto | sequential | cpu | parallel | adaptive", "auto");
  cli.add_option("size", "image edge, pixels", "1024");
  cli.add_option("roi", "ROI side, pixels", "10");
  cli.add_option("sigma", "PSF sigma, pixels", "1.7");
  cli.add_flag("integrated", "pixel-integrated PSF response");
  cli.add_flag("noise", "apply sensor noise");
  cli.add_option("out", "output image prefix", "frame");
  cli.add_flag("inject-faults",
               "inject deterministic device faults (see docs/resilience.md)");
  cli.add_option("fault-rate", "per-operation fault probability", "0.05");
  cli.add_option("fault-seed", "fault-injection RNG seed", "2012");
  cli.add_option("max-retries", "retries per simulator before degrading",
                 "3");
  cli.add_option("sanitize",
                 "instrument the device: off | memcheck | race | sync | "
                 "leak | all (non-zero exit on findings)",
                 "off");
  cli.add_option("trace",
                 "write a Chrome trace of the render to this file "
                 "(docs/observability.md)",
                 "");
  if (!cli.parse(argc, argv)) return 0;
  const std::optional<gpusim::SanitizerMode> sanitize =
      parse_sanitize(cli.str("sanitize"));
  if (!sanitize.has_value()) return 1;

  const StarField stars = read_star_file(cli.str("in"));
  SceneConfig scene;
  scene.image_width = static_cast<int>(cli.integer("size"));
  scene.image_height = scene.image_width;
  scene.roi_side = static_cast<int>(cli.integer("roi"));
  scene.psf_sigma = cli.real("sigma");
  scene.pixel_integration = cli.flag("integrated");

  gpusim::Device device(gpusim::DeviceSpec::gtx480());
  device.set_sanitizer(*sanitize);
  std::unique_ptr<Simulator> simulator;
  const std::string which = cli.str("sim");
  if (which == "auto") {
    // The serving chooser: render exactly the schedule it tunes (tiling and
    // lookup table included). A field with no stars renders sequentially,
    // as Scheduler::choose does.
    sched::Schedule schedule;
    schedule.simulator = SimulatorKind::kSequential;
    if (!stars.empty()) {
      sched::Scheduler scheduler;
      schedule = scheduler.schedule_for(scene, stars.size()).schedule;
    }
    std::printf("scheduler picked: %s\n", schedule.to_string().c_str());
    simulator = sched::build_simulator(device, schedule);
  } else if (which == "sequential") {
    simulator = std::make_unique<SequentialSimulator>();
  } else if (which == "cpu" || which == "cpu-parallel") {
    simulator = std::make_unique<OpenMpSimulator>();
  } else if (which == "parallel") {
    simulator = std::make_unique<ParallelSimulator>(device);
  } else if (which == "adaptive") {
    simulator = std::make_unique<AdaptiveSimulator>(device);
  } else {
    std::fprintf(stderr, "unknown simulator: %s\n", which.c_str());
    return 1;
  }

  // With fault injection, the chosen simulator becomes the head of a
  // degradation chain (chosen -> cpu-parallel -> sequential) behind a
  // ResilientExecutor, and the device gets a seeded transient-fault oracle.
  std::unique_ptr<gpusim::FaultInjector> injector;
  if (cli.flag("inject-faults")) {
    injector = std::make_unique<gpusim::FaultInjector>(
        gpusim::FaultPolicy::transient(
            cli.real("fault-rate"),
            static_cast<std::uint64_t>(cli.integer("fault-seed"))));
    device.set_fault_injector(injector.get());
    RetryPolicy retry;
    retry.max_retries = static_cast<int>(cli.integer("max-retries"));
    std::vector<std::unique_ptr<Simulator>> chain;
    chain.push_back(std::move(simulator));
    chain.push_back(std::make_unique<OpenMpSimulator>());
    chain.push_back(std::make_unique<SequentialSimulator>());
    simulator =
        std::make_unique<ResilientExecutor>(std::move(chain), retry);
  }

  const std::string trace_path = cli.str("trace");
  if (!trace_path.empty()) {
    trace::TraceRecorder::instance().set_thread_name("main");
    trace::TraceRecorder::instance().start();
  }
  const SimulationResult result = simulator->simulate(scene, stars);
  if (!trace_path.empty() && finish_trace(trace_path) != 0) return 1;
  if (injector) {
    const auto& executor = static_cast<const ResilientExecutor&>(*simulator);
    const ResilienceReport& report = executor.last_report();
    std::printf(
        "resilience: %d attempt(s), %zu fault(s), %d fallback(s); "
        "final simulator: %s%s; modeled backoff %s\n",
        report.attempts, report.faults.size(), report.fallbacks,
        report.final_simulator.c_str(),
        report.degraded ? " (degraded)" : "",
        sup::format_time(report.backoff_total_s).c_str());
    for (const FaultEvent& fault : report.faults) {
      std::printf("  fault in %s: %s\n", fault.simulator.c_str(),
                  fault.error.c_str());
    }
  }
  std::printf(
      "%zu stars -> %dx%d frame with the %s simulator\n"
      "modeled: %s application (%s kernel, %s non-kernel); wall here: %s\n",
      stars.size(), scene.image_width, scene.image_height,
      simulator->name().data(),
      sup::format_time(result.timing.application_s()).c_str(),
      sup::format_time(result.timing.kernel_s).c_str(),
      sup::format_time(result.timing.non_kernel_s()).c_str(),
      sup::format_time(result.timing.wall_s).c_str());

  RenderOptions render;
  render.tonemap.gamma = 2.2f;
  render.apply_noise = cli.flag("noise");
  save_star_image(result.image, cli.str("out"), render);
  std::printf("wrote %s.bmp and %s.pgm\n", cli.str("out").c_str(),
              cli.str("out").c_str());

  if (*sanitize != gpusim::SanitizerMode::kOff) {
    gpusim::SanitizerReport report = device.sanitizer_report();
    report.mode = *sanitize;
    if (gpusim::sanitizer_enabled(*sanitize,
                                  gpusim::SanitizerMode::kLeakcheck)) {
      // Leakcheck judges teardown: a well-behaved simulator frees its
      // buffers and unbinds its textures when destroyed, so destroy it
      // first and audit what it left on the device.
      simulator.reset();
      report.merge(device.leak_report());
    }
    std::printf("%s\n", report.summary().c_str());
    if (!report.clean()) return 1;
  }
  return 0;
}

/// Map a --device name onto the specs DeviceSpec ships.
std::optional<gpusim::DeviceSpec> parse_device(const std::string& name) {
  if (name == "gtx480") return gpusim::DeviceSpec::gtx480();
  if (name == "gtx580") return gpusim::DeviceSpec::gtx580();
  if (name == "k20") return gpusim::DeviceSpec::k20();
  std::fprintf(stderr, "bad --device (want gtx480|gtx580|k20): %s\n",
               name.c_str());
  return std::nullopt;
}

int cmd_autoschedule(int argc, char** argv) {
  sup::Cli cli("starsim_cli autoschedule",
               "tune an execution schedule with the cost model "
               "(docs/scheduling.md)");
  cli.add_option("stars",
                 "star count to tune for (0 = sweep the paper's test1 "
                 "power-of-two grid)",
                 "0");
  cli.add_option("size", "image edge, pixels", "1024");
  cli.add_option("roi", "ROI side, pixels", "10");
  cli.add_option("sigma", "PSF sigma, pixels", "1.7");
  cli.add_flag("integrated", "pixel-integrated PSF response");
  cli.add_option("lut-bins", "adaptive LUT accuracy floor, bins/magnitude",
                 "1");
  cli.add_option("lut-phases", "adaptive LUT accuracy floor, subpixel phases",
                 "1");
  cli.add_option("batch", "frames batched per scene (setup amortization)",
                 "1");
  cli.add_option("device", "modeled GPU: gtx480 | gtx580 | k20", "gtx480");
  cli.add_option("seed", "tuner annealing seed", "1");
  cli.add_option("schedule-cache",
                 "warm-start file: load before tuning, save after ('' = "
                 "in-memory only)",
                 "");
  if (!cli.parse(argc, argv)) return 0;
  const std::optional<gpusim::DeviceSpec> device =
      parse_device(cli.str("device"));
  if (!device.has_value()) return 1;

  SceneConfig scene;
  scene.image_width = static_cast<int>(cli.integer("size"));
  scene.image_height = scene.image_width;
  scene.roi_side = static_cast<int>(cli.integer("roi"));
  scene.psf_sigma = cli.real("sigma");
  scene.pixel_integration = cli.flag("integrated");

  sched::SchedulerOptions options;
  options.device = *device;
  options.lut_floor.bins_per_magnitude =
      static_cast<int>(cli.integer("lut-bins"));
  options.lut_floor.subpixel_phases =
      static_cast<int>(cli.integer("lut-phases"));
  options.batch_hint = static_cast<std::size_t>(cli.integer("batch"));
  options.tuner.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  sched::Scheduler scheduler(options);

  const std::string cache_path = cli.str("schedule-cache");
  if (!cache_path.empty() && scheduler.load_cache(cache_path)) {
    std::printf("loaded schedule cache from %s\n", cache_path.c_str());
  }

  std::vector<std::size_t> counts;
  const auto pinned = static_cast<std::size_t>(cli.integer("stars"));
  if (pinned > 0) {
    counts.push_back(pinned);
  } else {
    for (std::size_t n = 32; n <= 131072; n *= 2) counts.push_back(n);
  }

  const sched::Tuner& tuner = scheduler.tuner();
  std::printf("device %s, %dx%d image, ROI %d, batch %zu\n",
              options.device.name.c_str(), scene.image_width,
              scene.image_height, scene.roi_side, options.batch_hint);
  std::printf("%9s  %-34s %12s %12s %12s %9s\n", "stars", "tuned schedule",
              "tuned", "parallel", "adaptive", "speedup");
  for (const std::size_t n : counts) {
    sched::Workload workload;
    workload.scene = scene;
    workload.star_count = n;
    workload.batch_hint = options.batch_hint;
    const sched::TuningOutcome outcome =
        tuner.tune(workload, options.lut_floor);
    // Route through the scheduler too so the cache file captures the sweep.
    (void)scheduler.schedule_for(scene, n);
    std::printf("%9zu  %-34s %12s %12s %12s %8.2fx\n", n,
                outcome.schedule.to_string().c_str(),
                sup::format_time(outcome.cost.application_s).c_str(),
                sup::format_time(outcome.fixed_parallel_s).c_str(),
                outcome.fixed_adaptive_s ==
                        std::numeric_limits<double>::infinity()
                    ? "n/a"
                    : sup::format_time(outcome.fixed_adaptive_s).c_str(),
                outcome.speedup_vs_fixed());
  }
  const sched::SchedulerStats stats = scheduler.stats();
  std::printf(
      "tuner: %llu invocations, %llu candidates scored; cache: %llu hits / "
      "%llu misses\n",
      static_cast<unsigned long long>(stats.tuner_invocations),
      static_cast<unsigned long long>(stats.candidates_evaluated),
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses));
  if (!cache_path.empty()) {
    if (!scheduler.save_cache(cache_path)) {
      std::fprintf(stderr, "cannot write schedule cache %s\n",
                   cache_path.c_str());
      return 1;
    }
    std::printf("saved schedule cache to %s\n", cache_path.c_str());
  }
  return 0;
}

int cmd_serve_bench(int argc, char** argv) {
  sup::Cli cli("starsim_cli serve-bench",
               "load-test the concurrent frame service (docs/serving.md)");
  cli.add_option("clients", "concurrent client threads", "8");
  cli.add_option("frames", "requests per client", "8");
  cli.add_option("workers", "render worker threads", "2");
  cli.add_option("batch", "max dynamic batch size", "8");
  cli.add_option("queue", "admission queue capacity", "128");
  cli.add_option("cache", "rendered-frame cache capacity (0 = off)", "0");
  cli.add_option("stars", "stars per frame", "256");
  cli.add_option("size", "image edge, pixels", "512");
  cli.add_option("roi", "ROI side, pixels", "10");
  cli.add_option("sim", "auto | sequential | cpu | parallel | adaptive",
                 "adaptive");
  cli.add_option("lut-bins", "adaptive LUT bins per magnitude", "100");
  cli.add_option("lut-phases", "adaptive LUT subpixel phases", "2");
  cli.add_option("seed", "star-field seed base", "42");
  cli.add_flag("shared-stream",
               "all clients replay one shared request stream (cacheable "
               "traffic; pair with --cache)");
  cli.add_flag("inject-faults",
               "chaos mode: seeded per-worker fault injection (transient "
               "faults + device loss) with resilient workers");
  cli.add_option("fault-rate", "per-consult fault probability", "0.05");
  cli.add_option("lost-rate",
                 "probability an injected fault takes the device down",
                 "0.1");
  cli.add_option("fault-seed", "fault-schedule seed base", "1");
  cli.add_option("deadline-ms",
                 "per-request deadline, milliseconds (0 = none)", "0");
  cli.add_option("priority-mix",
                 "low:normal:high request weights, e.g. 1:2:1", "0:1:0");
  cli.add_option("sanitize",
                 "worker-wide device instrumentation: off | memcheck | race "
                 "| sync | leak | all (non-zero exit on findings)",
                 "off");
  cli.add_option("trace",
                 "write a Chrome trace of the measured traffic to this file",
                 "");
  cli.add_option("metrics",
                 "write one Prometheus scrape of the final service state to "
                 "this file",
                 "");
  cli.add_option("shards",
                 "serve through a sharded fleet of this many FrameService "
                 "instances (0 = single service)",
                 "0");
  cli.add_option("replicas", "replicas per scene in fleet mode", "2");
  cli.add_option("router-threads", "fleet router threads", "2");
  cli.add_option("hedge-ms",
                 "fleet hedge trigger, ms (-1 = off, 0 = adaptive p95, >0 "
                 "fixed)",
                 "-1");
  cli.add_option("slow-shard",
                 "inject a straggler: this shard index renders slowly "
                 "(-1 = none)",
                 "-1");
  cli.add_option("slow-ms", "straggler delay per render, ms", "25");
  cli.add_option("proc-shards",
                 "serve through this many out-of-process starsim_shardd "
                 "hosts behind Unix sockets, supervised (0 = in-process "
                 "shards; overrides --shards)",
                 "0");
  cli.add_option("kill-shard",
                 "chaos: SIGKILL shard <i> <t> ms into the measured run, "
                 "written i@t (e.g. 1@50); supervised fleets respawn it",
                 "");
  cli.add_option("shardd",
                 "path to the starsim_shardd binary for --proc-shards",
                 STARSIM_SHARDD_PATH);
  cli.add_option("schedule-cache",
                 "auto-scheduler warm-start file: load before serving, save "
                 "after ('' = cold cache)",
                 "");
  if (!cli.parse(argc, argv)) return 0;
  const std::optional<gpusim::SanitizerMode> sanitize =
      parse_sanitize(cli.str("sanitize"));
  if (!sanitize.has_value()) return 1;

  const int clients = static_cast<int>(cli.integer("clients"));
  const std::size_t frames = static_cast<std::size_t>(cli.integer("frames"));
  const bool shared = cli.flag("shared-stream");
  const bool inject = cli.flag("inject-faults");
  const double deadline_ms = cli.real("deadline-ms");

  // "l:n:h" weights unroll into a repeating priority pattern; request i
  // takes pattern[i % size], so the mix holds per client stream.
  std::vector<serve::RequestPriority> priority_pattern;
  {
    const std::string mix = cli.str("priority-mix");
    long weights[3] = {0, 1, 0};
    if (std::sscanf(mix.c_str(), "%ld:%ld:%ld", &weights[0], &weights[1],
                    &weights[2]) != 3 ||
        weights[0] < 0 || weights[1] < 0 || weights[2] < 0 ||
        weights[0] + weights[1] + weights[2] == 0) {
      std::fprintf(stderr, "bad --priority-mix (want low:normal:high): %s\n",
                   mix.c_str());
      return 1;
    }
    for (int p = 0; p < 3; ++p) {
      for (long w = 0; w < weights[p]; ++w) {
        priority_pattern.push_back(static_cast<serve::RequestPriority>(p));
      }
    }
  }

  SceneConfig scene;
  scene.image_width = static_cast<int>(cli.integer("size"));
  scene.image_height = scene.image_width;
  scene.roi_side = static_cast<int>(cli.integer("roi"));

  std::optional<SimulatorKind> kind;
  const std::string which = cli.str("sim");
  if (which == "sequential") {
    kind = SimulatorKind::kSequential;
  } else if (which == "cpu" || which == "cpu-parallel") {
    kind = SimulatorKind::kCpuParallel;
  } else if (which == "parallel") {
    kind = SimulatorKind::kParallel;
  } else if (which == "adaptive") {
    kind = SimulatorKind::kAdaptive;
  } else if (which != "auto") {
    std::fprintf(stderr, "unknown simulator: %s\n", which.c_str());
    return 1;
  }

  // One star field per distinct request; with --shared-stream every client
  // replays stream 0 so repeat traffic can hit the frame cache.
  const std::size_t streams =
      shared ? 1 : static_cast<std::size_t>(clients);
  std::vector<StarField> fields;
  fields.reserve(streams * frames);
  for (std::size_t i = 0; i < streams * frames; ++i) {
    WorkloadConfig workload;
    workload.star_count = static_cast<std::size_t>(cli.integer("stars"));
    workload.image_width = scene.image_width;
    workload.image_height = scene.image_height;
    workload.seed = static_cast<std::uint64_t>(cli.integer("seed")) + i;
    fields.push_back(generate_stars(workload));
  }

  serve::FrameServiceOptions opts;
  opts.workers = static_cast<int>(cli.integer("workers"));
  opts.max_batch_size = static_cast<std::size_t>(cli.integer("batch"));
  opts.queue_capacity = static_cast<std::size_t>(cli.integer("queue"));
  opts.cache_capacity = static_cast<std::size_t>(cli.integer("cache"));
  opts.worker.lut.bins_per_magnitude =
      static_cast<int>(cli.integer("lut-bins"));
  opts.worker.lut.subpixel_phases =
      static_cast<int>(cli.integer("lut-phases"));
  opts.worker.sanitize = *sanitize;
  if (inject) {
    // Chaos serving: seeded faults at every device site, resilient workers
    // so a faulted frame degrades instead of failing its future, and the
    // supervisor's replacement ladder on device loss (docs/resilience.md).
    opts.worker.fault_policy = gpusim::FaultPolicy::chaos(
        cli.real("fault-rate"), cli.real("lost-rate"),
        static_cast<std::uint64_t>(cli.integer("fault-seed")));
    opts.worker.resilient = true;
  }
  const bool warm_cache = opts.cache_capacity > 0 && shared;

  // With --schedule-cache the auto-scheduler is shared (one schedule cache
  // across every shard/service) and warm-started from the file; the final
  // state is saved back so a second run hits instead of re-tuning.
  const std::string sched_cache_path = cli.str("schedule-cache");
  std::shared_ptr<sched::Scheduler> scheduler;
  if (!sched_cache_path.empty()) {
    sched::SchedulerOptions sched_options;
    sched_options.batch_hint = std::max<std::size_t>(1, opts.max_batch_size);
    scheduler = std::make_shared<sched::Scheduler>(sched_options);
    if (scheduler->load_cache(sched_cache_path)) {
      std::printf("loaded schedule cache from %s\n",
                  sched_cache_path.c_str());
    }
    opts.scheduler = scheduler;
  }
  const auto finish_schedule_cache = [&]() -> bool {
    if (!scheduler) return true;
    const sched::SchedulerStats s = scheduler->stats();
    const double lookups =
        static_cast<double>(s.cache.hits + s.cache.misses);
    std::printf(
        "scheduler: %llu cache hits / %llu misses (%.0f%% hit rate), %llu "
        "tunes, modeled speedup vs fixed %.2fx\n",
        static_cast<unsigned long long>(s.cache.hits),
        static_cast<unsigned long long>(s.cache.misses),
        lookups > 0.0 ? 100.0 * static_cast<double>(s.cache.hits) / lookups
                      : 0.0,
        static_cast<unsigned long long>(s.tuner_invocations),
        s.tuned_modeled_s_total > 0.0
            ? s.fallback_modeled_s_total / s.tuned_modeled_s_total
            : 1.0);
    if (!scheduler->save_cache(sched_cache_path)) {
      std::fprintf(stderr, "cannot write schedule cache %s\n",
                   sched_cache_path.c_str());
      return false;
    }
    std::printf("saved schedule cache to %s\n", sched_cache_path.c_str());
    return true;
  };

  const int proc_shards = static_cast<int>(cli.integer("proc-shards"));
  const int shard_count =
      proc_shards > 0 ? proc_shards : static_cast<int>(cli.integer("shards"));
  int kill_index = -1;
  double kill_at_ms = 0.0;
  {
    const std::string spec = cli.str("kill-shard");
    if (!spec.empty() &&
        (std::sscanf(spec.c_str(), "%d@%lf", &kill_index, &kill_at_ms) != 2 ||
         kill_index < 0 || kill_index >= shard_count || kill_at_ms < 0.0)) {
      std::fprintf(stderr, "bad --kill-shard (want i@t_ms): %s\n",
                   spec.c_str());
      return 1;
    }
  }
  if (shard_count > 0) {
    // Fleet mode: the same traffic through a sharded router instead of one
    // service. Routing keys are scene fingerprints, so each request gets an
    // imperceptible psf perturbation to spread the streams across the ring
    // (one scene would otherwise pin the whole bench to one shard).
    fleet::FleetOptions fleet_opts;
    fleet_opts.shards = shard_count;
    fleet_opts.replicas = static_cast<int>(cli.integer("replicas"));
    fleet_opts.router_threads =
        static_cast<int>(cli.integer("router-threads"));
    fleet_opts.hedge_ms = cli.real("hedge-ms");
    fleet_opts.straggler_shard = static_cast<int>(cli.integer("slow-shard"));
    fleet_opts.straggler_ms = cli.real("slow-ms");
    fleet_opts.shard = opts;
    if (proc_shards > 0) {
      // Each shard becomes a supervised starsim_shardd process; a kill
      // exercises the full ladder (detect -> respawn -> probe -> reinstate)
      // instead of permanent failover. docs/serving.md#process-shards.
      fleet_opts.process_shards = true;
      fleet_opts.shardd_path = cli.str("shardd");
      fleet_opts.socket_dir =
          "/tmp/starsim_serve_" + std::to_string(::getpid());
      ::mkdir(fleet_opts.socket_dir.c_str(), 0700);
      fleet_opts.supervise = true;
      fleet_opts.transport.heartbeat_period_s = 0.05;
      fleet_opts.supervision.poll_ms = 10.0;
      fleet_opts.supervision.respawn_backoff_ms = 10.0;
    }
    fleet::ShardRouter router(fleet_opts);

    const auto request_for = [&](std::size_t index) {
      serve::RenderRequest request;
      request.scene = scene;
      request.scene.psf_sigma += 1e-9 * static_cast<double>(index);
      request.stars = fields[index];
      request.simulator = kind;
      return request;
    };
    if (warm_cache) {
      for (std::size_t i = 0; i < fields.size(); ++i) {
        (void)router.render(request_for(i));
      }
    }

    const std::string trace_path = cli.str("trace");
    if (!trace_path.empty()) {
      trace::TraceRecorder::instance().set_thread_name("bench-main");
      trace::TraceRecorder::instance().start();
    }

    sup::WallTimer timer;
    std::thread assassin;
    if (kill_index >= 0) {
      assassin = std::thread([&router, kill_index, kill_at_ms] {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(kill_at_ms));
        router.crash_shard(kill_index);
      });
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        if (trace::tracing_on()) {
          trace::TraceRecorder::instance().set_thread_name(
              "client-" + std::to_string(c));
        }
        const std::size_t base =
            shared ? 0 : static_cast<std::size_t>(c) * frames;
        std::vector<std::future<serve::RenderResponse>> futures;
        futures.reserve(frames);
        for (std::size_t i = 0; i < frames; ++i) {
          serve::RenderRequest request = request_for(base + i);
          request.priority = priority_pattern[i % priority_pattern.size()];
          if (deadline_ms > 0.0) request.deadline_s = deadline_ms / 1000.0;
          futures.push_back(router.submit(std::move(request)));
        }
        for (auto& future : futures) {
          try {
            (void)future.get();
          } catch (const std::exception&) {
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    if (assassin.joinable()) assassin.join();
    const double wall_s = timer.seconds();

    // Scrape before stop: socket shards answer the stats frames live, and
    // a stopped fleet has no processes left to ask.
    const std::string metrics_path = cli.str("metrics");
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::binary);
      out << router.scrape_metrics();
      if (!out) {
        std::fprintf(stderr, "cannot write metrics %s\n",
                     metrics_path.c_str());
        return 1;
      }
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }
    router.stop();
    const fleet::FleetStats stats = router.stats();

    if (!trace_path.empty() && finish_trace(trace_path) != 0) return 1;

    std::printf(
        "fleet: %d shards x %d replicas, hedge %s\n"
        "served %llu requests for %d clients in %s (%.1f req/s): "
        "%llu frames, %llu failed, %llu rejected\n"
        "latency: p50 %s, p95 %s, p99 %s, mean %s\n"
        "hedges: %llu launched, %llu won, %llu discarded\n"
        "failovers: %llu attempted, %llu recovered\n"
        "shed: %llu displaced, %llu backpressure, %llu expired at the "
        "router; %llu shard sheds\n"
        "wire: %llu request bytes, %llu reply bytes\n",
        router.options().shards, router.options().replicas,
        fleet_opts.hedge_ms < 0.0
            ? "off"
            : (fleet_opts.hedge_ms == 0.0
                   ? "adaptive"
                   : (sup::format_time(fleet_opts.hedge_ms / 1000.0))
                         .c_str()),
        static_cast<unsigned long long>(stats.submitted), clients,
        sup::format_time(wall_s).c_str(),
        static_cast<double>(static_cast<std::size_t>(clients) * frames) /
            wall_s,
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.rejected),
        sup::format_time(stats.latency.p50).c_str(),
        sup::format_time(stats.latency.p95).c_str(),
        sup::format_time(stats.latency.p99).c_str(),
        sup::format_time(stats.mean_latency_s).c_str(),
        static_cast<unsigned long long>(stats.hedges_launched),
        static_cast<unsigned long long>(stats.hedges_won),
        static_cast<unsigned long long>(stats.hedges_discarded),
        static_cast<unsigned long long>(stats.failovers),
        static_cast<unsigned long long>(stats.failover_successes),
        static_cast<unsigned long long>(stats.router_shed),
        static_cast<unsigned long long>(stats.backpressure_rejected),
        static_cast<unsigned long long>(stats.expired_router),
        static_cast<unsigned long long>(stats.shard_sheds),
        static_cast<unsigned long long>(stats.wire_request_bytes),
        static_cast<unsigned long long>(stats.wire_reply_bytes));
    if (proc_shards > 0) {
      std::printf(
          "proc: %llu crashes, %llu hangs detected; respawns %llu attempted "
          "%llu succeeded %llu exhausted (last %s); heartbeats %llu sent "
          "%llu missed; %llu transport timeouts, %llu reconnects\n",
          static_cast<unsigned long long>(stats.crashes_detected),
          static_cast<unsigned long long>(stats.hangs_detected),
          static_cast<unsigned long long>(stats.respawns_attempted),
          static_cast<unsigned long long>(stats.respawns_succeeded),
          static_cast<unsigned long long>(stats.respawns_exhausted),
          sup::format_time(stats.last_respawn_s).c_str(),
          static_cast<unsigned long long>(stats.heartbeats_sent),
          static_cast<unsigned long long>(stats.heartbeats_missed),
          static_cast<unsigned long long>(stats.transport_timeouts),
          static_cast<unsigned long long>(stats.reconnects));
    }
    std::uint64_t sanitizer_findings = 0;
    for (const fleet::ShardSnapshot& shard : stats.shards) {
      // Sanitizer findings live in the service; only in-process shards can
      // be asked directly (socket shards report through their scrapes).
      if (fleet::Shard* local = router.loopback_shard(shard.index)) {
        sanitizer_findings += local->stats().sanitizer_findings;
      }
      std::printf(
          "  shard %d: %s, %llu routed, %llu errors, %llu sheds, "
          "%llu quarantines, %llu probes, %llu reinstates, %llu respawns\n",
          shard.index, std::string(fleet::to_string(shard.state)).c_str(),
          static_cast<unsigned long long>(shard.routed),
          static_cast<unsigned long long>(shard.errors),
          static_cast<unsigned long long>(shard.sheds),
          static_cast<unsigned long long>(shard.quarantines),
          static_cast<unsigned long long>(shard.probes),
          static_cast<unsigned long long>(shard.reinstates),
          static_cast<unsigned long long>(shard.respawns));
    }
    if (*sanitize != gpusim::SanitizerMode::kOff) {
      std::printf("sanitizer (%s): %llu finding(s) across the fleet\n",
                  std::string(gpusim::to_string(*sanitize)).c_str(),
                  static_cast<unsigned long long>(sanitizer_findings));
      if (sanitizer_findings != 0) return 1;
    }
    if (!finish_schedule_cache()) return 1;
    // Stuck futures are the unconditional failure; chaos and deadlines
    // legitimately fail some requests.
    if (stats.in_flight() != 0) return 1;
    const bool failures_expected =
        inject || deadline_ms > 0.0 || kill_index >= 0;
    return failures_expected || stats.failed == 0 ? 0 : 1;
  }

  serve::FrameService service(std::move(opts));

  // Concurrent duplicates of an uncached scene all miss (the first render
  // is still in flight), so warm the cache with one serial pass before
  // timing the measured, cache-hitting traffic.
  if (warm_cache) {
    for (const StarField& stars : fields) {
      serve::RenderRequest request;
      request.scene = scene;
      request.stars = stars;
      request.simulator = kind;
      (void)service.render(std::move(request));
    }
  }

  // Trace only the measured traffic (the warm-up pass above is setup);
  // worker threads named themselves when the pool spun up, and thread names
  // are sticky across recorder sessions.
  const std::string trace_path = cli.str("trace");
  if (!trace_path.empty()) {
    trace::TraceRecorder::instance().set_thread_name("bench-main");
    trace::TraceRecorder::instance().start();
  }

  sup::WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      if (trace::tracing_on()) {
        trace::TraceRecorder::instance().set_thread_name(
            "client-" + std::to_string(c));
      }
      const std::size_t base =
          shared ? 0 : static_cast<std::size_t>(c) * frames;
      std::vector<std::future<serve::RenderResponse>> futures;
      futures.reserve(frames);
      for (std::size_t i = 0; i < frames; ++i) {
        serve::RenderRequest request;
        request.scene = scene;
        request.stars = fields[base + i];
        request.simulator = kind;
        request.priority = priority_pattern[i % priority_pattern.size()];
        if (deadline_ms > 0.0) request.deadline_s = deadline_ms / 1000.0;
        futures.push_back(service.submit(std::move(request)));
      }
      for (auto& future : futures) {
        // Under chaos or tight deadlines some futures resolve with typed
        // errors; the stats printed below account for every outcome.
        try {
          (void)future.get();
        } catch (const std::exception&) {
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double wall_s = timer.seconds();
  // Quiesce before reporting: supervision decisions for the final batches
  // may still be in flight, and stop() makes every counter final.
  service.stop();
  const serve::ServiceStats stats = service.stats();

  if (!trace_path.empty() && finish_trace(trace_path) != 0) return 1;
  const std::string metrics_path = cli.str("metrics");
  if (!metrics_path.empty()) {
    // Scrape after stop(): every counter is final once the queue drained.
    std::ofstream out(metrics_path, std::ios::binary);
    out << service.scrape_metrics();
    if (!out) {
      std::fprintf(stderr, "cannot write metrics %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }

  std::printf(
      "served %llu frames for %d clients in %s (%.1f frames/s)\n"
      "latency: p50 %s, p95 %s, p99 %s, mean %s\n"
      "batching: %llu batches, mean size %.2f\n"
      "cache: %llu hits / %llu misses (%.0f%% hit rate)\n"
      "failures: %llu failed, %llu rejected, %llu shed\n"
      "deadlines: %llu expired (%llu at admission, %llu in queue, %llu "
      "post-render)\n",
      static_cast<unsigned long long>(static_cast<std::size_t>(clients) *
                                      frames),
      clients, sup::format_time(wall_s).c_str(),
      static_cast<double>(static_cast<std::size_t>(clients) * frames) /
          wall_s,
      sup::format_time(stats.latency.p50).c_str(),
      sup::format_time(stats.latency.p95).c_str(),
      sup::format_time(stats.latency.p99).c_str(),
      sup::format_time(stats.mean_latency_s).c_str(),
      static_cast<unsigned long long>(stats.batches),
      stats.mean_batch_size(),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      stats.cache_hit_rate() * 100.0,
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.expired_total()),
      static_cast<unsigned long long>(stats.expired_admission),
      static_cast<unsigned long long>(stats.expired_batch),
      static_cast<unsigned long long>(stats.expired_post_render));

  const serve::PoolHealth health = service.health();
  std::printf("health: %d/%zu workers active, %d device replacements, "
              "%d quarantines, %llu sink exceptions%s\n",
              health.active_workers, health.workers.size(),
              health.total_device_replacements, health.total_quarantines,
              static_cast<unsigned long long>(health.sink_exceptions),
              health.degraded() ? " [DEGRADED]" : "");
  for (const serve::WorkerHealth& worker : health.workers) {
    if (worker.state == serve::WorkerState::kHealthy &&
        worker.device_replacements == 0) {
      continue;  // only the interesting rows
    }
    std::printf("  worker %d: %s, %d replacements, %llu ok / %llu failed "
                "batches\n",
                worker.index, to_string(worker.state).data(),
                worker.device_replacements,
                static_cast<unsigned long long>(worker.batches_ok),
                static_cast<unsigned long long>(worker.batches_failed));
  }

  if (*sanitize != gpusim::SanitizerMode::kOff) {
    std::printf("sanitizer (%s): %llu finding(s) across %llu batches\n",
                std::string(gpusim::to_string(*sanitize)).c_str(),
                static_cast<unsigned long long>(stats.sanitizer_findings),
                static_cast<unsigned long long>(stats.batches));
    if (stats.sanitizer_findings != 0) return 1;
  }

  if (!finish_schedule_cache()) return 1;
  // Chaos and tight deadlines legitimately fail futures; stuck (never
  // resolved) requests are the only unconditional bench failure.
  if (stats.in_flight() != 0) return 1;
  const bool failures_expected = inject || deadline_ms > 0.0;
  return failures_expected || stats.failed == 0 ? 0 : 1;
}

int cmd_trace_check(int argc, char** argv) {
  sup::Cli cli("starsim_cli trace-check",
               "validate trace/metrics artifacts (docs/observability.md)");
  cli.add_option("trace",
                 "Chrome trace JSON to validate: balanced B/E slices, "
                 "monotonic per-thread timestamps, closed flows ('' = skip)",
                 "");
  cli.add_option("metrics",
                 "Prometheus exposition to check for the required serve "
                 "metric families ('' = skip)",
                 "");
  cli.add_flag("fleet",
               "also require the fleet router families (scrapes produced by "
               "serve-bench --shards)");
  if (!cli.parse(argc, argv)) return 0;

  bool checked = false;
  bool ok = true;
  const std::string trace_path = cli.str("trace");
  if (!trace_path.empty()) {
    checked = true;
    const std::optional<std::string> json = read_whole_file(trace_path);
    if (!json.has_value()) return 1;
    const trace::TraceCheck check = trace::validate_chrome_trace(*json);
    std::printf("%s: %s\n", trace_path.c_str(), check.summary().c_str());
    for (const std::string& error : check.errors) {
      std::fprintf(stderr, "  trace error: %s\n", error.c_str());
    }
    ok = ok && check.ok;
  }
  const std::string metrics_path = cli.str("metrics");
  if (!metrics_path.empty()) {
    checked = true;
    const std::optional<std::string> exposition =
        read_whole_file(metrics_path);
    if (!exposition.has_value()) return 1;
    // The families the CI observability step treats as load-bearing: one
    // per subsystem the scrape unifies (queue, batching, render split,
    // cache, sanitizer).
    std::vector<std::string> required = {
        "starsim_serve_queue_depth",
        "starsim_serve_batch_size",
        "starsim_serve_render_seconds_total",
        "starsim_serve_cache_hits_total",
        "starsim_serve_sanitizer_findings_total",
        "starsim_sched_cache_events_total",
        "starsim_sched_tuner_invocations_total",
        "starsim_sched_modeled_seconds_total",
    };
    if (cli.flag("fleet")) {
      // A fleet scrape carries the router's own families on top of the
      // instance-labelled shard serve families above.
      required.push_back("starsim_fleet_requests_total");
      required.push_back("starsim_fleet_hedges_total");
      required.push_back("starsim_fleet_failovers_total");
      required.push_back("starsim_fleet_shard_state");
      required.push_back("starsim_fleet_latency_seconds");
      required.push_back("starsim_fleet_proc_respawns_total");
      required.push_back("starsim_fleet_heartbeats_total");
      // Network families (PR 9): emitted by every fleet — zeros for
      // loopback — so their absence always means a broken exposition.
      required.push_back("starsim_fleet_net_rtt_seconds");
      required.push_back("starsim_fleet_net_handshakes_total");
      required.push_back("starsim_fleet_net_dial_backoffs_total");
      required.push_back("starsim_fleet_net_partitions_total");
      required.push_back("starsim_fleet_net_faults_injected_total");
    }
    const std::vector<std::string> problems =
        trace::check_prometheus(*exposition, required);
    for (const std::string& problem : problems) {
      std::fprintf(stderr, "  metrics problem: %s\n", problem.c_str());
    }
    std::printf("%s: %zu required families %s\n", metrics_path.c_str(),
                required.size(), problems.empty() ? "present" : "MISSING");
    ok = ok && problems.empty();
  }
  if (!checked) {
    std::fprintf(stderr, "nothing to check: pass --trace and/or --metrics\n");
    return 1;
  }
  return ok ? 0 : 1;
}

void print_usage() {
  std::puts(
      "starsim_cli — star image simulation workflow\n"
      "\n"
      "subcommands:\n"
      "  catalog   synthesize a celestial catalogue file\n"
      "  project   attitude -> FOV star retrieval\n"
      "  generate  random benchmark star field\n"
      "  simulate  star file -> image (--sim auto uses the scheduler)\n"
      "  autoschedule  cost-model-tune an execution schedule\n"
      "  serve-bench  load-test the concurrent frame service\n"
      "  trace-check  validate exported trace/metrics artifacts\n"
      "\n"
      "run `starsim_cli <subcommand> --help` for options.");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand parses its own options.
  argv[1] = argv[0];
  if (command == "catalog") return cmd_catalog(argc - 1, argv + 1);
  if (command == "project") return cmd_project(argc - 1, argv + 1);
  if (command == "generate") return cmd_generate(argc - 1, argv + 1);
  if (command == "simulate") return cmd_simulate(argc - 1, argv + 1);
  if (command == "autoschedule") {
    return cmd_autoschedule(argc - 1, argv + 1);
  }
  if (command == "serve-bench") return cmd_serve_bench(argc - 1, argv + 1);
  if (command == "trace-check") return cmd_trace_check(argc - 1, argv + 1);
  if (command == "--help" || command == "help") {
    print_usage();
    return 0;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n\n", command.c_str());
  print_usage();
  return 1;
}
