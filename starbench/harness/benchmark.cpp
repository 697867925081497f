#include "harness/benchmark.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/workload.h"
#include "support/timer.h"
#include "trace/trace.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace starbench {

namespace {

namespace tr = starsim::trace;

/// Setups timed for setup_s; the median is reported.
constexpr int kSetupRepeats = 5;

JsonObject provenance(const RunOptions& options, const Workload& workload) {
  const Shape shape = workload.shape();
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  JsonObject out;
  out.add("workload", options.workload)
      .add("seed", static_cast<std::uint64_t>(options.seed))
      .add("seconds", options.seconds)
      .add("trace", options.trace)
      .add("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .add("omp_max_threads", omp_threads)
      .add("omp_num_threads_env", omp_env != nullptr ? omp_env : "unset")
      .add("build_type", STARBENCH_BUILD_TYPE)
      .add("compiler", STARBENCH_COMPILER)
      .add("git_sha", options.git_sha)
      .add("entry_point", shape.entry_point)
      .add("clients", shape.clients)
      .add("workers", shape.workers)
      .add("shards", shape.shards)
      .add("frame_edge", shape.frame_edge);
  return out;
}

/// Equal-frame chunks of a phase whose rates frames_per_s takes the median
/// of, and the frames a phase needs before it is split.
constexpr std::size_t kRateChunks = 10;
constexpr std::size_t kMinFramesToSplit = 20 * kRateChunks;

/// The frame rate of each of kRateChunks runs of consecutive completions:
/// frames in the chunk over the time from the previous chunk's last frame
/// to its own. Empty when the phase has too few frames to split.
std::vector<double> chunk_rates(const ClientLog& log) {
  std::vector<double> done = log.done_s;
  if (done.size() < kMinFramesToSplit) return {};
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  double chunk_start = 0.0;
  std::size_t first = 0;
  for (std::size_t k = 1; k <= kRateChunks; ++k) {
    const std::size_t last = done.size() * k / kRateChunks;
    const double chunk_end = done[last - 1];
    rates.push_back(static_cast<double>(last - first) /
                    (chunk_end - chunk_start));
    chunk_start = chunk_end;
    first = last;
  }
  return rates;
}

/// Verified frames per second. A phase with enough frames reports the
/// median rate of its chunks, so that a few seconds of contention on a
/// shared host do not set the figure; a phase with few frames
/// (paper_frames) reports frames over elapsed time.
double frames_per_s(const PhaseResult& phase) {
  const std::vector<double> rates = chunk_rates(phase.log);
  if (rates.empty()) {
    return static_cast<double>(phase.log.verified()) / phase.elapsed_s;
  }
  return median_of(rates);
}

/// The six numbers a user of the system sees, from an untraced phase.
std::vector<Metric> end_to_end(const PhaseResult& phase,
                               const std::vector<double>& setup_s,
                               JsonObject& provenance) {
  const ClientLog& log = phase.log;
  const TailPoint tail = tail_point(log.latency_ms);
  provenance.add("setup_samples_s", setup_s)
      .add("elapsed_s", phase.elapsed_s)
      .add("frames_over_elapsed_per_s",
           static_cast<double>(log.verified()) / phase.elapsed_s)
      .add("chunk_frames_per_s", chunk_rates(log))
      .add("latency_samples", static_cast<std::uint64_t>(tail.samples))
      .add("tail_percentile", tail.percentile)
      .add("tail_beyond", static_cast<std::uint64_t>(tail.beyond))
      .add("tail_defined", tail.defined)
      .add("failed_ratio", ratio(static_cast<double>(log.failed),
                                 static_cast<double>(log.attempted)));
  const auto verified = static_cast<double>(log.verified());
  return {
      {"setup_s", median_of(setup_s), "s"},
      {"frames_per_s", frames_per_s(phase), "1/s"},
      {"latency_p50_ms", median_of(log.latency_ms), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"verified_ratio", ratio(verified, static_cast<double>(log.attempted)),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

/// The per-layer split of a traced phase (`traced`), with the untraced run
/// of the same requests (`untraced`) for the overhead and baseline ratios.
std::vector<Metric> per_layer(const PhaseResult& untraced,
                              const PhaseResult& traced,
                              const SpanTable& spans, double sequential_ms) {
  const ClientLog& log = traced.log;
  const auto frames = static_cast<double>(log.verified());
  const auto requests = static_cast<double>(log.attempted);
  const ProgramCounters& counts = traced.counters;
  const auto self_per_frame = [&](std::initializer_list<const char*> keys) {
    double self_ms = 0.0;
    for (const char* key : keys) self_ms += span(spans, key).self_ms;
    return ratio(self_ms, frames);
  };
  const SpanTotals& launch = span(spans, "gpusim.kernel_launch");
  const SpanTotals& lut_build = span(spans, "starsim.lut_build");
  const SpanTotals& submit = span(spans, "bench.submit");
  const double untraced_fps =
      static_cast<double>(untraced.log.verified()) / untraced.elapsed_s;
  const double traced_fps = frames / traced.elapsed_s;
  const double untraced_p50 = median_of(untraced.log.latency_ms);
  const auto lookups = [](std::uint64_t hits, std::uint64_t misses) {
    return static_cast<double>(hits + misses);
  };
  const auto launch_arg = [&](const char* key) {
    const auto it = launch.int_args.find(key);
    return it != launch.int_args.end() ? static_cast<double>(it->second) : 0.0;
  };

  return {
      {"gpusim.kernel_launch.self_ms_per_frame",
       self_per_frame({"gpusim.kernel_launch"}), "ms"},
      {"gpusim.memcpy.self_ms_per_frame",
       self_per_frame({"gpusim.memcpy_h2d", "gpusim.memcpy_d2h"}), "ms"},
      {"gpusim.texture_bind.self_ms_per_frame",
       self_per_frame({"gpusim.texture_bind"}), "ms"},
      {"gpusim.kernel.flops_per_frame", ratio(launch_arg("flops"), frames),
       "count"},
      {"gpusim.kernel.global_bytes_per_frame",
       ratio(launch_arg("global_bytes"), frames), "bytes"},
      {"gpusim.frame_pool.reuse_ratio", traced.frame_pool.reuse_rate(),
       "ratio"},
      {"starsim.render.self_ms_per_frame",
       self_per_frame({"starsim.render", "starsim.simulate_batch"}), "ms"},
      {"starsim.lut_build.self_ms_per_frame",
       self_per_frame({"starsim.lut_build"}), "ms"},
      {"starsim.lut_build.per_frame",
       ratio(static_cast<double>(lut_build.count), frames), "count"},
      {"starsim.frame_upload.self_ms_per_frame",
       self_per_frame({"starsim.frame_upload"}), "ms"},
      {"starsim.readback.self_ms_per_frame",
       self_per_frame({"starsim.readback"}), "ms"},
      {"starsim.projection.self_ms_per_frame",
       self_per_frame({"starsim.projection"}), "ms"},
      {"starsim.modeled_ms_per_frame", ratio(log.modeled_ms, frames), "ms"},
      {"starsim.sequential_ms_per_frame", sequential_ms, "ms"},
      {"starsim.emulated_over_sequential", ratio(untraced_p50, sequential_ms),
       "ratio"},
      {"starsim.bit_identical_ratio",
       ratio(static_cast<double>(log.bit_identical),
             static_cast<double>(log.repeats)),
       "ratio"},
      {"sched.tune.per_request",
       ratio(static_cast<double>(counts.tunes), requests), "count"},
      {"sched.cache.hit_ratio",
       ratio(static_cast<double>(counts.schedule_hits),
             lookups(counts.schedule_hits, counts.schedule_misses)),
       "ratio"},
      {"sched.tune.self_ms_per_request",
       ratio(span(spans, "sched.tune").self_ms, requests), "ms"},
      {"serve.submit.us_per_request",
       ratio(submit.total_ms * 1e3, static_cast<double>(submit.count)), "us"},
      {"serve.queue_wait_ms.p50", median_of(log.queue_wait_ms), "ms"},
      {"serve.batch_wait_ms.p50", median_of(log.batch_wait_ms), "ms"},
      {"serve.batch.mean_size",
       ratio(static_cast<double>(counts.batched_requests),
             static_cast<double>(counts.batches)),
       "count"},
      {"serve.frame_cache.hit_ratio",
       ratio(static_cast<double>(counts.frame_cache_hits),
             lookups(counts.frame_cache_hits, counts.frame_cache_misses)),
       "ratio"},
      {"serve.render_batch.self_ms_per_frame",
       self_per_frame({"serve.render_batch"}), "ms"},
      {"fleet.overhead_ms.p50", median_of(log.fleet_overhead_ms), "ms"},
      {"fleet.route.self_ms_per_request",
       ratio(span(spans, "fleet.route").self_ms, requests), "ms"},
      {"fleet.wire.bytes_per_request",
       ratio(static_cast<double>(counts.wire_bytes), requests), "bytes"},
      {"trace.overhead_ratio", ratio(untraced_fps, traced_fps), "ratio"},
  };
}

/// One measured phase against the objects setup() built, torn down after.
/// The trace recorder (when on) stops before teardown, so spans still open
/// on program threads close as the objects shut down; the frame-pool
/// counters are read after it, once exiting threads have flushed theirs.
PhaseResult measure(Workload& workload, const Budget& budget) {
  starsim::gpusim::detail::frame_pool_stats_reset();
  PhaseResult phase = workload.run(budget);
  tr::TraceRecorder::instance().stop();
  workload.teardown();
  phase.frame_pool = starsim::gpusim::detail::frame_pool_stats();
  return phase;
}

}  // namespace

RunResult run_benchmark(const RunOptions& options) {
  WorkloadConfig config;
  config.seed = options.seed;
  config.perturb_request = options.perturb_request;
  const std::unique_ptr<Workload> workload =
      make_workload(options.workload, config);
  if (!workload) {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  JsonObject info = provenance(options, *workload);
  workload->prepare();

  RunResult result;
  if (!options.trace) {
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupRepeats; ++r) {
      if (r > 0) workload->teardown();
      const starsim::support::WallTimer wall;
      workload->setup();
      setup_s.push_back(wall.seconds());
    }
    const PhaseResult phase = measure(*workload, Budget{options.seconds, 0});
    result.metrics = end_to_end(phase, setup_s, info);
    result.attempted = phase.log.attempted;
    result.failed = phase.log.failed;
  } else {
    // The same fixed requests twice, each against freshly built objects:
    // untraced first, then with the recorder on.
    const Budget budget{0.0, workload->fixed_requests(options.seconds)};
    workload->setup();
    const PhaseResult untraced = measure(*workload, budget);

    workload->setup();
    tr::TraceRecorder& recorder = tr::TraceRecorder::instance();
    recorder.start();
    const PhaseResult traced = measure(*workload, budget);
    const SpanTable spans = reduce_spans(recorder.snapshot().events);
    recorder.clear();

    result.metrics = per_layer(untraced, traced, spans,
                               workload->sequential_ms_per_frame());
    result.attempted = untraced.log.attempted + traced.log.attempted;
    result.failed = untraced.log.failed + traced.log.failed;
    info.add("requests_per_client", static_cast<std::uint64_t>(
                                        budget.requests_per_client))
        .add("untraced_elapsed_s", untraced.elapsed_s)
        .add("traced_elapsed_s", traced.elapsed_s)
        .add("traced_frames", traced.log.verified())
        .add("bit_identical", traced.log.bit_identical)
        .add("repeats", traced.log.repeats);
  }
  result.correct = result.failed == 0 && result.attempted > 0;
  info.add("attempted", result.attempted).add("failed", result.failed);
  result.provenance = info.str();
  return result;
}

}  // namespace starbench
