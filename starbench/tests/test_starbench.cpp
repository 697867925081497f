// The benchmark's own tests: span self time, the tail rule, the correctness
// gate's accounting, and same-seed repeatability of the traced counts.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/benchmark.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/verify.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"

namespace {

namespace tr = starsim::trace;
using starbench::reduce_spans;
using starbench::span;
using starbench::tail_point;

tr::TraceEvent event(tr::Phase phase, const char* category, const char* name,
                     std::int64_t ts_ms, std::uint32_t tid,
                     std::vector<tr::TraceArg> args = {}) {
  tr::TraceEvent e;
  e.phase = phase;
  e.category = category;
  e.name = name;
  e.ts_ns = ts_ms * 1'000'000;
  e.tid = tid;
  e.args = std::move(args);
  return e;
}

constexpr auto kB = tr::Phase::kBegin;
constexpr auto kE = tr::Phase::kEnd;

TEST(SpanSelfTime, NestedChildrenAreSubtracted) {
  const std::vector<tr::TraceEvent> events = {
      event(kB, "serve", "render_batch", 0, 1),
      event(kB, "starsim", "render", 10, 1),
      event(kB, "gpusim", "kernel_launch", 20, 1),
      event(kE, "gpusim", "kernel_launch", 60, 1, {{"flops", std::int64_t{7}}}),
      event(kB, "starsim", "readback", 65, 1),
      event(kE, "starsim", "readback", 70, 1),
      event(kE, "starsim", "render", 80, 1),
      event(kE, "serve", "render_batch", 100, 1),
  };
  const auto table = reduce_spans(events);
  EXPECT_DOUBLE_EQ(span(table, "serve.render_batch").total_ms, 100.0);
  EXPECT_DOUBLE_EQ(span(table, "serve.render_batch").self_ms, 30.0);
  EXPECT_DOUBLE_EQ(span(table, "starsim.render").self_ms, 25.0);
  EXPECT_DOUBLE_EQ(span(table, "gpusim.kernel_launch").self_ms, 40.0);
  EXPECT_DOUBLE_EQ(span(table, "starsim.readback").self_ms, 5.0);
  EXPECT_EQ(span(table, "gpusim.kernel_launch").int_args.at("flops"), 7);
  EXPECT_EQ(span(table, "starsim.render").count, 1u);
}

TEST(SpanSelfTime, SpansOnOtherThreadsDoNotShortenTheParent) {
  // Thread 2's span runs inside thread 1's interval but is not its child.
  const std::vector<tr::TraceEvent> events = {
      event(kB, "fleet", "route", 0, 1),
      event(kB, "serve", "render_batch", 10, 2),
      event(kE, "serve", "render_batch", 40, 2),
      event(kB, "sched", "tune", 45, 1),
      event(kE, "sched", "tune", 50, 1),
      event(kE, "fleet", "route", 60, 1),
  };
  const auto table = reduce_spans(events);
  EXPECT_DOUBLE_EQ(span(table, "fleet.route").self_ms, 55.0);
  EXPECT_DOUBLE_EQ(span(table, "serve.render_batch").self_ms, 30.0);
  EXPECT_DOUBLE_EQ(span(table, "sched.tune").self_ms, 5.0);
}

TEST(SpanSelfTime, UnmatchedEventsAndVerifySubtreesAreSkipped) {
  const std::vector<tr::TraceEvent> events = {
      // Closes a span opened before the recorder started.
      event(kE, "gpusim", "kernel_launch", 1, 1),
      event(kB, "bench", "get", 2, 1),
      event(kE, "bench", "get", 12, 1),
      event(kB, "bench", "verify", 20, 1),
      event(kB, "starsim", "render", 21, 1),
      event(kE, "starsim", "render", 29, 1),
      event(kE, "bench", "verify", 30, 1),
      // Still open at the snapshot.
      event(kB, "starsim", "render", 40, 1),
  };
  const auto table = reduce_spans(events);
  EXPECT_EQ(table.count("gpusim.kernel_launch"), 0u);
  EXPECT_EQ(table.count("starsim.render"), 0u);
  EXPECT_EQ(table.count("bench.verify"), 0u);
  EXPECT_DOUBLE_EQ(span(table, "bench.get").self_ms, 10.0);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  // Descending, so the rule must sort.
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(TailRule, TenSamplesLieBeyondTheReportedPercentile) {
  struct Case {
    std::size_t n;
    double value;
    double percentile;
  };
  for (const Case& c : {Case{11, 1.0, 100.0 / 11.0}, Case{20, 10.0, 50.0},
                        Case{100, 90.0, 90.0}, Case{1000, 990.0, 99.0},
                        Case{250, 240.0, 96.0}}) {
    const auto tail = tail_point(one_to(c.n));
    EXPECT_TRUE(tail.defined) << c.n;
    EXPECT_DOUBLE_EQ(tail.value, c.value) << c.n;
    EXPECT_DOUBLE_EQ(tail.percentile, c.percentile) << c.n;
    EXPECT_EQ(tail.samples, c.n);
    EXPECT_EQ(tail.beyond, 10u);
  }
}

TEST(TailRule, TooFewSamplesFallBackToTheMaximum) {
  const auto tail = tail_point(one_to(10));
  EXPECT_FALSE(tail.defined);
  EXPECT_DOUBLE_EQ(tail.value, 10.0);
  EXPECT_EQ(tail.beyond, 0u);
  EXPECT_EQ(tail_point({}).samples, 0u);
}

TEST(Gate, PerturbedFrameFailsAndTheFrameItselfPasses) {
  starsim::SceneConfig scene;
  scene.image_width = 128;
  scene.image_height = 128;
  starsim::WorkloadConfig workload;
  workload.star_count = 64;
  workload.image_width = 128;
  workload.image_height = 128;
  const auto stars = starsim::generate_stars(workload);
  starsim::SequentialSimulator sequential;
  const auto frame = sequential.simulate(scene, stars).image;

  starbench::Checker checker;
  EXPECT_TRUE(checker.check(scene, stars, starsim::SimulatorKind::kParallel,
                            nullptr, frame));
  EXPECT_FALSE(checker.check(scene, stars, starsim::SimulatorKind::kParallel,
                             nullptr, starbench::perturbed(frame)));
  // An adaptive frame whose table is unknown cannot be checked.
  EXPECT_FALSE(checker.check(scene, stars, starsim::SimulatorKind::kAdaptive,
                             nullptr, frame));
}

std::map<std::string, double> metrics_of(const starbench::RunResult& result) {
  std::map<std::string, double> values;
  for (const auto& metric : result.metrics) values[metric.name] = metric.value;
  return values;
}

starbench::RunOptions short_traced_run(const std::string& workload) {
  starbench::RunOptions options;
  options.workload = workload;
  options.seed = 3;
  options.seconds = 0.5;
  options.trace = true;
  return options;
}

TEST(Workloads, PerturbedFrameIsCountedAsFailed) {
  starbench::RunOptions options = short_traced_run("tracker_stream");
  options.perturb_request = 1;
  const auto result = starbench::run_benchmark(options);
  // Each of the two phases perturbs request 1 of client 0.
  EXPECT_EQ(result.failed, 2u);
  EXPECT_FALSE(result.correct);
}

TEST(Workloads, SameSeedRepeatsTheTracedCountsExactly) {
  const auto first = metrics_of(
      starbench::run_benchmark(short_traced_run("tracker_stream")));
  const auto second = metrics_of(
      starbench::run_benchmark(short_traced_run("tracker_stream")));
  for (const char* name :
       {"gpusim.kernel.flops_per_frame", "starsim.modeled_ms_per_frame",
        "fleet.wire.bytes_per_request", "serve.frame_cache.hit_ratio"}) {
    EXPECT_EQ(first.at(name), second.at(name)) << name;
  }
  EXPECT_GT(first.at("gpusim.kernel.flops_per_frame"), 0.0);
  EXPECT_DOUBLE_EQ(first.at("serve.frame_cache.hit_ratio"), 0.25);
}

TEST(Workloads, TracedFleetRunIsCorrect) {
  const auto result =
      starbench::run_benchmark(short_traced_run("fleet_survey"));
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.failed, 0u);
  const auto metrics = metrics_of(result);
  EXPECT_GT(metrics.at("fleet.wire.bytes_per_request"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.at("serve.frame_cache.hit_ratio"), 0.0);
}

}  // namespace
