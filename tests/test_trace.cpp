// starsim::trace core: recorder sessions, span balance, flow stitching, the
// Chrome trace exporter/validator golden path and its tampered-trace
// negatives, and the json_lite parser the validator is built on.
//
// The recorder is a process singleton, so every test brackets its own
// session (start() drops prior events) and stops the gate on exit.
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/error.h"
#include "trace/chrome_trace.h"
#include "trace/json_lite.h"

namespace {

using namespace starsim::trace;

/// RAII session bracket: fresh recording on entry, gate closed + buffers
/// dropped on exit so tests cannot leak events into each other.
struct Session {
  Session() { TraceRecorder::instance().start(); }
  ~Session() {
    TraceRecorder::instance().stop();
    TraceRecorder::instance().clear();
  }
};

TEST(TraceRecorder, SitesRecordNothingWhileDisabled) {
  TraceRecorder::instance().stop();
  TraceRecorder::instance().clear();
  EXPECT_FALSE(tracing_on());
  {
    TraceSpan span("test", "ignored");
    EXPECT_FALSE(span.armed());
    span.arg("key", 1);
  }
  instant("test", "ignored");
  counter("test", "ignored", 1.0);
  flow(Phase::kFlowStart, "test", "ignored", 42);
  EXPECT_TRUE(TraceRecorder::instance().snapshot().events.empty());
}

TEST(TraceRecorder, SpanEmitsBalancedPairWithArgsOnEnd) {
  Session session;
  {
    TraceSpan span("test", "unit");
    EXPECT_TRUE(span.armed());
    span.arg("stars", 512).arg("modeled_s", 0.25).arg("pinned", true);
    span.arg("simulator", "adaptive");
  }
  const TraceSnapshot snapshot = TraceRecorder::instance().snapshot();
  ASSERT_EQ(snapshot.events.size(), 2u);
  const TraceEvent& begin = snapshot.events[0];
  const TraceEvent& end = snapshot.events[1];
  EXPECT_EQ(begin.phase, Phase::kBegin);
  EXPECT_EQ(end.phase, Phase::kEnd);
  EXPECT_STREQ(begin.name, "unit");
  EXPECT_EQ(begin.tid, end.tid);
  EXPECT_LE(begin.ts_ns, end.ts_ns);
  EXPECT_TRUE(begin.args.empty());  // args ride on E; Chrome merges them
  ASSERT_EQ(end.args.size(), 4u);
  EXPECT_EQ(std::get<std::int64_t>(end.args[0].value), 512);
  EXPECT_DOUBLE_EQ(std::get<double>(end.args[1].value), 0.25);
  EXPECT_TRUE(std::get<bool>(end.args[2].value));
  EXPECT_EQ(std::get<std::string>(end.args[3].value), "adaptive");
}

TEST(TraceRecorder, InstantCounterAndFlowPhases) {
  Session session;
  instant("test", "tick", {{"n", std::int64_t{7}}});
  counter("test", "depth", 3.0);
  const std::uint64_t id = TraceRecorder::instance().next_flow_id();
  flow(Phase::kFlowStart, "test", "req", id);
  flow(Phase::kFlowEnd, "test", "req", id);
  flow(Phase::kFlowStart, "test", "req", 0);  // id 0 = untraced, must no-op
  const TraceSnapshot snapshot = TraceRecorder::instance().snapshot();
  ASSERT_EQ(snapshot.events.size(), 4u);
  EXPECT_EQ(snapshot.events[0].phase, Phase::kInstant);
  EXPECT_EQ(snapshot.events[1].phase, Phase::kCounter);
  ASSERT_EQ(snapshot.events[1].args.size(), 1u);
  EXPECT_DOUBLE_EQ(std::get<double>(snapshot.events[1].args[0].value), 3.0);
  EXPECT_EQ(snapshot.events[2].phase, Phase::kFlowStart);
  EXPECT_EQ(snapshot.events[2].flow_id, id);
  EXPECT_EQ(snapshot.events[3].phase, Phase::kFlowEnd);
}

TEST(TraceRecorder, FlowIdsAreUniqueAndNonZero) {
  std::uint64_t last = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t id = TraceRecorder::instance().next_flow_id();
    EXPECT_NE(id, 0u);
    EXPECT_NE(id, last);
    last = id;
  }
}

TEST(TraceRecorder, ThreadsGetPrivateTidsAndMonotonicTimestamps) {
  Session session;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      TraceRecorder::instance().set_thread_name("t" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("test", "work");
        span.arg("i", i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const TraceSnapshot snapshot = TraceRecorder::instance().snapshot();
  EXPECT_EQ(snapshot.events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 2));
  // Per-tid order is preserved by the shard layout: timestamps never go
  // backwards within one tid, and the B/E counts balance per tid.
  std::map<std::uint32_t, std::int64_t> last_ts;
  std::map<std::uint32_t, int> depth;
  for (const TraceEvent& event : snapshot.events) {
    const auto it = last_ts.find(event.tid);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, event.ts_ns);
    }
    last_ts[event.tid] = event.ts_ns;
    depth[event.tid] += event.phase == Phase::kBegin ? 1 : -1;
  }
  EXPECT_EQ(last_ts.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(snapshot.thread_names.size(),
            static_cast<std::size_t>(kThreads));
}

TEST(TraceRecorder, StartDropsPriorSessionEvents) {
  Session session;
  instant("test", "stale");
  TraceRecorder::instance().start();
  instant("test", "fresh");
  const TraceSnapshot snapshot = TraceRecorder::instance().snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_STREQ(snapshot.events[0].name, "fresh");
}

// --- Exporter + validator golden path ------------------------------------

/// A realistic two-thread session: nested spans on the submitter, a worker
/// span, one flow stitched across both, an instant and a counter.
TraceSnapshot record_golden_session() {
  Session session;  // cleared on return; snapshot taken first
  const std::uint64_t id = TraceRecorder::instance().next_flow_id();
  TraceRecorder::instance().set_thread_name("submitter");
  {
    TraceSpan outer("serve", "submit");
    outer.arg("stars", 256);
    counter("serve", "queue_depth", 1.0);
    { TraceSpan inner("serve", "admit"); }
    flow(Phase::kFlowStart, "serve", "request", id);
  }
  std::thread worker([id] {
    TraceRecorder::instance().set_thread_name("worker-0");
    TraceSpan span("serve", "render_batch");
    span.arg("batch_size", 1);
    instant("gpusim", "block_sample");
    flow(Phase::kFlowEnd, "serve", "request", id);
  });
  worker.join();
  return TraceRecorder::instance().snapshot();
}

TEST(ChromeTrace, GoldenExportValidates) {
  const std::string json = to_chrome_json(record_golden_session());
  const TraceCheck check = validate_chrome_trace(json);
  EXPECT_TRUE(check.ok) << check.summary();
  EXPECT_TRUE(check.errors.empty());
  EXPECT_EQ(check.begin_events, 3u);
  EXPECT_EQ(check.end_events, 3u);
  EXPECT_EQ(check.instant_events, 1u);
  EXPECT_EQ(check.counter_events, 1u);
  EXPECT_EQ(check.flow_ids, 1u);
  EXPECT_EQ(check.cross_thread_flows, 1u);
  EXPECT_EQ(check.threads, 2u);
  EXPECT_TRUE(check.categories.contains("serve"));
  EXPECT_TRUE(check.categories.contains("gpusim"));
  EXPECT_NE(check.summary().find("trace OK"), std::string::npos);
}

TEST(ChromeTrace, WriteRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "starsim_trace_golden.json";
  write_chrome_trace(path, record_golden_session());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const TraceCheck check = validate_chrome_trace(buffer.str());
  EXPECT_TRUE(check.ok) << check.summary();
  EXPECT_EQ(check.cross_thread_flows, 1u);
}

TEST(ChromeTrace, ThreadNamesExportAsMetadata) {
  const std::string json = to_chrome_json(record_golden_session());
  EXPECT_NE(json.find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(json.find("submitter"), std::string::npos);
  EXPECT_NE(json.find("worker-0"), std::string::npos);
}

TEST(ChromeTrace, EscapesControlCharactersInStrings) {
  TraceSnapshot snapshot;
  TraceEvent event;
  event.phase = Phase::kInstant;
  event.category = "test";
  event.name = "escapes";
  event.args.push_back({"text", std::string("line\n\"quoted\"\ttab\x01")});
  snapshot.events.push_back(event);
  const std::string json = to_chrome_json(snapshot);
  EXPECT_NE(json.find(R"(line\n\"quoted\"\ttab\u0001)"),
            std::string::npos);
  EXPECT_TRUE(validate_chrome_trace(json).ok);
}

// --- Tampered-trace negatives --------------------------------------------

TraceEvent make_event(Phase phase, std::int64_t ts_ns, std::uint32_t tid,
                      const char* name = "slice",
                      std::uint64_t flow_id = 0) {
  TraceEvent event;
  event.phase = phase;
  event.category = "test";
  event.name = name;
  event.ts_ns = ts_ns;
  event.tid = tid;
  event.flow_id = flow_id;
  return event;
}

TEST(ChromeTraceValidator, DetectsUnclosedSlice) {
  TraceSnapshot snapshot;
  snapshot.events.push_back(make_event(Phase::kBegin, 1000, 0));
  const TraceCheck check = validate_chrome_trace(to_chrome_json(snapshot));
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors.front().find("unclosed"), std::string::npos);
}

TEST(ChromeTraceValidator, DetectsEndWithoutBegin) {
  TraceSnapshot snapshot;
  snapshot.events.push_back(make_event(Phase::kEnd, 1000, 0));
  const TraceCheck check = validate_chrome_trace(to_chrome_json(snapshot));
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors.front().find("E without matching B"),
            std::string::npos);
}

TEST(ChromeTraceValidator, DetectsMisnestedSlices) {
  TraceSnapshot snapshot;
  snapshot.events.push_back(make_event(Phase::kBegin, 1000, 0, "outer"));
  snapshot.events.push_back(make_event(Phase::kEnd, 2000, 0, "wrong"));
  const TraceCheck check = validate_chrome_trace(to_chrome_json(snapshot));
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors.front().find("closes open slice"),
            std::string::npos);
}

TEST(ChromeTraceValidator, DetectsBackwardsTimestamps) {
  TraceSnapshot snapshot;
  snapshot.events.push_back(make_event(Phase::kInstant, 2000, 0));
  snapshot.events.push_back(make_event(Phase::kInstant, 1000, 0));
  const TraceCheck check = validate_chrome_trace(to_chrome_json(snapshot));
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors.front().find("went backwards"), std::string::npos);
}

TEST(ChromeTraceValidator, AcceptsBackwardsTimestampsAcrossThreads) {
  // Monotonicity is a per-thread invariant: shard concatenation interleaves
  // absolute times across tids and that is fine.
  TraceSnapshot snapshot;
  snapshot.events.push_back(make_event(Phase::kInstant, 2000, 0));
  snapshot.events.push_back(make_event(Phase::kInstant, 1000, 1));
  EXPECT_TRUE(validate_chrome_trace(to_chrome_json(snapshot)).ok);
}

TEST(ChromeTraceValidator, DetectsUnfinishedFlow) {
  TraceSnapshot snapshot;
  snapshot.events.push_back(
      make_event(Phase::kFlowStart, 1000, 0, "request", 7));
  const TraceCheck check = validate_chrome_trace(to_chrome_json(snapshot));
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors.front().find("never finishes"), std::string::npos);
}

TEST(ChromeTraceValidator, DetectsFlowEndWithoutStart) {
  TraceSnapshot snapshot;
  snapshot.events.push_back(
      make_event(Phase::kFlowEnd, 1000, 0, "request", 7));
  const TraceCheck check = validate_chrome_trace(to_chrome_json(snapshot));
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors.front().find("finishes without start"),
            std::string::npos);
}

TEST(ChromeTraceValidator, RejectsMalformedJsonWithoutThrowing) {
  const TraceCheck check = validate_chrome_trace("{\"traceEvents\":[");
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.errors.empty());
  EXPECT_NE(check.summary().find("trace INVALID"), std::string::npos);
}

TEST(ChromeTraceValidator, RejectsDocumentWithoutTraceEvents) {
  const TraceCheck check = validate_chrome_trace("{}");
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors.front().find("missing traceEvents"),
            std::string::npos);
}

// --- json_lite ------------------------------------------------------------

TEST(JsonLite, ParsesScalarsAndEscapes) {
  EXPECT_DOUBLE_EQ(parse_json("42.5").as_number(), 42.5);
  EXPECT_DOUBLE_EQ(parse_json("-1e3").as_number(), -1000.0);
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
}

TEST(JsonLite, ParsesNestedStructures) {
  const JsonValue document =
      parse_json(R"({"events":[{"ph":"B","ts":1.5}],"count":1})");
  ASSERT_TRUE(document.is_object());
  const JsonValue* events = document.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 1u);
  const JsonValue* ph = events->as_array()[0].find("ph");
  ASSERT_NE(ph, nullptr);
  EXPECT_EQ(ph->as_string(), "B");
  EXPECT_DOUBLE_EQ(events->as_array()[0].find("ts")->as_number(), 1.5);
  EXPECT_EQ(document.find("missing"), nullptr);
}

TEST(JsonLite, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_json(""), starsim::support::Error);
  EXPECT_THROW((void)parse_json("{\"a\":1,}"), starsim::support::Error);
  EXPECT_THROW((void)parse_json("[1 2]"), starsim::support::Error);
  EXPECT_THROW((void)parse_json("1 2"), starsim::support::Error);
  EXPECT_THROW((void)parse_json("nope"), starsim::support::Error);
  EXPECT_THROW((void)parse_json("\"open"), starsim::support::Error);
}

TEST(JsonLite, TypeMismatchesThrow) {
  const JsonValue value = parse_json("[1]");
  EXPECT_THROW((void)value.as_object(), starsim::support::Error);
  EXPECT_THROW((void)value.as_string(), starsim::support::Error);
  EXPECT_EQ(value.find("key"), nullptr);  // non-objects find nothing
}

}  // namespace
