#include "harness/spans.h"

#include <cstring>
#include <unordered_map>

namespace starbench {

namespace tr = starsim::trace;

namespace {

struct OpenSpan {
  const char* category;
  const char* name;
  std::int64_t begin_ns;
  std::int64_t child_ns = 0;
  bool excluded = false;
};

bool same_span(const OpenSpan& open, const tr::TraceEvent& end) {
  return std::strcmp(open.category, end.category) == 0 &&
         std::strcmp(open.name, end.name) == 0;
}

bool is_verify(const tr::TraceEvent& event) {
  return std::strcmp(event.category, "bench") == 0 &&
         std::strcmp(event.name, "verify") == 0;
}

}  // namespace

SpanTable reduce_spans(const std::vector<tr::TraceEvent>& events) {
  SpanTable table;
  std::unordered_map<std::uint32_t, std::vector<OpenSpan>> stacks;
  for (const tr::TraceEvent& event : events) {
    std::vector<OpenSpan>& stack = stacks[event.tid];
    if (event.phase == tr::Phase::kBegin) {
      const bool parent_excluded = !stack.empty() && stack.back().excluded;
      stack.push_back(OpenSpan{event.category, event.name, event.ts_ns, 0,
                               parent_excluded || is_verify(event)});
      continue;
    }
    if (event.phase != tr::Phase::kEnd) continue;
    if (stack.empty() || !same_span(stack.back(), event)) continue;
    const OpenSpan open = stack.back();
    stack.pop_back();
    const std::int64_t duration_ns = event.ts_ns - open.begin_ns;
    if (!stack.empty()) stack.back().child_ns += duration_ns;
    if (open.excluded) continue;

    SpanTotals& totals =
        table[std::string(open.category) + "." + std::string(open.name)];
    totals.count += 1;
    totals.total_ms += static_cast<double>(duration_ns) * 1e-6;
    totals.self_ms +=
        static_cast<double>(duration_ns - open.child_ns) * 1e-6;
    for (const tr::TraceArg& arg : event.args) {
      if (const auto* value = std::get_if<std::int64_t>(&arg.value)) {
        totals.int_args[arg.key] += *value;
      }
    }
  }
  return table;
}

const SpanTotals& span(const SpanTable& table, const std::string& key) {
  static const SpanTotals kNone;
  const auto it = table.find(key);
  return it != table.end() ? it->second : kNone;
}

}  // namespace starbench
