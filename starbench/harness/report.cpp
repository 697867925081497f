#include "harness/report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace starbench {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto [end, error] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (error != std::errc{}) return "0";
  return std::string(buffer, end);
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char ch : value) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", ch);
          out += escaped;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::add(const std::string& key, double value) {
  return add_raw(key, json_number(value));
}

JsonObject& JsonObject::add(const std::string& key, std::uint64_t value) {
  return add_raw(key, std::to_string(value));
}

JsonObject& JsonObject::add(const std::string& key, int value) {
  return add_raw(key, std::to_string(value));
}

JsonObject& JsonObject::add(const std::string& key, bool value) {
  return add_raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::add(const std::string& key, const std::string& value) {
  return add_raw(key, json_string(value));
}

JsonObject& JsonObject::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

JsonObject& JsonObject::add(const std::string& key,
                            const std::vector<double>& values) {
  std::string json = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_number(values[i]);
  }
  return add_raw(key, json + "]");
}

JsonObject& JsonObject::add_raw(const std::string& key,
                                const std::string& json) {
  members_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(members_[i].first) + ": " + members_[i].second;
  }
  return out + "}";
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  JsonObject values;
  for (const Metric& metric : metrics) {
    values.add_raw(metric.name, JsonObject()
                                    .add("value", metric.value)
                                    .add("unit", metric.unit)
                                    .str());
  }
  return JsonObject()
      .add("correct", correct)
      .add("attempted", attempted)
      .add("failed", failed)
      .add_raw("metrics", values.str())
      .str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace starbench
