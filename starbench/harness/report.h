// The benchmark's output: named metrics with units, provenance, and the
// one-line JSON result that ends standard output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace starbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A small ordered JSON object builder (keys are emitted in insertion
/// order; values are already-encoded JSON).
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, int value);
  JsonObject& add(const std::string& key, bool value);
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add(const std::string& key, const std::vector<double>& values);
  JsonObject& add_raw(const std::string& key, const std::string& json);

  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

/// Shortest round-trip decimal form; non-finite values encode as 0.
[[nodiscard]] std::string json_number(double value);

[[nodiscard]] std::string json_string(const std::string& value);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// The process's peak resident set (VmHWM), MiB; 0 when unavailable.
[[nodiscard]] double peak_rss_mb();

}  // namespace starbench
