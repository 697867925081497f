// starbench — run one starsim benchmark workload and print its metrics.
//
//   starbench --workload tracker_stream --seed 7 --seconds 10 --trace 0
//
// Standard output ends with one JSON line: {"correct", "attempted",
// "failed", "metrics"}; the line before it holds the run's provenance.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
// See starbench/README.md.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "harness/benchmark.h"
#include "harness/workload.h"

namespace {

int usage(const std::string& problem) {
  std::cerr << "starbench: " << problem << "\n"
            << "usage: starbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>]\n"
            << "workloads:";
  for (const std::string& name : starbench::workload_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  starbench::RunOptions options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else {
        return usage("unknown flag " + std::string(flag));
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    const starbench::RunResult result = starbench::run_benchmark(options);
    std::cout << "{\"provenance\": " << result.provenance << "}\n"
              << starbench::result_line(result.correct, result.attempted,
                                        result.failed, result.metrics)
              << std::endl;
  } catch (const std::invalid_argument& error) {
    return usage(error.what());
  } catch (const std::exception& error) {
    std::cerr << "starbench: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
