// Extension — the selection rule across GPU generations. Table III's
// turning points are properties of one chip, not of the algorithm; because
// the cost model predicts from a DeviceSpec, re-deriving the rule for newer
// hardware is free. On Kepler-class fp64 throughput the parallel kernel's
// per-pixel exp becomes cheap, the adaptive simulator's fixed overhead
// stops amortizing, and the inflection retreats or disappears — the
// forward-looking answer to the paper's future-work section.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "sched/cost.h"
#include "starsim/workload.h"
#include "support/table.h"
#include "support/units.h"

namespace {

struct DeviceRow {
  const char* label;
  starsim::gpusim::DeviceSpec spec;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace starsim;
  using namespace starsim::bench;
  namespace sup = starsim::support;

  SweepOptions options;
  std::string csv_path;
  if (!parse_bench_cli(argc, argv, "bench_ext_device_generations",
                       "extension: Table III across GPU generations",
                       options, csv_path)) {
    return 0;
  }

  const std::vector<DeviceRow> devices = {
      {"GTX480 (paper)", gpusim::DeviceSpec::gtx480()},
      {"GTX580", gpusim::DeviceSpec::gtx580()},
      {"Tesla K20", gpusim::DeviceSpec::k20()},
  };

  std::puts("Extension — selection rule vs GPU generation (predicted)\n");
  sup::ConsoleTable table({"device", "fp64 peak", "star inflection (ROI 10)",
                           "ROI inflection (8192 stars)",
                           "parallel speedup at 2^17",
                           "best GPU at 2^17"});
  sup::CsvWriter csv({"device", "fp64_peak_gflops", "star_inflection",
                      "roi_inflection", "speedup_2e17"});

  for (const DeviceRow& row : devices) {
    const sched::CostModel model(row.spec);

    std::size_t star_inflection = 0;
    for (std::size_t n : test1_star_counts()) {
      if (model.predict(paper_scene(kTest1RoiSide), n).best_gpu ==
          SimulatorKind::kAdaptive) {
        star_inflection = n;
        break;
      }
    }
    int roi_inflection = 0;
    for (int side : test2_roi_sides()) {
      if (model.predict(paper_scene(side), kTest2StarCount).best_gpu ==
          SimulatorKind::kAdaptive) {
        roi_inflection = side;
        break;
      }
    }
    const sched::Prediction top =
        model.predict(paper_scene(kTest1RoiSide), 1u << 17);
    const double speedup =
        top.sequential_s / top.parallel.application_s();

    table.add_row(
        {row.label, sup::fixed(row.spec.peak_fp64_flops() / 1e9, 0) + " GF",
         star_inflection ? star_label(star_inflection) : "never",
         roi_inflection ? std::to_string(roi_inflection) : "never",
         sup::fixed(speedup, 0) + "x",
         std::string(to_string(top.best_gpu))});
    csv.add_row({row.label,
                 sup::fixed(row.spec.peak_fp64_flops() / 1e9, 1),
                 std::to_string(star_inflection),
                 std::to_string(roi_inflection), sup::fixed(speedup, 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nreading: the inflection is a chip property. On Fermi the lookup"
      "\ntable pays for itself at the paper's thresholds; as fp64 arithmetic"
      "\ngets cheap (Kepler), precomputing it buys less and the parallel"
      "\nkernel stays the right choice far longer — Table III must be"
      "\nre-derived per device, which the cost model does.");
  maybe_write_csv(csv, csv_path);
  return 0;
}
