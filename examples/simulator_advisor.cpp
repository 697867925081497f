// Table III as a tool: given a workload (star count, ROI side, image size),
// predict all three simulators' application time on the modeled hardware
// and recommend one — the paper's "selection criteria for different model
// parameters", generalized by the analytic work predictor.
//
//   ./simulator_advisor --stars 8192 --roi 10
//   ./simulator_advisor --stars 500 --roi 16 --bins 64 --phases 4
#include <cstdio>

#include "sched/cost.h"
#include "support/cli.h"
#include "support/table.h"
#include "support/units.h"

int main(int argc, char** argv) {
  using namespace starsim;
  namespace sup = starsim::support;

  sup::Cli cli("simulator_advisor",
               "predict and choose the best simulator for a workload");
  cli.add_option("stars", "number of stars in the FOV", "8192");
  cli.add_option("roi", "ROI side in pixels", "10");
  cli.add_option("size", "image edge in pixels", "1024");
  cli.add_option("bins", "adaptive LUT bins per magnitude", "1");
  cli.add_option("phases", "adaptive LUT subpixel phases per axis", "1");
  if (!cli.parse(argc, argv)) return 0;

  SceneConfig scene;
  scene.image_width = static_cast<int>(cli.integer("size"));
  scene.image_height = scene.image_width;
  scene.roi_side = static_cast<int>(cli.integer("roi"));

  LookupTableOptions lut;
  lut.bins_per_magnitude = static_cast<int>(cli.integer("bins"));
  lut.subpixel_phases = static_cast<int>(cli.integer("phases"));

  const sched::CostModel model(gpusim::DeviceSpec::gtx480(),
                               gpusim::HostSpec::i7_860());
  const auto stars = static_cast<std::size_t>(cli.integer("stars"));
  const sched::Prediction prediction = model.predict(scene, stars, lut);

  std::printf("workload: %zu stars, ROI %dx%d, image %dx%d\n\n", stars,
              scene.roi_side, scene.roi_side, scene.image_width,
              scene.image_height);

  sup::ConsoleTable table(
      {"simulator", "application", "kernel", "non-kernel", "GFLOPS"});
  table.add_row({"sequential (i7-860)",
                 sup::format_time(prediction.sequential_s), "-", "-", "-"});
  auto gpu_row = [&](const char* name, const TimingBreakdown& t) {
    table.add_row({name, sup::format_time(t.application_s()),
                   sup::format_time(t.kernel_s),
                   sup::format_time(t.non_kernel_s()),
                   sup::fixed(t.achieved_gflops, 1)});
  };
  gpu_row("parallel (GTX480)", prediction.parallel);
  gpu_row("adaptive (GTX480)", prediction.adaptive);
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nrecommendation: %s simulator\n",
              to_string(prediction.best).data());
  if (prediction.best != prediction.best_gpu) {
    std::printf("(best GPU option if a GPU is required: %s)\n",
                to_string(prediction.best_gpu).data());
  }
  std::puts(
      "\npaper's rule of thumb (Table III): parallel below 2^13 stars /"
      "\nROI 10, adaptive above; sequential for very small fields.");
  return 0;
}
