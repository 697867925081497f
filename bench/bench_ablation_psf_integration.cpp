// Ablation — pixel response model: the paper's point-sampled Eq. (2) vs the
// exact pixel-integrated response, across PSF widths. Point sampling
// mis-measures total flux for narrow PSFs (it samples the peak instead of
// averaging over the pixel); integration fixes it at the price of four erf
// evaluations per pixel, visible in the modeled kernel time.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "sched/cost.h"
#include "starsim/sequential_simulator.h"
#include "starsim/workload.h"
#include "support/table.h"
#include "support/units.h"

int main(int argc, char** argv) {
  using namespace starsim;
  using namespace starsim::bench;
  namespace sup = starsim::support;

  SweepOptions options;
  std::string csv_path;
  if (!parse_bench_cli(argc, argv, "bench_ablation_psf_integration",
                       "ablation: point-sampled vs pixel-integrated PSF",
                       options, csv_path)) {
    return 0;
  }

  std::puts(
      "Ablation — PSF pixel model (single interior star, 64x64, ROI 20)\n");
  sup::ConsoleTable table({"sigma", "flux error (point)",
                           "flux error (integrated)",
                           "kernel cost ratio (int/point)"});
  sup::CsvWriter csv({"sigma", "point_flux_error", "integrated_flux_error",
                      "kernel_cost_ratio"});

  SequentialSimulator sim;
  const sched::CostModel model;
  for (double sigma : {0.3, 0.5, 0.8, 1.2, 1.7, 2.5, 4.0}) {
    SceneConfig scene;
    scene.image_width = 64;
    scene.image_height = 64;
    scene.roi_side = 20;
    scene.psf_sigma = sigma;
    const StarField star{Star{4.0f, 32.0f, 32.0f, 1.0f}};
    const double brightness = scene.brightness.brightness(4.0);

    scene.pixel_integration = false;
    const double point_flux = total_flux(sim.simulate(scene, star).image);
    scene.pixel_integration = true;
    const double integrated_flux =
        total_flux(sim.simulate(scene, star).image);

    SceneConfig paper = paper_scene(kTest1RoiSide);
    paper.psf_sigma = sigma;
    const double t_point =
        model.predict(paper, 8192).parallel.kernel_s;
    paper.pixel_integration = true;
    const double t_integrated =
        model.predict(paper, 8192).parallel.kernel_s;

    const double point_error =
        std::abs(point_flux - brightness) / brightness;
    const double integrated_error =
        std::abs(integrated_flux - brightness) / brightness;
    table.add_row({sup::fixed(sigma, 2), sup::compact(point_error),
                   sup::compact(integrated_error),
                   sup::fixed(t_integrated / t_point, 2) + "x"});
    csv.add_row({sup::fixed(sigma, 2), sup::compact(point_error),
                 sup::compact(integrated_error),
                 sup::fixed(t_integrated / t_point, 3)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nreading: below sigma ~0.8 px the point-sampled model inflates the"
      "\nstar's total flux severely; the integrated model is exact at every"
      "\nwidth for ~2.7x the modeled kernel arithmetic.");
  maybe_write_csv(csv, csv_path);
  return 0;
}
