// Extension — auto-scheduler acceptance sweep (docs/scheduling.md).
//
// Crosses the paper's two sweep axes into one star-count x ROI grid and, at
// every point, compares the tuned schedule's modeled time against the two
// fixed GPU simulators the paper's Table III rule chooses between. The
// scene is a large 2048^2 frame: PCIe transfers dominate small star fields
// there, which is exactly the regime where a cost-model scheduler pays off
// by routing work to CPU schedules the fixed policy never considers.
//
// Acceptance gates (non-zero exit on violation):
//   1. tuned <= best fixed simulator at EVERY grid point (both fixed
//      schedules are tuner seeds, so a regression here is a search bug);
//   2. tuned strictly faster (modeled) on >= 25% of the grid;
//   3. warm start: a schedule cache saved after the sweep and reloaded into
//      a fresh scheduler serves every grid point without re-tuning.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sched/scheduler.h"
#include "sched/tuner.h"
#include "support/table.h"

namespace {

starsim::SceneConfig grid_scene(int roi_side) {
  starsim::SceneConfig scene;
  scene.image_width = 2048;
  scene.image_height = 2048;
  scene.roi_side = roi_side;
  scene.psf_sigma = 1.7;
  return scene;
}

struct GridPoint {
  std::size_t stars = 0;
  int roi_side = 0;
  starsim::sched::TuningOutcome outcome;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace starsim::bench;
  namespace sup = starsim::support;
  namespace sched = starsim::sched;

  SweepOptions options;
  std::string csv_path;
  if (!parse_bench_cli(argc, argv, "bench_ext_autoschedule",
                       "Auto-scheduler acceptance: tuned vs fixed schedules "
                       "over the star-count x ROI grid",
                       options, csv_path)) {
    return 0;
  }

  // Star counts 2^3..2^15 x ROI sides 2..32: the small-field corner where
  // CPU schedules win is as well represented as the adaptive-simulator
  // corner the paper's Table III covers. --quick thins both axes 2x.
  std::vector<std::size_t> star_counts;
  for (std::size_t n = 8; n <= (1u << 15); n *= options.quick ? 4 : 2) {
    star_counts.push_back(n);
  }
  std::vector<int> roi_sides;
  for (int r = 2; r <= 32; r += options.quick ? 4 : 2) {
    roi_sides.push_back(r);
  }

  sched::TunerOptions tuner_options;
  tuner_options.seed = options.seed;
  const sched::Tuner tuner(sched::CostModel{}, tuner_options);

  std::vector<GridPoint> grid;
  std::size_t strict_wins = 0;
  std::size_t violations = 0;
  for (std::size_t n : star_counts) {
    for (int roi : roi_sides) {
      sched::Workload workload;
      workload.scene = grid_scene(roi);
      workload.star_count = n;
      GridPoint point{n, roi, tuner.tune(workload)};
      const double tuned = point.outcome.cost.application_s;
      const double fixed = point.outcome.best_fixed_s();
      if (tuned > fixed * (1.0 + 1e-12)) {
        std::fprintf(stderr,
                     "VIOLATION: tuned %.6e s > best fixed %.6e s at "
                     "%zu stars, ROI %d (%s)\n",
                     tuned, fixed, n, roi,
                     point.outcome.schedule.to_string().c_str());
        ++violations;
      } else if (tuned < fixed * (1.0 - 1e-9)) {
        ++strict_wins;
      }
      grid.push_back(std::move(point));
    }
  }

  // Speedup table: rows = star counts, a column per sampled ROI side.
  const std::vector<int> shown_rois =
      options.quick ? std::vector<int>{2, 6, 10, 18, 26}
                    : std::vector<int>{2, 6, 10, 16, 24, 32};
  std::vector<std::string> header{"stars"};
  for (int roi : shown_rois) header.push_back("roi " + std::to_string(roi));
  sup::ConsoleTable table(header);
  for (std::size_t n : star_counts) {
    std::vector<std::string> row{star_label(n)};
    for (int roi : shown_rois) {
      for (const GridPoint& p : grid) {
        if (p.stars != n || p.roi_side != roi) continue;
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%.2fx %s",
                      p.outcome.speedup_vs_fixed(),
                      p.outcome.schedule.simulator ==
                              starsim::SimulatorKind::kAdaptive
                          ? "adap"
                          : p.outcome.schedule.simulator ==
                                    starsim::SimulatorKind::kParallel
                                ? "par"
                                : "cpu");
        row.push_back(cell);
        break;
      }
    }
    table.add_row(row);
  }
  std::puts(
      "Auto-scheduler acceptance (2048^2 frame, modeled speedup vs best "
      "fixed GPU simulator)\n");
  std::fputs(table.render().c_str(), stdout);

  const double win_rate =
      static_cast<double>(strict_wins) / static_cast<double>(grid.size());
  std::printf(
      "\ngrid: %zu points (%zu star counts x %zu ROI sides); tuned <= fixed "
      "everywhere: %s; strict wins: %zu (%.0f%%, gate >= 25%%)\n",
      grid.size(), star_counts.size(), roi_sides.size(),
      violations == 0 ? "yes" : "NO", strict_wins, win_rate * 100.0);

  // Warm start: tune everything through a scheduler, persist, reload into a
  // fresh scheduler, and re-query the whole grid — every point must hit.
  const std::string cache_path =
      (std::filesystem::temp_directory_path() /
       "starsim_bench_autoschedule_cache.txt")
          .string();
  sched::SchedulerOptions sched_options;
  sched_options.tuner = tuner_options;
  bool warm_ok = true;
  {
    sched::Scheduler cold(sched_options);
    for (const GridPoint& p : grid) {
      (void)cold.schedule_for(grid_scene(p.roi_side), p.stars);
    }
    warm_ok = cold.save_cache(cache_path);
  }
  sched::Scheduler warm(sched_options);
  warm_ok = warm_ok && warm.load_cache(cache_path);
  for (const GridPoint& p : grid) {
    (void)warm.schedule_for(grid_scene(p.roi_side), p.stars);
  }
  const sched::SchedulerStats warm_stats = warm.stats();
  const double hit_rate =
      warm_stats.cache.hits + warm_stats.cache.misses > 0
          ? static_cast<double>(warm_stats.cache.hits) /
                static_cast<double>(warm_stats.cache.hits +
                                    warm_stats.cache.misses)
          : 0.0;
  warm_ok = warm_ok && warm_stats.cache.misses == 0 &&
            warm_stats.tuner_invocations == 0;
  std::printf(
      "warm start: %zu lookups after reload, %llu hits / %llu misses "
      "(%.0f%% hit rate), %llu re-tunes (gate: 0)\n",
      grid.size(),
      static_cast<unsigned long long>(warm_stats.cache.hits),
      static_cast<unsigned long long>(warm_stats.cache.misses),
      hit_rate * 100.0,
      static_cast<unsigned long long>(warm_stats.tuner_invocations));
  std::error_code ec;
  std::filesystem::remove(cache_path, ec);

  sup::CsvWriter csv({"stars", "roi_side", "tuned_s", "fixed_parallel_s",
                      "fixed_adaptive_s", "sequential_s", "speedup",
                      "schedule"});
  for (const GridPoint& p : grid) {
    csv.add_row({std::to_string(p.stars), std::to_string(p.roi_side),
                 std::to_string(p.outcome.cost.application_s),
                 std::to_string(p.outcome.fixed_parallel_s),
                 std::to_string(p.outcome.fixed_adaptive_s),
                 std::to_string(p.outcome.sequential_s),
                 std::to_string(p.outcome.speedup_vs_fixed()),
                 p.outcome.schedule.to_string()});
  }
  maybe_write_csv(csv, csv_path);

  const bool pass = violations == 0 && win_rate >= 0.25 && warm_ok;
  std::printf("\n%s\n", pass ? "PASS: tuned never loses to a fixed schedule "
                               "and the warm-start cache replays every point"
                             : "FAIL: see gates above");
  return pass ? 0 : 1;
}
