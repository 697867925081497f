// Table III — "The GPU simulator selection": locate both inflection points
// from the measured sweeps and print the selection rule, plus the Section
// IV-D observation that the sequential simulator is competitive for very
// small star fields.
#include <cstdio>

#include "bench_common.h"
#include "sched/cost.h"
#include "starsim/workload.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace starsim::bench;
  namespace sup = starsim::support;

  SweepOptions options;
  std::string csv_path;
  if (!parse_bench_cli(argc, argv, "bench_table3_selection",
                       "Table III: GPU simulator selection rule", options,
                       csv_path)) {
    return 0;
  }

  // Measure both inflection points.
  const auto test1 = run_test1(options);
  const auto test2 = run_test2(options);

  std::size_t star_inflection = 0;
  for (const SweepPoint& p : test1) {
    if (p.adaptive.application_s() < p.parallel.application_s()) {
      star_inflection = p.stars;
      break;
    }
  }
  int roi_inflection = 0;
  for (const SweepPoint& p : test2) {
    if (p.adaptive.application_s() < p.parallel.application_s()) {
      roi_inflection = p.roi_side;
      break;
    }
  }

  std::puts("Table III — GPU simulator selection (measured sweeps)\n");
  sup::ConsoleTable table(
      {"simulator choice", "number of stars", "size of ROI"});
  const std::string star_turn = star_label(star_inflection);
  const std::string roi_turn = std::to_string(roi_inflection);
  table.add_row({"parallel simulator", "< " + star_turn, "= 10"});
  table.add_row({"parallel simulator", "= 2^13", "< " + roi_turn});
  table.add_row({"adaptive simulator", ">= " + star_turn, "= 10"});
  table.add_row({"adaptive simulator", "= 2^13", ">= " + roi_turn});
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nmeasured turning points: %s stars (paper: 2^13), ROI side %d "
      "(paper: 10)\n",
      star_turn.c_str(), roi_inflection);

  // Consistency check the paper calls out: both inflections should occur
  // at the same amount of work (stars x ROI area).
  const double work1 = static_cast<double>(star_inflection) * 10 * 10;
  const double work2 =
      static_cast<double>(starsim::kTest2StarCount) * roi_inflection *
      roi_inflection;
  std::printf(
      "work at inflection: test1 %.3g pixel-threads, test2 %.3g "
      "(paper: 'the two tests accord perfectly')\n",
      work1, work2);

  // Section IV-D: the sequential niche.
  const starsim::sched::CostModel model;
  std::size_t seq_limit = 0;
  for (std::size_t n = 1; n <= (1u << 12); n *= 2) {
    if (model.predict(paper_scene(10), n).best ==
        starsim::SimulatorKind::kSequential) {
      seq_limit = n;
    }
  }
  std::printf(
      "\nsequential simulator competitive up to ~%zu stars (paper: 0~2^7)\n",
      seq_limit);

  sup::CsvWriter csv({"quantity", "value"});
  csv.add_row({"star_inflection", std::to_string(star_inflection)});
  csv.add_row({"roi_inflection", std::to_string(roi_inflection)});
  csv.add_row({"sequential_niche_max_stars", std::to_string(seq_limit)});
  maybe_write_csv(csv, csv_path);
  return 0;
}
