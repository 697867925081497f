#include "sched/tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "support/error.h"
#include "support/rng.h"
#include "trace/trace.h"

namespace starsim::sched {

namespace {

struct Scored {
  Schedule schedule;
  CostBreakdown cost;
};

bool better(const Scored& a, const Scored& b) {
  return a.cost.application_s < b.cost.application_s;
}

}  // namespace

Tuner::Tuner(CostModel model, TunerOptions options)
    : model_(std::move(model)),
      space_(model_.device(), model_.host(), options.space),
      options_(options) {}

TuningOutcome Tuner::tune(const Workload& workload,
                          const LookupTableOptions& lut_floor) const {
  const SceneConfig& scene = workload.scene;
  scene.validate();
  STARSIM_REQUIRE(workload.star_count > 0, "tuning needs at least one star");
  trace::TraceSpan span("sched", "tune");

  std::size_t evaluated = 0;
  std::unordered_set<std::string> seen;
  auto evaluate = [&](const Schedule& s) {
    ++evaluated;
    return model_.score(scene, workload.star_count, s);
  };

  // --- Seeds: one per simulator family (includes both fixed baselines).
  std::vector<Scored> beam;
  for (Schedule& s :
       space_.seeds(scene, workload.star_count, lut_floor,
                    workload.batch_hint)) {
    if (!seen.insert(s.to_string()).second) continue;
    CostBreakdown cost = evaluate(s);
    beam.push_back(Scored{std::move(s), cost});
  }
  STARSIM_REQUIRE(!beam.empty(), "schedule space produced no candidates");
  std::sort(beam.begin(), beam.end(), better);
  Scored best = beam.front();

  // --- Beam search: expand the top candidates' neighborhoods.
  for (int round = 0; round < options_.beam_rounds; ++round) {
    if (beam.size() > static_cast<std::size_t>(options_.beam_width)) {
      beam.resize(static_cast<std::size_t>(options_.beam_width));
    }
    std::vector<Scored> frontier;
    for (const Scored& parent : beam) {
      for (Schedule& s : space_.neighbors(parent.schedule, scene,
                                          workload.star_count, lut_floor)) {
        if (!seen.insert(s.to_string()).second) continue;
        CostBreakdown cost = evaluate(s);
        frontier.push_back(Scored{std::move(s), cost});
      }
    }
    if (frontier.empty()) break;
    beam.insert(beam.end(), frontier.begin(), frontier.end());
    std::sort(beam.begin(), beam.end(), better);
    if (better(beam.front(), best)) best = beam.front();
  }

  // --- Simulated-annealing refinement from the beam winner. The PCG
  // stream is the workload fingerprint, so two workloads sharing a seed
  // still walk independent (but individually reproducible) paths.
  support::Pcg32 rng(options_.seed,
                     fingerprint_workload(workload, lut_floor,
                                          model_.device()));
  Scored current = best;
  double temperature = options_.anneal_initial_temp;
  for (int it = 0; it < options_.anneal_iterations; ++it) {
    std::vector<Schedule> moves = space_.neighbors(
        current.schedule, scene, workload.star_count, lut_floor);
    if (moves.empty()) break;
    Schedule& pick = moves[rng.bounded(static_cast<std::uint32_t>(moves.size()))];
    CostBreakdown cost = evaluate(pick);
    seen.insert(pick.to_string());
    const double relative_delta =
        (cost.application_s - current.cost.application_s) /
        std::max(current.cost.application_s,
                 std::numeric_limits<double>::min());
    if (relative_delta < 0.0 ||
        rng.uniform() < std::exp(-relative_delta / temperature)) {
      current = Scored{std::move(pick), cost};
      if (better(current, best)) best = current;
    }
    temperature *= options_.anneal_cooling;
  }

  // --- Baselines, scored by the same model (exactness contract: the
  // untiled parallel and floor-LUT adaptive scores here are bit-identical
  // to CostModel::predict).
  TuningOutcome outcome;
  outcome.schedule = best.schedule;
  outcome.cost = best.cost;
  outcome.candidates_evaluated = evaluated;

  const Schedule fixed_parallel =
      fixed_schedule(SimulatorKind::kParallel, scene, workload.star_count,
                     lut_floor, workload.batch_hint);
  outcome.fixed_parallel_s =
      space_.legal(fixed_parallel, scene, workload.star_count)
          ? model_.score(scene, workload.star_count, fixed_parallel)
                .application_s
          : std::numeric_limits<double>::infinity();
  const Schedule fixed_adaptive =
      fixed_schedule(SimulatorKind::kAdaptive, scene, workload.star_count,
                     lut_floor, workload.batch_hint);
  outcome.fixed_adaptive_s =
      space_.legal(fixed_adaptive, scene, workload.star_count)
          ? model_.score(scene, workload.star_count, fixed_adaptive)
                .application_s
          : std::numeric_limits<double>::infinity();
  outcome.sequential_s =
      model_
          .score(scene, workload.star_count,
                 fixed_schedule(SimulatorKind::kSequential, scene,
                                workload.star_count, lut_floor,
                                workload.batch_hint))
          .application_s;

  if (span.armed()) [[unlikely]] {
    span.arg("stars", static_cast<std::int64_t>(workload.star_count))
        .arg("roi", static_cast<std::int64_t>(scene.roi_side))
        .arg("candidates", static_cast<std::int64_t>(evaluated))
        .arg("winner", outcome.schedule.to_string())
        .arg("modeled_s", outcome.cost.application_s)
        .arg("speedup_vs_fixed", outcome.speedup_vs_fixed());
  }
  return outcome;
}

}  // namespace starsim::sched
