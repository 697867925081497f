// Tuner — beam search + simulated-annealing refinement over ScheduleSpace,
// scored purely by CostModel (no real-GPU runs; a full tune is microseconds
// of arithmetic). Deterministic: the annealer's PCG stream is derived from
// (options.seed, workload fingerprint), so the same seed and workload
// always produce the same schedule — which is what lets the schedule cache
// persist across processes without replay drift.
//
// The search is overkill for today's space (a few dozen candidates — beam
// search alone visits most of them) and is structured the way auto-tuners
// like OpenTuner are: seeds per simulator family, one-step neighborhood
// moves, an acceptance temperature for escaping local minima once the
// space grows new axes (multi-GPU splits, stream counts).
#pragma once

#include <cstdint>

#include "sched/cost.h"
#include "sched/schedule.h"
#include "sched/space.h"

namespace starsim::sched {

struct TunerOptions {
  int beam_width = 6;
  int beam_rounds = 3;
  int anneal_iterations = 48;
  /// Initial acceptance temperature, in relative-cost units (a move 25%
  /// worse is accepted with probability 1/e at temperature 0.25).
  double anneal_initial_temp = 0.25;
  double anneal_cooling = 0.92;
  std::uint64_t seed = 0x5eed0001u;
  SpaceOptions space{};
};

struct TuningOutcome {
  Schedule schedule;     ///< the winner
  CostBreakdown cost;    ///< its modeled per-frame cost
  /// The paper's fixed alternatives, scored by the same model (adaptive is
  /// +inf when its lookup table cannot fit the device).
  double fixed_parallel_s = 0.0;
  double fixed_adaptive_s = 0.0;
  double sequential_s = 0.0;
  std::size_t candidates_evaluated = 0;

  /// The better of the two fixed GPU simulators — the Table III baseline.
  [[nodiscard]] double best_fixed_s() const {
    return fixed_parallel_s < fixed_adaptive_s ? fixed_parallel_s
                                               : fixed_adaptive_s;
  }
  /// Modeled speedup of the tuned schedule over that baseline (>= 1 by
  /// construction: both fixed schedules are seeds).
  [[nodiscard]] double speedup_vs_fixed() const {
    return cost.application_s > 0.0 ? best_fixed_s() / cost.application_s
                                    : 1.0;
  }
};

class Tuner {
 public:
  explicit Tuner(CostModel model = CostModel{}, TunerOptions options = {});

  /// Search the schedule space for `workload`. `lut_floor` is the accuracy
  /// floor for the adaptive path's lookup table (the tuner only refines
  /// upward). Deterministic given (options.seed, workload).
  [[nodiscard]] TuningOutcome tune(const Workload& workload,
                                   const LookupTableOptions& lut_floor = {}) const;

  [[nodiscard]] const CostModel& model() const { return model_; }
  [[nodiscard]] const ScheduleSpace& space() const { return space_; }
  [[nodiscard]] const TunerOptions& options() const { return options_; }

 private:
  CostModel model_;
  ScheduleSpace space_;
  TunerOptions options_;
};

}  // namespace starsim::sched
