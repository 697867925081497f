// Mapping a Schedule onto the machinery that executes it.
//
// The tuner decides; these helpers carry the decision into existing types
// without new execution paths: a Simulator instance for direct rendering
// and the ParallelOptions realizing its launch geometry. Anything a
// Schedule cannot express for a given simulator (tile side on the adaptive
// kernel, LUT resolution on the parallel one) is simply ignored by
// construction.
#pragma once

#include <memory>

#include "gpusim/device.h"
#include "sched/schedule.h"
#include "starsim/parallel_simulator.h"
#include "starsim/simulator.h"

namespace starsim::sched {

/// ParallelOptions realizing the schedule's ROI tiling (the paper's
/// untiled kernel when tile_side == 0).
[[nodiscard]] ParallelOptions parallel_options(const Schedule& schedule);

/// Instantiate the simulator the schedule names, configured by it.
/// kMultiGpu is not schedulable and throws PreconditionError.
[[nodiscard]] std::unique_ptr<Simulator> build_simulator(
    gpusim::Device& device, const Schedule& schedule);

}  // namespace starsim::sched
