#include "sched/apply.h"

#include "starsim/adaptive_simulator.h"
#include "starsim/openmp_simulator.h"
#include "starsim/pixel_centric_simulator.h"
#include "starsim/sequential_simulator.h"
#include "support/error.h"

namespace starsim::sched {

ParallelOptions parallel_options(const Schedule& schedule) {
  ParallelOptions options;
  if (schedule.simulator == SimulatorKind::kParallel && schedule.tiled()) {
    options.allow_tiling = true;
    options.tile_side = schedule.tile_side;
  }
  return options;
}

std::unique_ptr<Simulator> build_simulator(gpusim::Device& device,
                                           const Schedule& schedule) {
  switch (schedule.simulator) {
    case SimulatorKind::kSequential:
      return std::make_unique<SequentialSimulator>();
    case SimulatorKind::kCpuParallel:
      return std::make_unique<OpenMpSimulator>(schedule.cpu_threads);
    case SimulatorKind::kParallel:
      return std::make_unique<ParallelSimulator>(device,
                                                 parallel_options(schedule));
    case SimulatorKind::kAdaptive:
      return std::make_unique<AdaptiveSimulator>(device, schedule.lut);
    case SimulatorKind::kPixelCentric:
      return std::make_unique<PixelCentricSimulator>(device);
    default:
      STARSIM_THROW(support::PreconditionError,
                    "schedule names a simulator build_simulator cannot "
                    "instantiate");
  }
}

}  // namespace starsim::sched
