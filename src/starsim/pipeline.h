// Frame-sequence simulation with stream overlap.
//
// A star simulator in its motivating deployments (star sensor feedback,
// space-environment simulation) produces frames continuously; the paper's
// per-frame non-kernel overhead (~2.4 ms of PCIe traffic) then gates the
// frame rate. Pipelining fixes that: with CUDA streams, frame N's kernel
// overlaps frame N+1's upload and frame N-1's readback. simulate_sequence
// runs every frame functionally (bit-identical to per-frame simulation) and
// schedules the modeled per-frame stages on a StreamScheduler to obtain the
// pipelined makespan.
#pragma once

#include <span>
#include <vector>

#include "gpusim/device.h"
#include "starsim/parallel_simulator.h"
#include "starsim/resilient_executor.h"
#include "starsim/simulator.h"

namespace starsim {

struct PipelineOptions {
  /// Concurrent CUDA streams (frames round-robin across them). 1 disables
  /// overlap and reproduces the serial per-frame time.
  int streams = 2;
  /// Copy engines on the device (GTX480: 1).
  int copy_engines = 1;
  /// Launch geometry for the per-frame parallel simulator (ROI tiling).
  /// Defaults reproduce the paper's untiled star-centric kernel.
  ParallelOptions parallel{};
  /// Run each frame through a ResilientExecutor (parallel -> cpu-parallel
  /// -> sequential on this device) so a faulted frame retries or degrades
  /// instead of killing the sequence. Only the successful attempt's stage
  /// durations are enqueued on the stream scheduler — recovery happens
  /// host-side and never stalls the stream schedule. The chain head stays
  /// the parallel simulator so fault-free resilient runs are bit-identical
  /// to non-resilient ones.
  bool resilient = false;
  /// Retry/backoff policy when `resilient` is set.
  RetryPolicy retry{};
};

struct PipelineResult {
  std::vector<SimulationResult> frames;
  /// Per-frame recovery accounts; filled only when options.resilient.
  std::vector<ResilienceReport> resilience;
  /// Sum of per-frame modeled application times (no overlap).
  double serial_s = 0.0;
  /// Modeled makespan with stream overlap.
  double pipelined_s = 0.0;
  /// Engine utilization over the pipelined makespan.
  double copy_utilization = 0.0;
  double compute_utilization = 0.0;

  /// Serial/pipelined ratio. Requires a simulated sequence: zero-time
  /// results (never returned by simulate_frame_sequence, which rejects
  /// empty sequences at entry) are a caller bug, not a 1.0x speedup.
  [[nodiscard]] double speedup() const {
    STARSIM_REQUIRE(pipelined_s > 0.0,
                    "speedup undefined for a zero-time sequence");
    return serial_s / pipelined_s;
  }
  [[nodiscard]] double frames_per_second() const {
    STARSIM_REQUIRE(pipelined_s > 0.0,
                    "frame rate undefined for a zero-time sequence");
    return static_cast<double>(frames.size()) / pipelined_s;
  }
};

/// Simulate `frame_fields[i]` for every i with the parallel simulator and
/// schedule the sequence across streams. Images are identical to per-frame
/// ParallelSimulator::simulate results. `frame_fields` must be non-empty.
[[nodiscard]] PipelineResult simulate_frame_sequence(
    gpusim::Device& device, const SceneConfig& scene,
    std::span<const StarField> frame_fields,
    const PipelineOptions& options = {});

}  // namespace starsim
