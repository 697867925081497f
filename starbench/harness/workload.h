// The benchmark's workloads and the closed-loop client runner they share.
//
// A workload owns three kinds of state. Its inputs and reference data are
// generated from the seed by prepare(), outside every timing. The program's
// objects — devices and simulators, a FrameService, a ShardRouter — are
// built by setup(), which also runs the warm-up requests and is what
// setup_s times. run() drives those objects for one measured phase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/frame_pool.h"
#include "serve/service.h"

namespace starbench {

/// What one measured phase runs: a time budget (end-to-end runs) or a fixed
/// number of requests per client (traced runs and tests, so that per-frame
/// counts repeat exactly for one seed).
struct Budget {
  double seconds = 0.0;
  std::size_t requests_per_client = 0;
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Test hook: client 0 flips one pixel of the frame of this request
  /// before the gate checks it (-1: never).
  long perturb_request = -1;
};

/// What the clients of one phase saw.
struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, refused, or outside the gate
  std::vector<double> latency_ms;  ///< verified frames, call to frame in hand
  /// When each verified frame was in hand, seconds after the clients'
  /// release.
  std::vector<double> done_s;
  /// From RenderResponse::latency of rendered (not cache-served) frames.
  std::vector<double> queue_wait_ms;
  std::vector<double> batch_wait_ms;
  /// Client latency minus the shard-reported total (fleet only).
  std::vector<double> fleet_overhead_ms;
  double modeled_ms = 0.0;  ///< summed modeled application time
  /// Renders of a (field, simulator) pair seen before, and how many of
  /// them equal the first render bit for bit (paper_frames only).
  std::uint64_t repeats = 0;
  std::uint64_t bit_identical = 0;

  [[nodiscard]] std::uint64_t verified() const { return latency_ms.size(); }
  void merge(const ClientLog& other);
};

/// Counter deltas read from the program's own stats over one phase.
struct ProgramCounters {
  std::uint64_t tunes = 0;
  std::uint64_t schedule_hits = 0;
  std::uint64_t schedule_misses = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t frame_cache_hits = 0;
  std::uint64_t frame_cache_misses = 0;
  std::uint64_t wire_bytes = 0;  ///< request + reply bytes (fleet only)

  ProgramCounters& operator+=(const ProgramCounters& other);
  ProgramCounters& operator-=(const ProgramCounters& other);
};

/// A service's running totals of the counters above (wire bytes excepted).
[[nodiscard]] ProgramCounters counters_of(
    const starsim::serve::ServiceStats& stats);

struct PhaseResult {
  ClientLog log;
  double elapsed_s = 0.0;
  ProgramCounters counters;
  /// Coroutine-frame pool traffic from the phase's start to the teardown
  /// that follows it (program threads flush their counts as they exit).
  starsim::gpusim::detail::FramePoolStats frame_pool;
};

/// The load shape every result records.
struct Shape {
  int clients = 1;
  int workers = 0;  ///< render workers per service or shard
  int shards = 0;
  int frame_edge = 0;
  std::string entry_point;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual Shape shape() const = 0;
  /// Requests per client of a traced phase lasting about `seconds` on a
  /// 4-core host; fixed per workload so that it never depends on timing.
  [[nodiscard]] virtual std::size_t fixed_requests(double seconds) const = 0;

  /// Generate inputs and reference data from the seed (not timed).
  virtual void prepare() = 0;
  /// Build the program's objects and run the warm-up (timed as setup_s).
  virtual void setup() = 0;
  /// Destroy them, joining every thread they started.
  virtual void teardown() = 0;
  /// One measured phase against the objects setup() built.
  [[nodiscard]] virtual PhaseResult run(const Budget& budget) = 0;

  /// The single-threaded baseline for the emulated frames: times
  /// SequentialSimulator::simulate on the same fields, ms per frame
  /// (paper_frames only; 0 elsewhere).
  [[nodiscard]] virtual double sequential_ms_per_frame() { return 0.0; }
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, const WorkloadConfig& config);

/// One request of a closed-loop client: issue request `index` of `client`,
/// wait for its frame, check it and record the outcome in `log`.
using RequestFn =
    std::function<void(int client, std::size_t index, ClientLog& log)>;

/// The program's running counters, read before and after a phase.
using CountersFn = std::function<ProgramCounters()>;

/// Run `clients` closed-loop client threads released together. Under a time
/// budget a client stops once the budget is spent and it has completed a
/// multiple of `granule` requests. `elapsed_s` is release to last finish;
/// the counters are the phase's deltas of `counters` (none when null).
[[nodiscard]] PhaseResult run_phase(int clients, const Budget& budget,
                                    std::size_t granule,
                                    const RequestFn& request,
                                    const CountersFn& counters);

/// Distinct 64-bit seeds for (seed, stream, index) triples.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t index);

}  // namespace starbench
