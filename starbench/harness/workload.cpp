#include "harness/workload.h"

#include <chrono>
#include <exception>
#include <latch>
#include <thread>

namespace starbench {

std::unique_ptr<Workload> make_paper_frames(const WorkloadConfig& config);
std::unique_ptr<Workload> make_tracker_stream(const WorkloadConfig& config);
std::unique_ptr<Workload> make_fleet_survey(const WorkloadConfig& config);

void ClientLog::merge(const ClientLog& other) {
  attempted += other.attempted;
  failed += other.failed;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
  queue_wait_ms.insert(queue_wait_ms.end(), other.queue_wait_ms.begin(),
                       other.queue_wait_ms.end());
  batch_wait_ms.insert(batch_wait_ms.end(), other.batch_wait_ms.begin(),
                       other.batch_wait_ms.end());
  fleet_overhead_ms.insert(fleet_overhead_ms.end(),
                           other.fleet_overhead_ms.begin(),
                           other.fleet_overhead_ms.end());
  modeled_ms += other.modeled_ms;
  repeats += other.repeats;
  bit_identical += other.bit_identical;
}

ProgramCounters& ProgramCounters::operator+=(const ProgramCounters& other) {
  tunes += other.tunes;
  schedule_hits += other.schedule_hits;
  schedule_misses += other.schedule_misses;
  batches += other.batches;
  batched_requests += other.batched_requests;
  frame_cache_hits += other.frame_cache_hits;
  frame_cache_misses += other.frame_cache_misses;
  wire_bytes += other.wire_bytes;
  return *this;
}

ProgramCounters& ProgramCounters::operator-=(const ProgramCounters& other) {
  tunes -= other.tunes;
  schedule_hits -= other.schedule_hits;
  schedule_misses -= other.schedule_misses;
  batches -= other.batches;
  batched_requests -= other.batched_requests;
  frame_cache_hits -= other.frame_cache_hits;
  frame_cache_misses -= other.frame_cache_misses;
  wire_bytes -= other.wire_bytes;
  return *this;
}

ProgramCounters counters_of(const starsim::serve::ServiceStats& stats) {
  ProgramCounters counters;
  counters.tunes = stats.sched.tuner_invocations;
  counters.schedule_hits = stats.sched.cache.hits;
  counters.schedule_misses = stats.sched.cache.misses;
  counters.batches = stats.batches;
  for (std::size_t size = 1; size < stats.batch_size_histogram.size(); ++size) {
    counters.batched_requests += size * stats.batch_size_histogram[size];
  }
  counters.frame_cache_hits = stats.cache_hits;
  counters.frame_cache_misses = stats.cache_misses;
  return counters;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "paper_frames", "tracker_stream", "fleet_survey"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadConfig& config) {
  if (name == "paper_frames") return make_paper_frames(config);
  if (name == "tracker_stream") return make_tracker_stream(config);
  if (name == "fleet_survey") return make_fleet_survey(config);
  return nullptr;
}

PhaseResult run_phase(int clients, const Budget& budget, std::size_t granule,
                      const RequestFn& request, const CountersFn& counters) {
  using Clock = std::chrono::steady_clock;
  PhaseResult phase;
  const ProgramCounters before = counters ? counters() : ProgramCounters{};
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  std::latch start(clients + 1);
  Clock::time_point released;
  const auto budget_span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(budget.seconds));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      start.arrive_and_wait();
      const Clock::time_point deadline = released + budget_span;
      for (std::size_t i = 0;; ++i) {
        if (budget.requests_per_client > 0) {
          if (i >= budget.requests_per_client) break;
        } else if (i % granule == 0 && Clock::now() >= deadline) {
          break;
        }
        log.attempted += 1;
        const std::size_t verified = log.latency_ms.size();
        try {
          request(c, i, log);
        } catch (const std::exception&) {
          log.failed += 1;
        }
        if (log.latency_ms.size() > verified) {
          log.done_s.push_back(
              std::chrono::duration<double>(Clock::now() - released).count());
        }
      }
    });
  }
  released = Clock::now();
  start.arrive_and_wait();
  for (std::thread& thread : threads) thread.join();
  phase.elapsed_s =
      std::chrono::duration<double>(Clock::now() - released).count();

  for (const ClientLog& log : logs) phase.log.merge(log);
  if (counters) {
    phase.counters = counters();
    phase.counters -= before;
  }
  return phase;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  // SplitMix64 finalizer over a combination of the three inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    stream * 0xbf58476d1ce4e5b9ULL +
                    index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace starbench
