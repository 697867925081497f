// ScheduleCache — memoized tuning decisions, keyed by workload fingerprint.
//
// A tune costs microseconds, but the serving layer asks on every admitted
// request; the cache turns that into one hash lookup on the hot path and
// gives operators a warm-start file so a restarted server never re-tunes
// workloads it has already seen. Entries are LRU-evicted at capacity.
//
// Persistence is a versioned line-oriented text file stamped with the
// DeviceSpec fingerprint it was tuned for. Loading is all-or-nothing into
// a staging list first: a truncated, corrupted, version-skewed or
// wrong-device file is rejected whole and the in-memory cache is left
// untouched (a stale schedule silently applied to new hardware would be a
// correctness-of-performance bug the operator cannot see).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sched/schedule.h"

namespace starsim::sched {

/// One cached decision: the winning schedule plus the modeled costs of it
/// and the paper's fixed baseline at tune time (serving metrics report the
/// aggregate modeled win; drift detection compares re-scored costs).
struct CachedSchedule {
  Schedule schedule;
  double modeled_s = 0.0;
  double fallback_s = 0.0;  ///< best fixed simulator's modeled time
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
};

class ScheduleCache {
 public:
  explicit ScheduleCache(std::size_t capacity = 256);

  /// Find `key`, refreshing its LRU position. Counts a hit or a miss.
  [[nodiscard]] std::optional<CachedSchedule> lookup(std::uint64_t key);

  /// Insert (or overwrite) `key`, evicting the least-recently-used entry
  /// beyond capacity.
  void insert(std::uint64_t key, const CachedSchedule& entry);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] CacheStats stats() const;
  void clear();

  /// Write every entry (LRU-first, so reloading reproduces recency order)
  /// stamped with `device_fingerprint`. False on I/O failure.
  [[nodiscard]] bool save(const std::string& path,
                          std::uint64_t device_fingerprint) const;

  /// Replace the cache contents from `path`. Returns false — leaving the
  /// cache unchanged — when the file is missing, truncated, corrupted, a
  /// different format version, or stamped for a different device.
  [[nodiscard]] bool load(const std::string& path,
                          std::uint64_t device_fingerprint);

 private:
  struct Entry {
    std::uint64_t key = 0;
    CachedSchedule value;
  };

  void insert_locked(std::uint64_t key, const CachedSchedule& entry);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> order_;  ///< front = least recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace starsim::sched
