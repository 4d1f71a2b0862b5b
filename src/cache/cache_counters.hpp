// Client object-cache counters of one CachedBackend (counters()). A delta
// between two snapshots subtracts every counter.
#pragma once

#include <cstdint>

namespace nexus::cache {

struct CacheCounters {
  // Read path.
  std::uint64_t mem_hits = 0;
  std::uint64_t misses = 0;

  // Capacity management.
  std::uint64_t evictions_mem = 0;

  // Inert, always 0: nexus_bench reads them (ROADMAP item 2).
  std::uint64_t disk_hits = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;

  /// Delta between two snapshots.
  friend CacheCounters operator-(const CacheCounters& a,
                                 const CacheCounters& b) {
    CacheCounters out;
    out.mem_hits = a.mem_hits - b.mem_hits;
    out.misses = a.misses - b.misses;
    out.evictions_mem = a.evictions_mem - b.evictions_mem;
    return out;
  }
};

} // namespace nexus::cache
