// Client object-cache counters of one CachedBackend (counters()). A delta
// between two snapshots subtracts counters; gauges keep the later value.
#pragma once

#include <cstdint>

namespace nexus::cache {

struct CacheCounters {
  // Read path.
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;

  // Capacity management.
  std::uint64_t evictions_mem = 0;
  std::uint64_t evictions_disk = 0;

  // Write path.
  std::uint64_t writeback_batches = 0;
  std::uint64_t writeback_objects = 0;
  std::uint64_t dirty_bytes_high_water = 0; // gauge

  // Coherence.
  std::uint64_t invalidations_received = 0;

  // Inert, always 0: nexus_bench reads them (ROADMAP item 2).
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;

  /// Delta between two snapshots: counters subtract; the high-water gauge
  /// keeps the later snapshot's value.
  friend CacheCounters operator-(const CacheCounters& a,
                                 const CacheCounters& b) {
    CacheCounters out;
    out.mem_hits = a.mem_hits - b.mem_hits;
    out.disk_hits = a.disk_hits - b.disk_hits;
    out.misses = a.misses - b.misses;
    out.evictions_mem = a.evictions_mem - b.evictions_mem;
    out.evictions_disk = a.evictions_disk - b.evictions_disk;
    out.writeback_batches = a.writeback_batches - b.writeback_batches;
    out.writeback_objects = a.writeback_objects - b.writeback_objects;
    out.dirty_bytes_high_water = a.dirty_bytes_high_water;
    out.invalidations_received =
        a.invalidations_received - b.invalidations_received;
    return out;
  }
};

} // namespace nexus::cache
