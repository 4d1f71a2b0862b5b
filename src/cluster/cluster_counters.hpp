// Cluster-client counters of one ClusterBackend (counters()). A delta
// between two snapshots subtracts counters; gauges keep the later value.
#pragma once

#include <cstdint>

namespace nexus::cluster {

struct ClusterCounters {
  // Quorum ops (client-visible operations, not per-shard RPCs).
  std::uint64_t quorum_reads = 0;
  std::uint64_t quorum_writes = 0;
  std::uint64_t quorum_failures = 0; // ops that could not reach quorum

  // Per-shard RPC traffic underneath the quorum ops.
  std::uint64_t shard_rpcs = 0;
  std::uint64_t shard_failures = 0; // transport-level (kIOError) only

  // Failover / repair / placement.
  std::uint64_t failovers = 0; // a non-owner successor served/absorbed
  std::uint64_t read_repairs = 0;
  std::uint64_t tombstones_written = 0;
  // Shard answers whose envelope version ran more than kMaxClockSkewMs
  // ahead of the wall clock, treated as missing.
  std::uint64_t forged_versions = 0;
  std::uint64_t rebalance_passes = 0; // one per arc set (or whole circle)
  std::uint64_t rebalance_objects_moved = 0;
  std::uint64_t rebalance_objects_purged = 0;
  std::uint64_t rebalance_objects_scanned = 0; // names listed/examined
  std::uint64_t rebalance_bytes_moved = 0;     // payload bytes copied

  // Hinted handoff (sloppy-quorum writes owed to an ejected owner).
  std::uint64_t handoff_hints_recorded = 0;
  std::uint64_t handoff_hints_replayed = 0;
  std::uint64_t handoff_hints_dropped = 0; // superseded or unreadable

  // Streamed puts. Only those of two or more segments fan out through
  // replica streams and count here; shorter ones commit as a quorum Put.
  std::uint64_t stream_puts = 0;
  std::uint64_t stream_put_replica_aborts = 0; // replica streams lost mid-put
  // High-water mark of bytes a single streamed put held client-side
  // (gauge): its first segment, which the one-segment bound pins.
  std::uint64_t stream_put_buffered_high_water_bytes = 0;

  // Health tracking.
  std::uint64_t shards_ejected = 0;
  std::uint64_t shards_reinstated = 0;

  // Shard RPC latency (gauges from this backend's histogram).
  double shard_rpc_p50_ms = 0;
  double shard_rpc_p99_ms = 0;

  /// Delta between two snapshots: counters subtract; latency gauges keep
  /// the later snapshot's value.
  friend ClusterCounters operator-(const ClusterCounters& a,
                                   const ClusterCounters& b) {
    ClusterCounters out;
    out.quorum_reads = a.quorum_reads - b.quorum_reads;
    out.quorum_writes = a.quorum_writes - b.quorum_writes;
    out.quorum_failures = a.quorum_failures - b.quorum_failures;
    out.shard_rpcs = a.shard_rpcs - b.shard_rpcs;
    out.shard_failures = a.shard_failures - b.shard_failures;
    out.failovers = a.failovers - b.failovers;
    out.read_repairs = a.read_repairs - b.read_repairs;
    out.tombstones_written = a.tombstones_written - b.tombstones_written;
    out.forged_versions = a.forged_versions - b.forged_versions;
    out.rebalance_passes = a.rebalance_passes - b.rebalance_passes;
    out.rebalance_objects_moved =
        a.rebalance_objects_moved - b.rebalance_objects_moved;
    out.rebalance_objects_purged =
        a.rebalance_objects_purged - b.rebalance_objects_purged;
    out.rebalance_objects_scanned =
        a.rebalance_objects_scanned - b.rebalance_objects_scanned;
    out.rebalance_bytes_moved = a.rebalance_bytes_moved - b.rebalance_bytes_moved;
    out.handoff_hints_recorded =
        a.handoff_hints_recorded - b.handoff_hints_recorded;
    out.handoff_hints_replayed =
        a.handoff_hints_replayed - b.handoff_hints_replayed;
    out.handoff_hints_dropped =
        a.handoff_hints_dropped - b.handoff_hints_dropped;
    out.stream_puts = a.stream_puts - b.stream_puts;
    out.stream_put_replica_aborts =
        a.stream_put_replica_aborts - b.stream_put_replica_aborts;
    out.stream_put_buffered_high_water_bytes =
        a.stream_put_buffered_high_water_bytes; // gauge keeps the later
    out.shards_ejected = a.shards_ejected - b.shards_ejected;
    out.shards_reinstated = a.shards_reinstated - b.shards_reinstated;
    out.shard_rpc_p50_ms = a.shard_rpc_p50_ms; // gauges keep the later
    out.shard_rpc_p99_ms = a.shard_rpc_p99_ms;
    return out;
  }
};

} // namespace nexus::cluster
