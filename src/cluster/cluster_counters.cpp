#include "cluster/cluster_counters.hpp"

#include <mutex>

#include "trace/trace.hpp"

namespace nexus::cluster {

namespace {

struct GlobalCounters {
  std::mutex mu;
  ClusterCounters totals;
};

GlobalCounters& Globals() {
  static GlobalCounters g;
  return g;
}

} // namespace

void AccumulateClusterCounters(ClusterCounters& into,
                               const ClusterCounters& delta) {
  into.quorum_reads += delta.quorum_reads;
  into.quorum_writes += delta.quorum_writes;
  into.quorum_failures += delta.quorum_failures;
  into.shard_rpcs += delta.shard_rpcs;
  into.shard_failures += delta.shard_failures;
  into.failovers += delta.failovers;
  into.read_repairs += delta.read_repairs;
  into.tombstones_written += delta.tombstones_written;
  into.rebalance_passes += delta.rebalance_passes;
  into.rebalance_objects_moved += delta.rebalance_objects_moved;
  into.rebalance_objects_purged += delta.rebalance_objects_purged;
  into.rebalance_objects_scanned += delta.rebalance_objects_scanned;
  into.rebalance_bytes_moved += delta.rebalance_bytes_moved;
  into.handoff_hints_recorded += delta.handoff_hints_recorded;
  into.handoff_hints_replayed += delta.handoff_hints_replayed;
  into.handoff_hints_dropped += delta.handoff_hints_dropped;
  into.stream_puts += delta.stream_puts;
  into.stream_put_replica_aborts += delta.stream_put_replica_aborts;
  if (delta.stream_put_buffered_high_water_bytes >
      into.stream_put_buffered_high_water_bytes) {
    into.stream_put_buffered_high_water_bytes =
        delta.stream_put_buffered_high_water_bytes;
  }
  into.shards_ejected += delta.shards_ejected;
  into.shards_reinstated += delta.shards_reinstated;
  if (delta.shard_rpc_p50_ms != 0) into.shard_rpc_p50_ms = delta.shard_rpc_p50_ms;
  if (delta.shard_rpc_p99_ms != 0) into.shard_rpc_p99_ms = delta.shard_rpc_p99_ms;
}

ClusterCounters GlobalClusterSnapshot() {
  GlobalCounters& g = Globals();
  ClusterCounters out;
  {
    const std::lock_guard<std::mutex> lock(g.mu);
    out = g.totals;
  }
  const trace::Histogram& latency = trace::GlobalHistogram("cluster.rpc");
  if (latency.Count() > 0) {
    out.shard_rpc_p50_ms = latency.PercentileMs(0.50);
    out.shard_rpc_p99_ms = latency.PercentileMs(0.99);
  }
  return out;
}

void ResetGlobalClusterCounters() {
  GlobalCounters& g = Globals();
  const std::lock_guard<std::mutex> lock(g.mu);
  g.totals = ClusterCounters{};
}

void GlobalClusterAdd(const ClusterCounters& delta) {
  GlobalCounters& g = Globals();
  const std::lock_guard<std::mutex> lock(g.mu);
  AccumulateClusterCounters(g.totals, delta);
}

} // namespace nexus::cluster
