// nexus-stat: one-shot introspection client for running nexusd daemons.
//
//   nexus-stat [--host ADDR] --port N
//   nexus-stat --cluster HOST:PORT,HOST:PORT,...   (or NEXUS_CLUSTER env)
//
// Single-daemon mode issues a Stats RPC through the normal RemoteBackend
// machinery (so it exercises the same retry/deadline path as real
// clients) and prints the daemon's lifetime counters plus per-op
// count/bytes/p50/p99 rows. Cluster mode fans the same Stats RPC to
// every shard and prints one row per shard — unreachable shards are
// reported, not fatal — followed by an aggregate row summing the fleet.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster_backend.hpp"
#include "net/remote_backend.hpp"
#include "net/wire.hpp"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host ADDR] --port N\n"
               "       %s --cluster HOST:PORT,... (empty list reads "
               "NEXUS_CLUSTER)\n",
               argv0, argv0);
}

int ClusterMode(const std::string& endpoints) {
  const std::vector<std::string> list =
      nexus::cluster::ParseEndpointList(endpoints);
  if (list.empty()) {
    std::fprintf(stderr,
                 "nexus-stat: no cluster endpoints (set NEXUS_CLUSTER or pass "
                 "--cluster HOST:PORT,...)\n");
    return 2;
  }
  std::printf("cluster %zu shards\n", list.size());
  std::printf("  %-22s %12s %14s %14s %8s  %s\n", "shard", "rpcs", "bytes_in",
              "bytes_out", "conns", "status");
  nexus::net::ServerStats total;
  std::size_t reachable = 0;
  unsigned long long hints_pending = 0;
  for (const std::string& endpoint : list) {
    std::string host;
    std::uint16_t port = 0;
    if (!nexus::cluster::SplitHostPort(endpoint, &host, &port)) {
      std::printf("  %-22s %12s %14s %14s %8s  malformed endpoint\n",
                  endpoint.c_str(), "-", "-", "-", "-");
      continue;
    }
    auto backend = nexus::net::RemoteBackend::Connect(host, port);
    if (!backend.ok()) {
      std::printf("  %-22s %12s %14s %14s %8s  unreachable\n", endpoint.c_str(),
                  "-", "-", "-", "-");
      continue;
    }
    auto stats = backend.value()->Stats();
    if (!stats.ok()) {
      std::printf("  %-22s %12s %14s %14s %8s  stats rpc failed\n",
                  endpoint.c_str(), "-", "-", "-", "-");
      continue;
    }
    const nexus::net::ServerStats& s = stats.value();
    std::printf("  %-22s %12llu %14llu %14llu %8llu  ok\n", endpoint.c_str(),
                static_cast<unsigned long long>(s.rpcs_served),
                static_cast<unsigned long long>(s.bytes_received),
                static_cast<unsigned long long>(s.bytes_sent),
                static_cast<unsigned long long>(s.active_connections));
    total.rpcs_served += s.rpcs_served;
    total.bytes_received += s.bytes_received;
    total.bytes_sent += s.bytes_sent;
    total.active_connections += s.active_connections;
    total.connections_accepted += s.connections_accepted;
    total.protocol_errors += s.protocol_errors;
    ++reachable;
    // Count handoff-hint markers parked on this shard (sloppy-quorum
    // writes still owed to an ejected owner). Paged so a shard holding a
    // backlog never forces a full listing into this one-shot client.
    std::string cursor;
    for (;;) {
      const nexus::storage::StorageBackend::ListPage page =
          backend.value()->ListSome(
          nexus::cluster::kHandoffHintPrefix, cursor, 256);
      hints_pending += page.names.size();
      if (!page.more || page.names.empty()) break;
      cursor = page.names.back();
    }
  }
  std::printf("  handoff hints pending: %llu\n", hints_pending);
  std::printf("  %-22s %12llu %14llu %14llu %8llu  aggregate (%zu/%zu "
              "reachable)\n",
              "TOTAL", static_cast<unsigned long long>(total.rpcs_served),
              static_cast<unsigned long long>(total.bytes_received),
              static_cast<unsigned long long>(total.bytes_sent),
              static_cast<unsigned long long>(total.active_connections),
              reachable, list.size());
  return reachable == 0 ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  bool cluster_mode = false;
  std::string cluster_endpoints;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--cluster") {
      cluster_mode = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') cluster_endpoints = next();
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (cluster_mode) {
    if (cluster_endpoints.empty()) {
      const char* env = std::getenv("NEXUS_CLUSTER");
      if (env != nullptr) cluster_endpoints = env;
    }
    return ClusterMode(cluster_endpoints);
  }
  if (port <= 0 || port > 65535) {
    Usage(argv[0]);
    return 2;
  }

  auto backend = nexus::net::RemoteBackend::Connect(
      host, static_cast<std::uint16_t>(port));
  if (!backend.ok()) {
    std::fprintf(stderr, "nexus-stat: cannot reach %s:%d: %s\n", host.c_str(),
                 port, backend.status().message().c_str());
    return 1;
  }
  auto stats = backend.value()->Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "nexus-stat: stats rpc failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }

  const nexus::net::ServerStats& s = stats.value();
  std::printf("nexusd %s:%d\n", host.c_str(), port);
  std::printf("  connections   %llu accepted, %llu active\n",
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.active_connections));
  std::printf("  rpcs served   %llu (%llu protocol errors)\n",
              static_cast<unsigned long long>(s.rpcs_served),
              static_cast<unsigned long long>(s.protocol_errors));
  std::printf("  streams       %llu open, %llu aborted on disconnect\n",
              static_cast<unsigned long long>(s.open_streams),
              static_cast<unsigned long long>(s.streams_aborted_on_disconnect));
  std::printf("  bytes         %llu in, %llu out\n",
              static_cast<unsigned long long>(s.bytes_received),
              static_cast<unsigned long long>(s.bytes_sent));
  std::printf("  leases        %llu sessions, %llu granted, %llu broken, "
              "%llu invalidations, %llu break timeouts\n",
              static_cast<unsigned long long>(s.lease_sessions),
              static_cast<unsigned long long>(s.leases_granted),
              static_cast<unsigned long long>(s.leases_broken),
              static_cast<unsigned long long>(s.invalidations_sent),
              static_cast<unsigned long long>(s.lease_break_timeouts));
  // Event-loop health.
  if (s.epoll_wakeups > 0 || s.arena_slabs_high_water > 0) {
    // Wakeups per served RPC: about 1 when every request frame arrives
    // in one piece; a client that splits its frames pushes it up.
    const double per_rpc =
        s.rpcs_served > 0 ? static_cast<double>(s.epoll_wakeups) /
                                static_cast<double>(s.rpcs_served)
                          : 0.0;
    std::printf("  reactor       %llu wakeups (%.2f per rpc), dispatch p50 "
                "%.3f ms, p99 %.3f ms\n",
                static_cast<unsigned long long>(s.epoll_wakeups), per_rpc,
                s.loop_dispatch_p50_ms, s.loop_dispatch_p99_ms);
    std::printf("  arena         %llu slabs in use, high-water %llu, "
                "%llu oversize frames\n",
                static_cast<unsigned long long>(s.arena_slabs_in_use),
                static_cast<unsigned long long>(s.arena_slabs_high_water),
                static_cast<unsigned long long>(s.arena_oversize_frames));
  }
  if (s.resident_threads > 0) {
    std::printf("  threads       %llu resident\n",
                static_cast<unsigned long long>(s.resident_threads));
  }
  std::printf("  %-13s %10s %12s %12s %10s %10s\n", "op", "count", "bytes_in",
              "bytes_out", "p50_ms", "p99_ms");
  for (const nexus::net::RpcOpStats& op : s.per_op) {
    std::printf("  %-13s %10llu %12llu %12llu %10.3f %10.3f\n",
                nexus::net::RpcName(static_cast<nexus::net::Rpc>(op.rpc)),
                static_cast<unsigned long long>(op.count),
                static_cast<unsigned long long>(op.bytes_in),
                static_cast<unsigned long long>(op.bytes_out), op.p50_ms,
                op.p99_ms);
  }
  return 0;
}
