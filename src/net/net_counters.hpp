// Client-side network counters of one RemoteBackend (counters()). A delta
// between two snapshots subtracts counters; gauges keep the later value.
#pragma once

#include <cstdint>

namespace nexus::net {

struct NetCounters {
  std::uint64_t rpcs = 0;       // completed request/response exchanges
  std::uint64_t retries = 0;    // re-attempts after a transport failure
  std::uint64_t reconnects = 0; // fresh dials replacing a broken connection
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  // Latency of successful RPC attempts (send -> response decoded), from
  // this backend's log-bucket histogram (trace::Histogram). Gauges.
  double rpc_p50_ms = 0;
  double rpc_p99_ms = 0;

  friend NetCounters operator-(const NetCounters& a, const NetCounters& b) {
    NetCounters out;
    out.rpcs = a.rpcs - b.rpcs;
    out.retries = a.retries - b.retries;
    out.reconnects = a.reconnects - b.reconnects;
    out.bytes_sent = a.bytes_sent - b.bytes_sent;
    out.bytes_received = a.bytes_received - b.bytes_received;
    out.rpc_p50_ms = a.rpc_p50_ms; // gauges keep the later snapshot
    out.rpc_p99_ms = a.rpc_p99_ms;
    return out;
  }
};

} // namespace nexus::net
