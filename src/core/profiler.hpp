// Latency accounting for the evaluation's overhead breakdown (§VII-A):
//
//   Enclave runtime  — real compute time spent inside ecalls, measured with
//                      a monotonic clock (accumulated by NexusClient)
//   Metadata I/O     — virtual time of metadata fetch/store/lock RPCs
//   Data I/O         — virtual time of bulk data RPCs
//   Journal I/O      — virtual time of commit-journal anchor RPCs
//
// A workload's end-to-end latency is (virtual I/O time) + (real compute
// time); benchmarks combine the two explicitly so nothing double-counts.
// The journal counters come from the enclave's own statistics and let
// benchmarks report the group-commit batching factor (ops per record).
// Storage backends below the client (RemoteBackend, CachedBackend,
// ClusterBackend) keep their own counters(); read those on the instance.
#pragma once

#include <cstdint>

#include "enclave/nexus_enclave.hpp"
#include "journal/journal.hpp"

namespace nexus::core {

/// Count + percentiles of one latency distribution (from a
/// trace::Histogram). The count is a counter; percentiles are gauges, so a
/// delta keeps the later snapshot's values.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;

  friend LatencySummary operator-(const LatencySummary& a,
                                  const LatencySummary& b) {
    return LatencySummary{a.count - b.count, a.p50_ms, a.p99_ms};
  }
};

struct ProfileSnapshot {
  double io_seconds = 0; // total virtual (simulated network/server) time
  double enclave_seconds = 0;
  double metadata_io_seconds = 0;
  double data_io_seconds = 0;
  double journal_io_seconds = 0;
  journal::Stats journal;
  enclave::NexusEnclave::ParallelStats parallel;
  /// Wall-time distribution of every timed ecall (process-global
  /// trace::GlobalHistogram("ecall")).
  LatencySummary ecall_latency;
  /// Wall-time distribution of durable journal commits
  /// (trace::GlobalHistogram("journal.commit")).
  LatencySummary journal_commit_latency;
  /// Spans completed by the tracer (0 unless tracing is enabled).
  std::uint64_t trace_spans = 0;

  friend ProfileSnapshot operator-(const ProfileSnapshot& a,
                                   const ProfileSnapshot& b) {
    return ProfileSnapshot{
        a.io_seconds - b.io_seconds,
        a.enclave_seconds - b.enclave_seconds,
        a.metadata_io_seconds - b.metadata_io_seconds,
        a.data_io_seconds - b.data_io_seconds,
        a.journal_io_seconds - b.journal_io_seconds,
        a.journal - b.journal,
        a.parallel - b.parallel,
        a.ecall_latency - b.ecall_latency,
        a.journal_commit_latency - b.journal_commit_latency,
        a.trace_spans - b.trace_spans,
    };
  }
};

} // namespace nexus::core
