// Bench-side probes at the stack's public interfaces (traced runs only).
//
//   P0  vfs::FileSystem decorator over NexusFs (and its OpenFiles)
//   P1  storage::StorageBackend decorator above cache::CachedBackend
//   P2  storage::StorageBackend decorator above cluster::ClusterBackend
//   P3  storage::StorageBackend decorator above each shard's RemoteBackend
//
// Each decorator forwards every virtual call unchanged and appends the
// call's [start, end) monotonic interval to its layer's SpanLog while
// recording is switched on (the timed sections). A layer's self time is
// the union of its intervals minus the part its child layer covers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/backend.hpp"
#include "vfs/vfs.hpp"

namespace nexus::fullbench {

struct SpanRec {
  const char* name = ""; // string literal: the interface call
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Thread-safe in-memory span list for one layer.
class SpanLog {
 public:
  explicit SpanLog(const char* layer) : layer_(layer) {}

  void Add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);
  [[nodiscard]] std::vector<SpanRec> Snapshot() const;
  [[nodiscard]] const char* layer() const { return layer_; }

 private:
  const char* layer_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// The four probe layers plus the switch that gates recording.
struct Probes {
  SpanLog vfs{"vfs"};         // P0
  SpanLog cache{"cache"};     // P1
  SpanLog cluster{"cluster"}; // P2
  SpanLog shard{"net"};       // P3 (all shards)
  std::atomic<bool> recording{false};
};

/// P0: times every FileSystem call and every call on the files it opens.
std::unique_ptr<vfs::FileSystem> MakeProbedFs(vfs::FileSystem& inner,
                                              Probes& probes);

/// P1-P3: times every StorageBackend call (and PutStream call) into `log`.
std::unique_ptr<storage::StorageBackend> MakeProbedBackend(
    std::unique_ptr<storage::StorageBackend> inner, SpanLog& log,
    const std::atomic<bool>& recording);

// ---- interval arithmetic over span lists ------------------------------------

struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Sorted, disjoint union of the spans' intervals (overlapping spans from
/// parallel callers merge).
std::vector<Interval> Union(const std::vector<SpanRec>& spans);
/// Total covered length, seconds.
double Seconds(const std::vector<Interval>& set);
/// Length of the intersection of two sorted disjoint sets, seconds.
double OverlapSeconds(const std::vector<Interval>& a,
                      const std::vector<Interval>& b);

/// Durations (ms) of the spans whose name is one of `names`.
std::vector<double> DurationsMs(const std::vector<SpanRec>& spans,
                                std::initializer_list<std::string_view> names);

} // namespace nexus::fullbench
