// Latency distributions for the observability layer (DESIGN.md §7).
//
// Two shapes, two jobs:
//
//  * Histogram — fixed log2-bucket counts over nanoseconds. Recording is a
//    handful of relaxed atomic increments (safe from any thread, no lock,
//    no allocation), so it can sit on hot paths: per-ecall timing, journal
//    commits, every nexusd RPC. Percentiles interpolate within a bucket
//    and clamp to the observed [min, max], which makes uniform sample sets
//    exact and bounds the error for mixed sets by one bucket (a factor of
//    two in value). Histograms merge associatively, so per-shard instances
//    can be summed into one distribution.
//
//  * Reservoir — a bounded sample buffer for callers that want EXACT
//    percentiles over recent samples. Not thread-safe; callers lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace nexus::trace {

class Histogram {
 public:
  /// Bucket 0 holds exactly {0}; bucket i >= 1 holds [2^(i-1), 2^i) ns;
  /// the last bucket is open-ended.
  static constexpr std::size_t kBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(std::uint64_t value_ns) noexcept;
  void RecordSeconds(double seconds) noexcept;
  void RecordMs(double ms) noexcept;

  [[nodiscard]] std::uint64_t Count() const noexcept;
  [[nodiscard]] std::uint64_t SumNs() const noexcept;
  [[nodiscard]] std::uint64_t MinNs() const noexcept; // 0 when empty
  [[nodiscard]] std::uint64_t MaxNs() const noexcept;
  [[nodiscard]] double MeanNs() const noexcept;

  /// p in [0, 1]. Exact when every sample shares one value (clamped to the
  /// global min/max); otherwise within the sample's bucket.
  [[nodiscard]] double PercentileNs(double p) const noexcept;
  [[nodiscard]] double PercentileMs(double p) const noexcept;

  /// Adds `other`'s samples into this histogram. Associative and
  /// commutative over the resulting distribution.
  void MergeFrom(const Histogram& other) noexcept;
  void Reset() noexcept;

  static std::size_t BucketIndex(std::uint64_t value_ns) noexcept;
  static std::uint64_t BucketLo(std::size_t index) noexcept;
  static std::uint64_t BucketHi(std::size_t index) noexcept;

 private:
  std::atomic<std::uint64_t> counts_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

/// Bounded buffer of recent samples: fills to capacity, then overwrites the
/// oldest retained slot (newest-overwrite wrap-around).
class Reservoir {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit Reservoir(std::size_t capacity = kDefaultCapacity);

  void Record(double sample);

  /// Exact percentile over the retained samples (sort + linear
  /// interpolation at rank p * (n - 1)); 0 when empty.
  [[nodiscard]] double Percentile(double p) const;

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total samples ever offered, overwritten ones included.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

  void Reset();

 private:
  std::size_t capacity_;
  std::vector<double> samples_;
  std::size_t next_slot_ = 0;
  std::uint64_t recorded_ = 0;
};

/// Exact percentile of an arbitrary sample set (same rank convention as
/// Reservoir::Percentile); 0 when empty.
double ExactPercentile(std::vector<double> samples, double p);

} // namespace nexus::trace
