// The four paper workloads, each a closed loop from one load thread.
//
// A workload's inputs come from `--seed` alone: it fixes the trees
// (workloads::GenerateTree draws their shape from it), file contents and
// key order. The per-round counts (RPCs, bytes, journal records) are
// therefore a function of the seed.
//
// The timed phase repeats a fixed round until the run's seconds are spent.
// Only the rounds' timed sections count; the bench's own input generation
// and output comparison run with the timer paused.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "stack.hpp"
#include "trace/histogram.hpp"

namespace nexus::fullbench {

/// Times the timed sections of a run and records its unit operations.
class Recorder {
 public:
  Recorder(Stack& stack, Probes* probes) : stack_(stack), probes_(probes) {}

  /// Everything between Resume() and Pause() is timed wall time of the
  /// run, and is what the probes record. Resume() resets the process-wide
  /// latency histograms and Pause() folds them in, so the ecall and
  /// journal-commit percentiles cover timed sections only.
  void Resume();
  void Pause();

  enum class Kind { kWrite, kRead, kMeta };
  /// Runs one unit operation. Writes and reads are open-to-close handle
  /// sessions (or one put); `bytes` is their plaintext size. kMeta ops
  /// (mkdir) move no file content.
  template <typename F>
  void Op(Kind kind, std::uint64_t bytes, F&& op) {
    const std::uint64_t t0 = MonotonicNanos();
    const Status status = op();
    Record(kind, bytes, MonotonicNanos() - t0, status);
  }
  /// A read-back that did not match what was written.
  void Mismatch(const std::string& what);

  [[nodiscard]] double timed_s() const { return timed_ns_ * 1e-9; }
  [[nodiscard]] double sim_s() const { return sim_s_; }
  [[nodiscard]] double ecall_s() const { return ecall_s_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::vector<double>& write_ms() const { return write_ms_; }
  [[nodiscard]] const std::vector<double>& read_ms() const { return read_ms_; }
  [[nodiscard]] std::uint64_t write_bytes() const { return write_bytes_; }
  [[nodiscard]] std::uint64_t read_bytes() const { return read_bytes_; }
  [[nodiscard]] double write_s() const { return write_ns_ * 1e-9; }
  [[nodiscard]] double read_s() const { return read_ns_ * 1e-9; }
  /// Ecall and journal-commit latencies seen inside timed sections.
  [[nodiscard]] const trace::Histogram& ecall_hist() const { return ecall_hist_; }
  [[nodiscard]] const trace::Histogram& commit_hist() const {
    return commit_hist_;
  }

 private:
  void Record(Kind kind, std::uint64_t bytes, std::uint64_t ns,
              const Status& status);

  Stack& stack_;
  Probes* probes_;
  bool running_ = false;
  std::uint64_t section_start_ns_ = 0;
  double section_ecall_start_ = 0;
  double section_sim_start_ = 0;
  double timed_ns_ = 0;
  double sim_s_ = 0;
  double ecall_s_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
  std::vector<double> write_ms_;
  std::vector<double> read_ms_;
  double write_ns_ = 0;
  double read_ns_ = 0;
  std::uint64_t write_bytes_ = 0;
  std::uint64_t read_bytes_ = 0;
  trace::Histogram ecall_hist_;
  trace::Histogram commit_hist_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Setup on a fresh stack: preload and untimed warm-up. Resets any
  /// state left from an earlier stack, so it may run once per setup.
  virtual Status Prepare(Stack& stack) = 0;
  /// One round of the timed phase; rounds are numbered from 0.
  virtual void Round(Stack& stack, int round, Recorder& rec) = 0;
  /// Untimed follow-up of a round that touches the stack (read-back
  /// checks, reopening a database); runs after the round's counters are
  /// taken.
  virtual void AfterRound(Stack& stack, int round, Recorder& rec) = 0;
  /// Drops state bound to the current stack (open files) before it is
  /// torn down.
  virtual void Release() {}
  /// One line describing the round, for the run's config block.
  [[nodiscard]] virtual std::string Describe() const = 0;
};

/// `name` is clone, bigfile, db or rescan; `quick` shrinks every size for
/// the smoke test. Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool quick);

} // namespace nexus::fullbench
