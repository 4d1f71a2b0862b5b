// Work-stealing thread pool for the enclave's chunk-crypto engine.
//
// The NEXUS data path is embarrassingly parallel: every file chunk carries
// its own AES-GCM key and an independent tag (§IV-A1), so chunks can be
// sealed/opened concurrently with no shared cryptographic state. This pool
// provides the fixed worker set that EcallEncrypt/EcallDecrypt dispatch
// per-chunk tasks onto, and the join group that waits for a whole batch.
//
// Threading model (matters for the simulated SGX boundary): worker threads
// execute pure compute closures only. They never issue ecalls or ocalls —
// sgx::EnclaveRuntime is single-threaded by design and its scope guards
// assert non-reentrancy. All storage traffic stays on the submitting
// (ecall) thread, which is also the only thread that touches enclave
// caches, the RNG and the filenode being updated.
//
// Scheduling: one deque per worker, submissions round-robined across them;
// a worker pops its own deque from the back (LIFO, cache-warm) and steals
// from the front of a victim's deque (FIFO, oldest first). A single mutex
// guards all deques — tasks are coarse (an AES-GCM pass over one chunk of
// a multi-chunk file; a one-chunk batch never reaches the pool, the
// enclave runs it inline on the ecall thread), so queue operations are
// noise and the simplicity buys straightforward TSan-clean shutdown and
// statistics.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bytes.hpp"

namespace nexus::parallel {

/// Per-worker state handed to every task: the worker's index and a scratch
/// buffer that persists across tasks on the same worker (avoids per-task
/// allocation for round-key serialization and similar staging).
struct WorkerContext {
  std::size_t worker_index = 0;
  Bytes scratch;

  /// Returns scratch resized to at least `n` bytes (contents unspecified).
  MutableByteSpan Scratch(std::size_t n) {
    if (scratch.size() < n) scratch.resize(n);
    return MutableByteSpan(scratch.data(), n);
  }
};

/// Aggregate counters, snapshot via ThreadPool::stats().
struct PoolStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_stolen = 0; // executed from another worker's deque
  std::uint64_t peak_queue_depth = 0;
  std::size_t workers = 0;
};

class TaskGroup;

class ThreadPool {
 public:
  using Task = std::function<void(WorkerContext&)>;

  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return contexts_.size();
  }
  [[nodiscard]] PoolStats stats() const;

  /// Fire-and-forget: schedules `fn` with no join group. The caller owns
  /// completion tracking (the event-driven nexusd keeps its own in-flight
  /// counters — a per-connection TaskGroup would force a blocking WaitAll
  /// on the event loop).
  void Post(Task fn);

 private:
  friend class TaskGroup;

  struct Submission {
    Task fn;
    TaskGroup* group;
  };

  void Enqueue(Submission s);
  void WorkerMain(std::size_t index);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<Submission>> queues_; // one per worker
  std::size_t next_queue_ = 0;                 // round-robin target
  std::size_t queued_ = 0;
  bool stop_ = false;
  PoolStats stats_;
  std::vector<WorkerContext> contexts_;
  std::vector<std::thread> threads_; // last member: joins before the rest dies
};

/// A join group of tasks: Submit() schedules them and WaitAll() blocks until
/// every one finished. With a null pool every Submit executes inline on the
/// calling thread: the serial and parallel data paths share one code shape.
///
/// The group measures each task's thread-CPU time and attributes it to the
/// executing worker. After WaitAll():
///   busy_seconds()          — total CPU seconds across all tasks,
///   critical_path_seconds() — max per-worker CPU seconds, i.e. the batch's
///                             wall time on an unloaded machine with this
///                             many cores. The virtual-clock profiler uses
///                             (wall - critical_path) to model multi-core
///                             scaling even on a single-core CI host.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool);
  ~TaskGroup() { WaitAll(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn`.
  void Submit(ThreadPool::Task fn);
  /// Blocks until every submitted task completed.
  void WaitAll();

  /// The pool tasks run on; null when they run inline.
  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_; }
  /// Valid after WaitAll().
  [[nodiscard]] double busy_seconds() const noexcept { return busy_seconds_; }
  [[nodiscard]] double critical_path_seconds() const noexcept {
    return critical_path_seconds_;
  }

 private:
  friend class ThreadPool;
  void OnComplete(std::size_t worker, double cpu_seconds);

  ThreadPool* pool_; // null => inline execution
  WorkerContext inline_context_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::vector<double> worker_busy_; // [workers] + one slot for inline
  double busy_seconds_ = 0;
  double critical_path_seconds_ = 0;
};

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Unlike a wall clock it excludes time the thread spent descheduled, so
/// per-worker sums measure the real division of work even when the host
/// has fewer cores than the pool has workers.
double ThreadCpuSeconds() noexcept;

} // namespace nexus::parallel
