// Single-threaded readiness loop for the event-driven nexusd.
//
// One Reactor owns one level-triggered epoll instance and a loop thread
// that dispatches readiness callbacks for every registered descriptor.
// nexusd registers its listener plus every nonblocking connection; the
// callbacks never block (handler work that may wait runs on the rpc
// pool), so a single loop thread multiplexes thousands of connections.
//
// Thread model:
//   * Add/Modify/Remove mutate the registration table and are loop-thread
//     only (or before Run() starts). Cross-thread work reaches the loop
//     via Post(), which wakes the loop through a self-pipe.
//   * Post() is safe from any thread and becomes a no-op after Stop() —
//     late completions from worker threads must not resurrect the loop.
//   * Callbacks run on the loop thread, one at a time. A callback may
//     Remove (even its own fd): events already harvested for a removed
//     registration are dropped by a generation check, so a recycled fd
//     number cannot receive a stale event.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "trace/histogram.hpp"

namespace nexus::net {

class Reactor {
 public:
  // Interest / readiness bits. kError is reported even when not requested.
  static constexpr std::uint32_t kRead = 1u << 0;
  static constexpr std::uint32_t kWrite = 1u << 1;
  static constexpr std::uint32_t kError = 1u << 2;

  using EventFn = std::function<void(std::uint32_t ready)>;

  struct Stats {
    std::uint64_t wakeups = 0;    // epoll_wait returns
    std::uint64_t dispatches = 0; // callbacks invoked
  };

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// False when the epoll instance or the wake pipe could not be created;
  /// NexusdServer::Start fails in that case.
  bool ok() const noexcept { return ok_; }

  Status Add(int fd, std::uint32_t interest, EventFn fn);
  Status Modify(int fd, std::uint32_t interest);
  void Remove(int fd);

  /// Enqueues `fn` to run on the loop thread and wakes it. Dropped
  /// silently once Stop() was called.
  void Post(std::function<void()> fn);

  /// Runs the loop on the calling thread until Stop(). Pending posted
  /// tasks are drained once more before returning.
  void Run();

  /// Signals the loop to exit; safe from any thread, idempotent.
  void Stop();

  Stats stats() const;

  /// Wall time spent dispatching one wakeup's readiness batch (the
  /// "loop stall" an unlucky connection can observe).
  const trace::Histogram& dispatch_latency() const noexcept {
    return dispatch_latency_;
  }

 private:
  struct Registration {
    std::uint32_t interest = 0;
    std::uint64_t generation = 0;
    std::shared_ptr<EventFn> fn;
  };

  void DrainPosted();
  bool EpollArm(int fd, std::uint32_t interest, std::uint64_t generation,
                bool add);
  void RunEpoll();

  bool ok_ = false;
  int epoll_fd_ = -1;
  int wake_read_ = -1;  // self-pipe
  int wake_write_ = -1;
  std::uint64_t next_generation_ = 1;
  std::unordered_map<int, Registration> registry_; // loop thread only

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_; // guarded by post_mu_
  bool accepting_posts_ = true;               // guarded by post_mu_
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> dispatches_{0};
  trace::Histogram dispatch_latency_;
};

} // namespace nexus::net
