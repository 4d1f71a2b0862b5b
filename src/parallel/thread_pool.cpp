#include "parallel/thread_pool.hpp"

#include <time.h>

#include <algorithm>

#include "trace/trace.hpp"

namespace nexus::parallel {

double ThreadCpuSeconds() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

// ---- ThreadPool -------------------------------------------------------------

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t n = std::max<std::size_t>(1, workers);
  queues_.resize(n);
  contexts_.resize(n);
  for (std::size_t i = 0; i < n; ++i) contexts_[i].worker_index = i;
  stats_.workers = n;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

PoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ThreadPool::Post(Task fn) {
  Enqueue(Submission{std::move(fn), nullptr});
}

void ThreadPool::Enqueue(Submission s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[next_queue_].push_back(std::move(s));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++queued_;
    stats_.peak_queue_depth = std::max<std::uint64_t>(stats_.peak_queue_depth,
                                                      queued_);
  }
  cv_.notify_one();
}

void ThreadPool::WorkerMain(std::size_t index) {
  WorkerContext& ctx = contexts_[index];
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Submission task;
    bool found = false;
    // Own deque from the back (most recently queued: cache-warm)...
    if (!queues_[index].empty()) {
      task = std::move(queues_[index].back());
      queues_[index].pop_back();
      found = true;
    } else {
      // ...else steal the oldest task from the first non-empty victim.
      for (std::size_t off = 1; off < queues_.size(); ++off) {
        auto& victim = queues_[(index + off) % queues_.size()];
        if (!victim.empty()) {
          task = std::move(victim.front());
          victim.pop_front();
          found = true;
          ++stats_.tasks_stolen;
          break;
        }
      }
    }
    if (found) {
      --queued_;
      ++stats_.tasks_executed;
      lock.unlock();
      const double cpu0 = ThreadCpuSeconds();
      {
        trace::Span task_span("parallel:task", "parallel");
        task.fn(ctx);
      }
      const double cpu = ThreadCpuSeconds() - cpu0;
      if (task.group != nullptr) {
        task.group->OnComplete(index, cpu);
      }
      lock.lock();
      continue;
    }
    if (stop_) return;
    cv_.wait(lock);
  }
}

// ---- TaskGroup --------------------------------------------------------------

TaskGroup::TaskGroup(ThreadPool* pool) : pool_(pool) {
  const std::size_t workers = pool_ != nullptr ? pool_->worker_count() : 0;
  worker_busy_.assign(workers + 1, 0.0); // last slot: inline execution
  inline_context_.worker_index = workers;
}

void TaskGroup::Submit(ThreadPool::Task fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
  }
  if (pool_ == nullptr) {
    // Inline: the serial configuration runs the identical code path, minus
    // the threads. CPU accounting still happens so busy == critical path
    // and the profiler reports zero modeled savings.
    const double cpu0 = ThreadCpuSeconds();
    {
      trace::Span task_span("parallel:task", "parallel");
      fn(inline_context_);
    }
    OnComplete(inline_context_.worker_index, ThreadCpuSeconds() - cpu0);
    return;
  }
  pool_->Enqueue(ThreadPool::Submission{std::move(fn), this});
}

void TaskGroup::OnComplete(std::size_t worker, double cpu_seconds) {
  // Notify while holding the lock: the moment the final completion is
  // observable a waiter may return from WaitAll and destroy this group, so
  // no member (the condition variable included) may be touched after the
  // mutex is released.
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  worker_busy_[worker] += cpu_seconds;
  busy_seconds_ += cpu_seconds;
  critical_path_seconds_ =
      std::max(critical_path_seconds_, worker_busy_[worker]);
  cv_.notify_all();
}

void TaskGroup::WaitAll() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return completed_ == submitted_; });
}

} // namespace nexus::parallel
