#include "net/reactor.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include "common/clock.hpp"

namespace nexus::net {

namespace {

Status Errno(const std::string& what) {
  return Error(ErrorCode::kIOError, what + ": " + std::strerror(errno));
}

} // namespace

Reactor::Reactor() {
  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) return;
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0; // generation 0 == the wake pipe
  ok_ = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_, &ev) == 0;
}

Reactor::~Reactor() {
  Stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

bool Reactor::EpollArm(int fd, std::uint32_t interest,
                       std::uint64_t generation, bool add) {
  epoll_event ev{};
  if ((interest & kRead) != 0) ev.events |= EPOLLIN;
  if ((interest & kWrite) != 0) ev.events |= EPOLLOUT;
  // data carries (generation, fd) so stale events for a recycled fd
  // number are dropped by the generation check in RunEpoll.
  ev.data.u64 = (generation << 20) | static_cast<std::uint32_t>(fd & 0xfffff);
  return ::epoll_ctl(epoll_fd_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                     &ev) == 0;
}

Status Reactor::Add(int fd, std::uint32_t interest, EventFn fn) {
  Registration reg;
  reg.interest = interest;
  reg.generation = next_generation_++;
  reg.fn = std::make_shared<EventFn>(std::move(fn));
  if (!EpollArm(fd, interest, reg.generation, /*add=*/true)) {
    return Errno("epoll_ctl add");
  }
  registry_[fd] = std::move(reg);
  return Status::Ok();
}

Status Reactor::Modify(int fd, std::uint32_t interest) {
  auto it = registry_.find(fd);
  if (it == registry_.end()) {
    return Error(ErrorCode::kInvalidArgument, "modify of unregistered fd");
  }
  if (it->second.interest == interest) return Status::Ok();
  it->second.interest = interest;
  if (!EpollArm(fd, interest, it->second.generation, /*add=*/false)) {
    return Errno("epoll_ctl mod");
  }
  return Status::Ok();
}

void Reactor::Remove(int fd) {
  auto it = registry_.find(fd);
  if (it == registry_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  registry_.erase(it);
}

void Reactor::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    if (!accepting_posts_) return;
    posted_.push_back(std::move(fn));
  }
  const std::uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
}

void Reactor::DrainPosted() {
  std::uint8_t buf[256];
  while (::read(wake_read_, buf, sizeof(buf)) > 0) {
  }
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& t : tasks) t();
}

void Reactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    accepting_posts_ = false;
  }
  stop_.store(true, std::memory_order_release);
  const std::uint8_t byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
}

Reactor::Stats Reactor::stats() const {
  Stats s;
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.dispatches = dispatches_.load(std::memory_order_relaxed);
  return s;
}

void Reactor::Run() {
  RunEpoll();
  DrainPosted(); // tasks posted between the last wakeup and Stop()
}

void Reactor::RunEpoll() {
  std::vector<epoll_event> events(256);
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t t0 = MonotonicNanos();
    DrainPosted();
    if (stop_.load(std::memory_order_acquire)) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t data = events[i].data.u64;
      if (data == 0) continue; // wake pipe, drained above
      const int fd = static_cast<int>(data & 0xfffff);
      const std::uint64_t generation = data >> 20;
      auto it = registry_.find(fd);
      // A callback earlier in this batch may have removed (or removed
      // and re-added) this fd; the generation mismatch drops the event.
      if (it == registry_.end() || it->second.generation != generation) {
        continue;
      }
      std::uint32_t ready = 0;
      if ((events[i].events & (EPOLLIN | EPOLLHUP)) != 0) ready |= kRead;
      if ((events[i].events & EPOLLOUT) != 0) ready |= kWrite;
      if ((events[i].events & EPOLLERR) != 0) ready |= kError;
      if (ready == 0) continue;
      // Copy the handler ref: the callback may Remove its own fd, which
      // erases the registry entry while the function is executing.
      auto fn = it->second.fn;
      dispatches_.fetch_add(1, std::memory_order_relaxed);
      (*fn)(ready);
      if (stop_.load(std::memory_order_acquire)) return;
    }
    dispatch_latency_.Record(MonotonicNanos() - t0);
    if (n == static_cast<int>(events.size()) && events.size() < 4096) {
      events.resize(events.size() * 2);
    }
  }
}

} // namespace nexus::net
