#include "reference.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/clock.hpp"

namespace nexus::fullbench {
namespace {

using Message = std::uint64_t[LoopbackReference::kMessageBytes / 8];

bool ReadFull(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool WriteFull(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

void NoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

Result<std::unique_ptr<LoopbackReference>> LoopbackReference::Start() {
  auto ref = std::unique_ptr<LoopbackReference>(new LoopbackReference());
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0) return Error(ErrorCode::kIOError, "reference: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  const bool listening =
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::listen(listener, 1) == 0 &&
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  if (listening) {
    ref->client_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (ref->client_fd_ >= 0 &&
        ::connect(ref->client_fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ref->server_fd_ = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    }
  }
  ::close(listener);
  if (ref->server_fd_ < 0) {
    return Error(ErrorCode::kIOError, "reference: loopback connect failed");
  }
  NoDelay(ref->client_fd_);
  NoDelay(ref->server_fd_);
  ref->echo_ = std::thread([r = ref.get()] { r->Echo(); });
  return ref;
}

LoopbackReference::~LoopbackReference() {
  if (client_fd_ >= 0) ::shutdown(client_fd_, SHUT_RDWR);
  if (echo_.joinable()) echo_.join();
  if (client_fd_ >= 0) ::close(client_fd_);
  if (server_fd_ >= 0) ::close(server_fd_);
}

void LoopbackReference::Echo() {
  Message m;
  while (ReadFull(server_fd_, m, sizeof(m))) {
    // A fixed burst of CPU work per request; the reply carries its result.
    // One dependency chain through every word, so the compiler cannot
    // vectorise it and its length does not depend on the build.
    std::uint64_t x = 0;
    for (int r = 0; r < kMixRounds; ++r) {
      for (std::uint64_t& w : m) {
        x = (x ^ w ^ (x >> 31)) * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(r);
        w = x;
      }
    }
    if (!WriteFull(server_fd_, m, sizeof(m))) return;
  }
}

Result<double> LoopbackReference::Measure() {
  Message m{};
  const std::uint64_t t0 = MonotonicNanos();
  for (int i = 0; i < kRoundTrips; ++i) {
    m[0] = static_cast<std::uint64_t>(i);
    if (!WriteFull(client_fd_, m, sizeof(m)) || !ReadFull(client_fd_, m, sizeof(m))) {
      return Error(ErrorCode::kIOError, "reference: echo failed");
    }
  }
  return static_cast<double>(MonotonicNanos() - t0) * 1e-9 / kRoundTrips;
}

} // namespace nexus::fullbench
