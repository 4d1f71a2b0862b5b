#include "net/transport.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <sys/uio.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "net/wire.hpp"

namespace nexus::net {

namespace {

Status Errno(const std::string& what) {
  return Error(ErrorCode::kIOError, what + ": " + std::strerror(errno));
}

} // namespace

Result<std::unique_ptr<TcpTransport>> TcpTransport::Dial(
    const std::string& host, std::uint16_t port, int connect_deadline_ms,
    int io_deadline_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error(ErrorCode::kInvalidArgument, "bad address: " + host);
  }

  // Non-blocking connect so the connect deadline is enforceable.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const Status err = Errno("connect to " + host);
    ::close(fd);
    return err;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, connect_deadline_ms > 0 ? connect_deadline_ms : -1);
    if (rc == 0) {
      ::close(fd);
      return Error(ErrorCode::kIOError, "connect deadline exceeded: " + host);
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (rc < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      ::close(fd);
      return Error(ErrorCode::kIOError,
                   "connect failed: " + host + ": " +
                       std::strerror(so_error != 0 ? so_error : errno));
    }
  }
  ::fcntl(fd, F_SETFL, flags); // back to blocking; see the I/O deadline
  return std::make_unique<TcpTransport>(fd, io_deadline_ms);
}

TcpTransport::TcpTransport(int fd, int io_deadline_ms)
    : fd_(fd),
      rbuf_(std::make_unique_for_overwrite<std::uint8_t[]>(kRecvBufferBytes)) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (io_deadline_ms > 0) {
    // The kernel bounds every blocked send and read by the deadline: the
    // call fails with EAGAIN once it has waited that long for progress.
    const timeval tv{io_deadline_ms / 1000, (io_deadline_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
}

TcpTransport::~TcpTransport() { Close(); }

void TcpTransport::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

void TcpTransport::Shutdown() {
  // shutdown(), not close(): the fd number stays ours, so a thread
  // blocked in sendmsg/read on it wakes with EOF instead of racing reuse.
  // The flag keeps RecvFrame from handing out frames already buffered.
  shut_down_.store(true, std::memory_order_release);
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Status TcpTransport::SendGathered(std::size_t frame_len,
                                  std::span<const ByteSpan> parts) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Error(ErrorCode::kIOError, "transport closed");
  std::uint8_t prefix[kFramePrefixBytes];
  EncodeFrameLength(static_cast<std::uint32_t>(frame_len), prefix);
  // Segment 0 is the prefix, segment i > 0 is parts[i - 1].
  const std::size_t segments = parts.size() + 1;
  const auto segment = [&](std::size_t i) {
    return i == 0 ? ByteSpan(prefix, sizeof(prefix)) : parts[i - 1];
  };

  // Cursor: segment `idx`, of which `off` bytes are already written. Each
  // sendmsg gathers up to kBatch non-empty segments from the cursor on.
  constexpr std::size_t kBatch = 64;
  std::size_t idx = 0;
  std::size_t off = 0;
  while (idx < segments) {
    iovec batch[kBatch];
    std::size_t n_iov = 0;
    for (std::size_t i = idx; i < segments && n_iov < kBatch; ++i) {
      const ByteSpan s = segment(i).subspan(i == idx ? off : 0);
      if (s.empty()) continue;
      batch[n_iov++] = iovec{const_cast<std::uint8_t*>(s.data()), s.size()};
    }
    msghdr msg{};
    msg.msg_iov = batch;
    msg.msg_iovlen = n_iov;
    // MSG_NOSIGNAL: a peer reset yields EPIPE instead of killing the
    // process — resets are an expected, retryable event here.
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Error(ErrorCode::kIOError, "send deadline exceeded");
      }
      return Errno("sendmsg");
    }
    // Advance the cursor, skipping every segment that is now complete
    // (empty ones included), so `idx` always rests on unwritten bytes.
    std::size_t advanced = static_cast<std::size_t>(sent);
    while (idx < segments) {
      const std::size_t left = segment(idx).size() - off;
      if (advanced < left) {
        off += advanced;
        break;
      }
      advanced -= left;
      ++idx;
      off = 0;
    }
  }
  return Status::Ok();
}

Status TcpTransport::SendFrame(ByteSpan payload) {
  return SendFrameParts(std::span<const ByteSpan>(&payload, 1));
}

Status TcpTransport::SendFrameParts(std::span<const ByteSpan> parts) {
  std::size_t total = 0;
  for (const ByteSpan& part : parts) total += part.size();
  if (total > kMaxFrameBytes) {
    return Error(ErrorCode::kInvalidArgument, "frame too large");
  }
  return SendGathered(total, parts);
}

Status TcpTransport::SendTruncated(ByteSpan payload, std::size_t keep) {
  const ByteSpan kept = payload.first(std::min(keep, payload.size()));
  const Status sent =
      SendGathered(payload.size(), std::span<const ByteSpan>(&kept, 1));
  // Shutdown, not Close: the peer still observes torn-frame-then-FIN, but
  // the fd survives for any thread currently blocked reading it.
  Shutdown();
  return sent;
}

Result<std::size_t> TcpTransport::ReadSome(int fd, std::uint8_t* data,
                                           std::size_t len) {
  for (;;) {
    const ssize_t n = ::read(fd, data, len);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) {
      return Error(ErrorCode::kIOError, "connection closed by peer");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Error(ErrorCode::kIOError, "recv deadline exceeded");
    }
    if (errno != EINTR) return Errno("recv");
  }
}

Status TcpTransport::Fill(int fd, std::size_t need) {
  if (rbuf_begin_ + need > kRecvBufferBytes) {
    // Not enough room behind the buffered bytes: slide them to the front.
    std::memmove(rbuf_.get(), rbuf_.get() + rbuf_begin_,
                 rbuf_end_ - rbuf_begin_);
    rbuf_end_ -= rbuf_begin_;
    rbuf_begin_ = 0;
  }
  while (rbuf_end_ - rbuf_begin_ < need) {
    NEXUS_ASSIGN_OR_RETURN(
        const std::size_t n,
        ReadSome(fd, rbuf_.get() + rbuf_end_, kRecvBufferBytes - rbuf_end_));
    rbuf_end_ += n;
  }
  return Status::Ok();
}

Result<Bytes> TcpTransport::RecvFrame() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Error(ErrorCode::kIOError, "transport closed");
  if (shut_down_.load(std::memory_order_acquire)) {
    return Error(ErrorCode::kIOError, "transport shut down");
  }
  NEXUS_RETURN_IF_ERROR(Fill(fd, kFramePrefixBytes));
  const std::uint32_t len = DecodeFrameLength(rbuf_.get() + rbuf_begin_);
  if (len > kMaxFrameBytes) {
    // Bound BEFORE allocating: a lying length cannot OOM the client.
    return Error(ErrorCode::kIOError,
                 "oversized frame (" + std::to_string(len) + " bytes)");
  }
  const std::size_t total = kFramePrefixBytes + len;
  if (total <= kRecvBufferBytes) {
    // Nothing is consumed until the whole frame is buffered.
    NEXUS_RETURN_IF_ERROR(Fill(fd, total));
    const std::uint8_t* body = rbuf_.get() + rbuf_begin_ + kFramePrefixBytes;
    Bytes payload(body, body + len);
    rbuf_begin_ += total;
    if (rbuf_begin_ == rbuf_end_) rbuf_begin_ = rbuf_end_ = 0;
    return payload;
  }
  // Longer than the buffer: take what is buffered (all of it belongs to
  // this frame, which outlasts the buffer), then read the remainder
  // straight into the payload, never past the frame's end.
  Bytes payload(len);
  const std::size_t have = rbuf_end_ - rbuf_begin_ - kFramePrefixBytes;
  std::memcpy(payload.data(), rbuf_.get() + rbuf_begin_ + kFramePrefixBytes,
              have);
  rbuf_begin_ = rbuf_end_ = 0;
  for (std::size_t got = have; got < len;) {
    NEXUS_ASSIGN_OR_RETURN(const std::size_t n,
                           ReadSome(fd, payload.data() + got, len - got));
    got += n;
  }
  return payload;
}

} // namespace nexus::net
