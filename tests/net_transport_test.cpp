// Framed transport: the outermost parser of bytes an untrusted store
// controls. Drives TcpTransport's gathered send and buffered receive over
// a socketpair whose far end the test writes byte by byte — frames split
// at every offset, coalesced, empty, larger than the receive buffer, torn
// by EOF, lying about their length, stalled — plus the send deadline that
// keeps a store which stops reading from hanging its client.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "net/remote_backend.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace nexus::net {
namespace {

using Clock = std::chrono::steady_clock;

long ElapsedMs(Clock::time_point since) {
  return static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - since)
                               .count());
}

Bytes Pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 131 + (i >> 8));
  }
  return b;
}

/// Prefix + payload, exactly as the wire carries one frame.
Bytes Framed(const Bytes& payload) {
  Bytes out(kFramePrefixBytes);
  EncodeFrameLength(static_cast<std::uint32_t>(payload.size()), out.data());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool WriteRaw(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Bytes sitting in `fd`'s receive queue, not yet read by anyone.
int Unread(int fd) {
  int n = 0;
  ::ioctl(fd, FIONREAD, &n);
  return n;
}

/// Waits until the reader has pulled everything written so far out of the
/// socket, so the next write reaches it as a separate read.
void AwaitDrained(int fd) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Unread(fd) > 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_EQ(Unread(fd), 0) << "reader never drained the socket";
}

/// A TcpTransport on one end of a stream socketpair; the test owns the
/// other end (`peer`) and writes raw bytes into it.
class Pair {
 public:
  explicit Pair(int io_deadline_ms = 10000) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    transport_fd = fds[0];
    peer = fds[1];
    transport = std::make_unique<TcpTransport>(fds[0], io_deadline_ms);
  }
  ~Pair() {
    transport.reset();
    if (peer >= 0) ::close(peer);
  }
  Pair(const Pair&) = delete;
  Pair& operator=(const Pair&) = delete;

  /// Writes `bytes` on a helper thread (it may exceed the socket buffer).
  std::thread WriteAsync(Bytes bytes) const {
    return std::thread([fd = peer, bytes = std::move(bytes)] {
      WriteRaw(fd, bytes.data(), bytes.size());
    });
  }

  void ClosePeer() {
    ::close(peer);
    peer = -1;
  }

  std::unique_ptr<TcpTransport> transport;
  int transport_fd = -1;
  int peer = -1;
};

TEST(NetTransport, FrameSplitAtEveryByteOffsetRoundTrips) {
  Pair pair;
  const Bytes payload = Pattern(37, 7);
  const Bytes wire = Framed(payload);
  // Offsets 1..3 split the prefix, 4..wire.size()-1 split the payload.
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    auto got = std::async(std::launch::async,
                          [&] { return pair.transport->RecvFrame(); });
    ASSERT_TRUE(WriteRaw(pair.peer, wire.data(), cut));
    AwaitDrained(pair.transport_fd);
    ASSERT_TRUE(WriteRaw(pair.peer, wire.data() + cut, wire.size() - cut));
    auto frame = got.get();
    ASSERT_TRUE(frame.ok()) << "cut " << cut << ": "
                            << frame.status().ToString();
    EXPECT_EQ(frame.value(), payload) << "cut " << cut;
  }
}

TEST(NetTransport, CoalescedFramesAreReturnedOneByOne) {
  Pair pair;
  // ~330 KiB of small frames in one peer write: several buffer refills,
  // with frames straddling every refill boundary.
  std::vector<Bytes> payloads;
  Bytes wire;
  for (int i = 0; i < 3000; ++i) {
    payloads.push_back(Pattern(static_cast<std::size_t>(i % 211), i & 0xff));
    const Bytes framed = Framed(payloads.back());
    wire.insert(wire.end(), framed.begin(), framed.end());
  }
  std::thread writer = pair.WriteAsync(wire);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    auto frame = pair.transport->RecvFrame();
    ASSERT_TRUE(frame.ok()) << "frame " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame.value(), payloads[i]) << "frame " << i;
  }
  writer.join();
}

TEST(NetTransport, ZeroLengthFrames) {
  Pair pair;
  Bytes wire;
  for (const Bytes& p : {Bytes{}, Bytes{}, Bytes{9}, Bytes{}}) {
    const Bytes framed = Framed(p);
    wire.insert(wire.end(), framed.begin(), framed.end());
  }
  ASSERT_TRUE(WriteRaw(pair.peer, wire.data(), wire.size()));
  EXPECT_EQ(pair.transport->RecvFrame().value(), Bytes{});
  EXPECT_EQ(pair.transport->RecvFrame().value(), Bytes{});
  EXPECT_EQ(pair.transport->RecvFrame().value(), Bytes{9});
  EXPECT_EQ(pair.transport->RecvFrame().value(), Bytes{});
}

TEST(NetTransport, FramesAroundTheReceiveBufferSize) {
  Pair pair;
  constexpr std::size_t kBuf = TcpTransport::kRecvBufferBytes;
  // Exactly fills the buffer; one byte over; several buffers long; and a
  // small frame trailing each in the same write, so the large-frame path
  // must stop at its frame's end.
  const std::vector<std::size_t> sizes = {
      kBuf - kFramePrefixBytes, 5, kBuf - kFramePrefixBytes + 1, 6,
      4 * kBuf + 3,             7, 1u << 20,                     0};
  std::vector<Bytes> payloads;
  Bytes wire;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    payloads.push_back(Pattern(sizes[i], static_cast<std::uint8_t>(i)));
    const Bytes framed = Framed(payloads.back());
    wire.insert(wire.end(), framed.begin(), framed.end());
  }
  std::thread writer = pair.WriteAsync(wire);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    auto frame = pair.transport->RecvFrame();
    ASSERT_TRUE(frame.ok()) << "frame " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame.value(), payloads[i]) << "frame " << i;
  }
  writer.join();
}

TEST(NetTransport, EofInsidePrefixIsAnIoError) {
  Pair pair;
  const Bytes wire = Framed(Pattern(10, 1));
  ASSERT_TRUE(WriteRaw(pair.peer, wire.data(), 2));
  pair.ClosePeer();
  auto frame = pair.transport->RecvFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kIOError);
}

TEST(NetTransport, EofInsidePayloadIsAnIoError) {
  // A small frame (assembled in the buffer) and one longer than the
  // buffer (read straight into its payload) both tear cleanly.
  for (const std::size_t size :
       {std::size_t{100}, 3 * TcpTransport::kRecvBufferBytes}) {
    Pair pair;
    const Bytes whole = Framed(Pattern(10, 1));
    const Bytes torn = Framed(Pattern(size, 2));
    Bytes wire = whole;
    wire.insert(wire.end(), torn.begin(), torn.end() - 1);
    std::thread writer = pair.WriteAsync(wire);
    EXPECT_EQ(pair.transport->RecvFrame().value(), Pattern(10, 1));
    writer.join();
    pair.ClosePeer();
    auto frame = pair.transport->RecvFrame();
    ASSERT_FALSE(frame.ok()) << "size " << size;
    EXPECT_EQ(frame.status().code(), ErrorCode::kIOError);
  }
}

TEST(NetTransport, OversizedLengthIsRejectedBeforeReadingOrAllocating) {
  for (const std::uint32_t len :
       {static_cast<std::uint32_t>(kMaxFrameBytes + 1), 0xffffffffu}) {
    // A generous deadline: the rejection must not wait for a payload that
    // never comes, and must not try to allocate `len` bytes (a 4 GiB
    // request would abort under the sanitizers).
    Pair pair(/*io_deadline_ms=*/5000);
    std::uint8_t prefix[kFramePrefixBytes];
    EncodeFrameLength(len, prefix);
    ASSERT_TRUE(WriteRaw(pair.peer, prefix, sizeof(prefix)));
    const auto start = Clock::now();
    auto frame = pair.transport->RecvFrame();
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), ErrorCode::kIOError);
    EXPECT_NE(frame.status().message().find("oversized"), std::string::npos);
    EXPECT_LT(ElapsedMs(start), 2000);
  }
}

TEST(NetTransport, StalledPeerTripsTheReceiveDeadline) {
  // Silent from the start, stalled inside a prefix, stalled inside a
  // payload: each wait is bounded by the deadline.
  for (const std::size_t sent : {std::size_t{0}, std::size_t{3},
                                 std::size_t{50}}) {
    Pair pair(/*io_deadline_ms=*/150);
    const Bytes wire = Framed(Pattern(100, 4));
    ASSERT_TRUE(WriteRaw(pair.peer, wire.data(), sent));
    const auto start = Clock::now();
    auto frame = pair.transport->RecvFrame();
    const long ms = ElapsedMs(start);
    ASSERT_FALSE(frame.ok()) << "sent " << sent;
    EXPECT_EQ(frame.status().code(), ErrorCode::kIOError);
    EXPECT_NE(frame.status().message().find("deadline"), std::string::npos);
    EXPECT_GE(ms, 140);
    EXPECT_LT(ms, 5000);
  }
}

TEST(NetTransport, ShutdownWakesABlockedReader) {
  Pair pair(/*io_deadline_ms=*/-1); // would block forever
  auto got =
      std::async(std::launch::async, [&] { return pair.transport->RecvFrame(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.transport->Shutdown();
  ASSERT_EQ(got.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  auto frame = got.get();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kIOError);
}

TEST(NetTransport, ShutdownDropsBufferedFrames) {
  Pair pair;
  Bytes wire = Framed(Bytes{1});
  const Bytes second = Framed(Bytes{2});
  wire.insert(wire.end(), second.begin(), second.end());
  ASSERT_TRUE(WriteRaw(pair.peer, wire.data(), wire.size()));
  EXPECT_EQ(pair.transport->RecvFrame().value(), Bytes{1});
  ASSERT_EQ(Unread(pair.transport_fd), 0); // the second frame is buffered
  pair.transport->Shutdown();
  auto frame = pair.transport->RecvFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kIOError);
}

TEST(NetTransport, SeededSplitAndCoalescePropertyRoundTrips) {
  constexpr int kFrames = 1000;
  std::mt19937_64 rng(0x6e657875u);
  std::vector<Bytes> payloads;
  Bytes wire;
  for (int i = 0; i < kFrames; ++i) {
    std::size_t size;
    const unsigned pick = static_cast<unsigned>(rng() % 100);
    if (pick < 5) {
      size = 0;
    } else if (pick < 97) {
      size = rng() % 600;
    } else {
      size = rng() % (3 * TcpTransport::kRecvBufferBytes); // may exceed it
    }
    Bytes p(size);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
    const Bytes framed = Framed(p);
    wire.insert(wire.end(), framed.begin(), framed.end());
    payloads.push_back(std::move(p));
  }
  // Cut the stream at random points; between some pieces wait for the
  // reader to drain, so those cuts land as separate reads rather than
  // coalescing in the socket.
  std::vector<std::pair<std::size_t, bool>> pieces; // (length, drain after)
  for (std::size_t off = 0; off < wire.size();) {
    const std::size_t max_len = rng() % 4 == 0 ? 64 * 1024 : 200;
    const std::size_t len =
        std::min<std::size_t>(wire.size() - off, 1 + rng() % max_len);
    pieces.emplace_back(len, rng() % 8 == 0);
    off += len;
  }

  Pair pair;
  std::thread writer([&] {
    std::size_t off = 0;
    for (const auto& [len, drain] : pieces) {
      if (!WriteRaw(pair.peer, wire.data() + off, len)) return;
      off += len;
      if (drain) AwaitDrained(pair.transport_fd);
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    auto frame = pair.transport->RecvFrame();
    ASSERT_TRUE(frame.ok()) << "frame " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame.value(), payloads[i]) << "frame " << i;
  }
  writer.join();
}

TEST(NetTransport, GatheredSendsRoundTripBetweenTransports) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TcpTransport a(fds[0], 10000);
  TcpTransport b(fds[1], 10000);

  // More segments than one sendmsg batch, empty ones among them, and a
  // total far over the socket buffer so writes go out partially.
  std::mt19937_64 rng(42);
  std::vector<Bytes> parts;
  Bytes joined;
  for (int i = 0; i < 300; ++i) {
    parts.push_back(Pattern(i % 7 == 0 ? 0 : rng() % 8000, i & 0xff));
    joined.insert(joined.end(), parts.back().begin(), parts.back().end());
  }
  const std::vector<ByteSpan> spans(parts.begin(), parts.end());
  const Bytes single = Pattern(3 << 20, 9);

  std::thread sender([&] {
    EXPECT_TRUE(a.SendFrameParts(spans).ok());
    EXPECT_TRUE(a.SendFrame(single).ok());
    EXPECT_TRUE(a.SendFrame(Bytes{}).ok());
    EXPECT_TRUE(a.SendFrameParts({}).ok());
  });
  EXPECT_EQ(b.RecvFrame().value(), joined);
  EXPECT_EQ(b.RecvFrame().value(), single);
  EXPECT_EQ(b.RecvFrame().value(), Bytes{});
  EXPECT_EQ(b.RecvFrame().value(), Bytes{});
  sender.join();
}

TEST(NetTransport, EachFrameLeavesInOneWrite) {
  // A seqpacket socket keeps every write a separate record, so each read
  // of the peer returns exactly what one write carried.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds), 0);
  TcpTransport transport(fds[0], 10000);
  const Bytes payload = Pattern(200, 5);
  const std::vector<ByteSpan> parts = {ByteSpan(payload).first(50), {},
                                       ByteSpan(payload).subspan(50)};
  ASSERT_TRUE(transport.SendFrame(payload).ok());
  ASSERT_TRUE(transport.SendFrameParts(parts).ok());
  for (int i = 0; i < 2; ++i) {
    Bytes got(kFramePrefixBytes + payload.size() + 16);
    const ssize_t n = ::read(fds[1], got.data(), got.size());
    ASSERT_EQ(n, static_cast<ssize_t>(kFramePrefixBytes + payload.size()))
        << "frame " << i << " was split across writes";
    got.resize(static_cast<std::size_t>(n));
    EXPECT_EQ(got, Framed(payload));
  }
  ::close(fds[1]);
}

TEST(NetTransport, SendToAPeerThatStopsReadingTripsTheSendDeadline) {
  Pair pair(/*io_deadline_ms=*/200);
  const Bytes big(8u << 20, 0x5a); // far beyond the socket buffers
  const auto start = Clock::now();
  auto send = std::async(std::launch::async,
                         [&] { return pair.transport->SendFrame(big); });
  if (send.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    pair.ClosePeer(); // release the hung sender before failing
    send.wait();
    FAIL() << "SendFrame blocked past its deadline";
  }
  const Status sent = send.get();
  const long ms = ElapsedMs(start);
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), ErrorCode::kIOError);
  EXPECT_NE(sent.message().find("deadline"), std::string::npos);
  EXPECT_GE(ms, 190);
  EXPECT_LT(ms, 5000);
}

/// A TCP listener that accepts every connection and never reads from it:
/// a store that has stopped draining its sockets.
class DeafListener {
 public:
  DeafListener() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      while (!stop_.load()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        if (::poll(&pfd, 1, 20) <= 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        const std::lock_guard<std::mutex> lock(mu_);
        accepted_.push_back(fd);
      }
    });
  }
  ~DeafListener() { CloseAll(); }

  std::uint16_t port() const { return port_; }

  /// Stops accepting and closes every connection (unblocks a hung client).
  void CloseAll() {
    stop_.store(true);
    if (acceptor_.joinable()) acceptor_.join();
    const std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : accepted_) ::close(fd);
    accepted_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::mutex mu_;
  std::vector<int> accepted_;
};

TEST(NetTransport, RemotePutToAStoreThatStopsReadingFailsWithinItsDeadlines) {
  DeafListener store;
  constexpr int kDeadlineMs = 300;
  const std::uint16_t port = store.port();
  TransportFactory factory = [port]() -> Result<std::unique_ptr<Transport>> {
    NEXUS_ASSIGN_OR_RETURN(
        std::unique_ptr<TcpTransport> t,
        TcpTransport::Dial("127.0.0.1", port, 2000, kDeadlineMs));
    return std::unique_ptr<Transport>(std::move(t));
  };
  RemoteBackendOptions options;
  options.max_attempts = 2;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 2;
  options.rpc_deadline_ms = kDeadlineMs;
  RemoteBackend remote(factory, options);

  const Bytes object(32u << 20, 0x77);
  const auto start = Clock::now();
  auto put = std::async(std::launch::async,
                        [&] { return remote.Put("big", object); });
  // An attempt fails once a blocked send has made no progress for a whole
  // deadline; the kernel restarts that wait whenever a little buffer space
  // frees, so one attempt may take a few deadlines. Allow generous slack
  // for sanitizer builds, but not a hang.
  const auto budget = std::chrono::milliseconds(
      options.max_attempts * (kDeadlineMs + options.backoff_cap_ms) + 10000);
  if (put.wait_for(budget) != std::future_status::ready) {
    store.CloseAll(); // release the hung sender before failing
    put.wait();
    FAIL() << "Put blocked past every deadline";
  }
  const Status status = put.get();
  const long ms = ElapsedMs(start);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kIOError) << status.ToString();
  EXPECT_GE(ms, options.max_attempts * kDeadlineMs - 20);
  EXPECT_EQ(remote.counters().retries,
            static_cast<std::uint64_t>(options.max_attempts - 1));
}

} // namespace
} // namespace nexus::net
