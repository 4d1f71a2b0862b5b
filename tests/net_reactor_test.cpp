// Event-driven nexusd: the epoll reactor serve loop. Covers its failure
// surface — trickled frames, half-open connections, hundreds of idle
// sockets on a flat thread count — plus buffer-arena accounting and the batched client calls that ride on
// it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"

namespace nexus::net {
namespace {

// TSan multiplies every synchronization cost; shrink the soak dimensions
// so the suite stays green (and fast) under -fsanitize=thread.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

RemoteBackendOptions FastOptions() {
  RemoteBackendOptions options;
  options.max_attempts = 2;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 2;
  options.rpc_deadline_ms = 10000;
  return options;
}

/// Raw nonblocking-free client socket: connects and leaves all framing to
/// the test (slowloris / garbage / half-open scenarios).
int RawDial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

class NetReactorTest : public ::testing::Test {
 protected:
  void StartServer(NexusdOptions options = {}) {
    server_ = NexusdServer::Start(store_, options).value();
    auto client =
        RemoteBackend::Connect("127.0.0.1", server_->port(), FastOptions());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    remote_ = std::move(client).value();
  }

  storage::MemBackend store_;
  std::unique_ptr<NexusdServer> server_;
  std::unique_ptr<RemoteBackend> remote_;
};

TEST_F(NetReactorTest, ReactorServesBasicOpsStreamsAndStats) {
  StartServer();
  ASSERT_TRUE(remote_->Put("a", Bytes{1, 2, 3}).ok());
  EXPECT_EQ(remote_->Get("a").value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(remote_->Exists("a"));
  EXPECT_FALSE(remote_->Exists("b"));
  EXPECT_EQ(remote_->List("").size(), 1u);

  auto stream = remote_->OpenPutStream("streamed").value();
  ASSERT_TRUE(stream->Append(Bytes(1 << 20, 0xAB)).ok());
  ASSERT_TRUE(stream->Append(Bytes(17, 0xCD)).ok());
  ASSERT_TRUE(stream->Commit().ok());
  EXPECT_EQ(remote_->Get("streamed").value().size(), (1u << 20) + 17);

  const ServerStats s = remote_->Stats().value();
  EXPECT_GT(s.epoll_wakeups, 0u);
  EXPECT_GE(s.arena_slabs_high_water, 1u);
  // One frame of this conversation (the 1 MiB append) overflowed a slab.
  EXPECT_GE(s.arena_oversize_frames, 1u);
  // Loop + rpc pool + acceptless reactor: a handful of threads, not one
  // per connection.
  EXPECT_GT(s.resident_threads, 0u);
  EXPECT_GE(s.loop_dispatch_p99_ms, 0.0);
}

// Every request frame leaves the client in one gathered write, so the
// loop wakes about once per lock-step RPC. A client that sent the length
// prefix and the payload as two writes cost it 1.5 to 1.9 per RPC.
TEST_F(NetReactorTest, LockStepRpcsCostAboutOneWakeupEach) {
  StartServer();
  constexpr int kRounds = 200;
  const ServerStats before = remote_->Stats().value();
  for (int i = 0; i < kRounds; ++i) {
    const std::string name = "w" + std::to_string(i % 16);
    const Bytes data(100 + i, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(remote_->Put(name, data).ok());
    ASSERT_EQ(remote_->Get(name).value(), data);
  }
  const ServerStats after = remote_->Stats().value();
  const double rpcs =
      static_cast<double>(after.rpcs_served - before.rpcs_served);
  const double wakeups =
      static_cast<double>(after.epoll_wakeups - before.epoll_wakeups);
  ASSERT_GE(rpcs, 2.0 * kRounds);
  EXPECT_LE(wakeups, 1.1 * rpcs)
      << wakeups << " wakeups for " << rpcs << " rpcs";
}

// A lock-step RPC blocks once on each side: the caller reads its own
// reply off the socket, and nexusd runs a MemBackend's handlers on the
// loop thread that parsed the request. Client and server share this
// process, so its voluntary context switches count both sides: about 2
// per RPC. A handoff to a second thread on either side (a client reader
// thread, a server worker pool) costs about one more.
TEST_F(NetReactorTest, LockStepRpcsCostAboutTwoContextSwitches) {
  StartServer();
  const auto round = [this](int i) {
    const std::string name = "s" + std::to_string(i % 16);
    const Bytes data(64 + i % 64, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(remote_->Put(name, data).ok());
    ASSERT_EQ(remote_->Get(name).value(), data);
  };
  for (int i = 0; i < 100; ++i) round(i); // warm up: dial, arena, caches
  constexpr int kPairs = 2000;
  rusage before{};
  rusage after{};
  ::getrusage(RUSAGE_SELF, &before);
  for (int i = 0; i < kPairs; ++i) round(i);
  ::getrusage(RUSAGE_SELF, &after);
  const double per_rpc =
      static_cast<double>(after.ru_nvcsw - before.ru_nvcsw) / (2.0 * kPairs);
  EXPECT_LE(per_rpc, 2.5) << per_rpc << " voluntary switches per RPC";
}

// A malicious (or glacial) client dribbling a request one byte at a time
// must not stall anyone else: the loop thread never blocks on a partial
// frame, it just parks the connection until more bytes arrive.
TEST_F(NetReactorTest, SlowlorisTrickleDoesNotStallOtherClients) {
  StartServer();
  ASSERT_TRUE(remote_->Put("hot", Bytes{7}).ok());

  Writer ping = BeginRequest(Rpc::kPing, /*correlation=*/1);
  Bytes wire;
  const std::uint32_t len = static_cast<std::uint32_t>(ping.bytes().size());
  wire.push_back(static_cast<std::uint8_t>(len & 0xff));
  wire.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  wire.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  wire.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  wire.insert(wire.end(), ping.bytes().begin(), ping.bytes().end());

  const int slow = RawDial(server_->port());
  ASSERT_GE(slow, 0);
  std::atomic<bool> done{false};
  std::thread trickler([&] {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      if (!SendAll(slow, wire.data() + i, 1)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
  });

  // While the trickle crawls, a healthy client hammers the daemon.
  int served = 0;
  while (!done.load()) {
    ASSERT_EQ(remote_->Get("hot").value(), Bytes{7});
    ++served;
  }
  trickler.join();
  EXPECT_GT(served, 10);

  // The trickled ping, once complete, still gets its reply.
  char buf[256];
  ssize_t got = 0;
  while (got < 4) {
    const ssize_t n = ::recv(slow, buf + got, sizeof(buf) - got, 0);
    ASSERT_GT(n, 0) << "trickled connection never got its pong";
    got += n;
  }
  ::close(slow);
}

// Half-open connections (connected, never a byte sent) cost the reactor a
// registry slot — not a thread, not a buffer slab.
TEST_F(NetReactorTest, HalfOpenConnectionsDoNotLeakSlabsOrWedgeTheLoop) {
  StartServer();
  const std::uint64_t slabs_before = remote_->Stats().value().arena_slabs_in_use;

  std::vector<int> idle;
  for (int i = 0; i < 32; ++i) {
    const int fd = RawDial(server_->port());
    ASSERT_GE(fd, 0);
    idle.push_back(fd);
  }
  // connect() returns once the client side of the handshake is done; on a
  // loaded host the server's half can reach the accept queue later. Let
  // the loop accept all 32 before checking that it serves with them parked.
  for (int i = 0; i < 5000; ++i) {
    if (remote_->Stats().value().active_connections >= 32) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The daemon keeps serving with 32 half-open peers parked.
  ASSERT_TRUE(remote_->Put("alive", Bytes{1}).ok());
  EXPECT_EQ(remote_->Get("alive").value(), Bytes{1});
  ServerStats s = remote_->Stats().value();
  EXPECT_GE(s.active_connections, 32u);
  // Idle connections hold no arena slabs (nothing was ever read for them);
  // +1 tolerance for the slab transiently serving this Stats request.
  EXPECT_LE(s.arena_slabs_in_use, slabs_before + 1);

  for (const int fd : idle) ::close(fd);
  // The loop reaps the EOFs; the gauge drains back down.
  for (int i = 0; i < 1000; ++i) {
    if (remote_->Stats().value().active_connections <= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(remote_->Stats().value().active_connections, 4u);
  EXPECT_EQ(remote_->Get("alive").value(), Bytes{1});
}

TEST_F(NetReactorTest, MalformedFrameKillsOnlyItsConnection) {
  StartServer();
  const int bad = RawDial(server_->port());
  ASSERT_GE(bad, 0);
  const Bytes junk = {4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(SendAll(bad, junk.data(), junk.size()));
  char buf[16];
  EXPECT_LE(::recv(bad, buf, sizeof(buf), 0), 0); // dropped, no reply
  ::close(bad);
  for (int i = 0; i < 1000 && server_->stats().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server_->stats().protocol_errors, 1u);
  ASSERT_TRUE(remote_->Put("after", Bytes{1}).ok());
  EXPECT_EQ(remote_->Get("after").value(), Bytes{1});
}

TEST_F(NetReactorTest, OversizedLengthPrefixKillsConnection) {
  StartServer();
  const int bad = RawDial(server_->port());
  ASSERT_GE(bad, 0);
  const std::uint8_t prefix[4] = {0xff, 0xff, 0xff, 0xff}; // ~4 GiB frame
  ASSERT_TRUE(SendAll(bad, prefix, sizeof(prefix)));
  char buf[16];
  EXPECT_LE(::recv(bad, buf, sizeof(buf), 0), 0);
  ::close(bad);
  // The byte stream was garbage, not a protocol error: same silence as
  // the transport layer, and the daemon is unbothered.
  ASSERT_TRUE(remote_->Put("fine", Bytes{2}).ok());
  EXPECT_EQ(remote_->Get("fine").value(), Bytes{2});
}

TEST_F(NetReactorTest, StreamsAbortOnDisconnectUnderReactor) {
  StartServer();
  {
    auto conn =
        TcpTransport::Dial("127.0.0.1", server_->port(), 2000, 2000).value();
    Writer begin = BeginRequest(Rpc::kStreamBegin);
    begin.Str("torn");
    ASSERT_TRUE(conn->SendFrame(begin.bytes()).ok());
    ASSERT_TRUE(conn->RecvFrame().ok());
    // Connection closes here with the stream open.
  }
  for (int i = 0;
       i < 1000 && server_->stats().streams_aborted_on_disconnect == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->stats().streams_aborted_on_disconnect, 1u);
  EXPECT_FALSE(remote_->Exists("torn"));
}

// Many concurrent clients over one reactor loop: correctness under real
// socket interleavings (and, in the TSan build, the lens that pins the
// loop/worker handoff as race-free).
TEST_F(NetReactorTest, ManyConnectionsSoak) {
  NexusdOptions options;
  options.rpc_workers = 4;
  StartServer(options);
  constexpr int kClientsFull = 12, kClientsTsan = 6;
  constexpr int kOpsFull = 40, kOpsTsan = 12;
  const int clients = kTsan ? kClientsTsan : kClientsFull;
  const int ops = kTsan ? kOpsTsan : kOpsFull;

  std::vector<std::thread> threads;
  std::vector<Status> failures(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([this, c, ops, &failures] {
      auto client =
          RemoteBackend::Connect("127.0.0.1", server_->port(), FastOptions());
      if (!client.ok()) {
        failures[c] = client.status();
        return;
      }
      for (int i = 0; i < ops; ++i) {
        const std::string name =
            "c" + std::to_string(c) + "/o" + std::to_string(i);
        const Bytes data(64 + i, static_cast<std::uint8_t>(c + 1));
        if (Status put = client.value()->Put(name, data); !put.ok()) {
          failures[c] = put;
          return;
        }
        auto back = client.value()->Get(name);
        if (!back.ok() || back.value() != data) {
          failures[c] = Error(ErrorCode::kInternal, "bad readback " + name);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < clients; ++c) {
    EXPECT_TRUE(failures[c].ok())
        << "client " << c << ": " << failures[c].ToString();
  }
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

// High-connection smoke: hundreds of idle sockets at a flat thread count.
// NEXUS_C10K_CONNS scales it up in CI (where the fd limit is raised); the
// default stays modest for local runs.
TEST_F(NetReactorTest, HighConnectionCountSmoke) {
  StartServer();
  int conns = 64;
  if (const char* env = std::getenv("NEXUS_C10K_CONNS")) {
    conns = std::max(1, std::atoi(env));
  }
  if (kTsan) conns = std::min(conns, 64);

  const std::uint64_t threads_before =
      remote_->Stats().value().resident_threads;
  std::vector<int> idle;
  idle.reserve(static_cast<std::size_t>(conns));
  for (int i = 0; i < conns; ++i) {
    const int fd = RawDial(server_->port());
    ASSERT_GE(fd, 0) << "dial " << i << " failed (fd limit?)";
    idle.push_back(fd);
  }
  for (int i = 0; i < 2000; ++i) {
    if (server_->stats().active_connections >=
        static_cast<std::uint64_t>(conns)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServerStats s = remote_->Stats().value();
  EXPECT_GE(s.active_connections, static_cast<std::uint64_t>(conns));
  // The whole point: connection count grew by hundreds, thread count by 0.
  EXPECT_EQ(s.resident_threads, threads_before);
  ASSERT_TRUE(remote_->Put("under-load", Bytes{3}).ok());
  EXPECT_EQ(remote_->Get("under-load").value(), Bytes{3});
  for (const int fd : idle) ::close(fd);
}

} // namespace
} // namespace nexus::net
