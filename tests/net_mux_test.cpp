// Pipelined RPC multiplexing: out-of-order responses, windowed failure
// isolation, correlation-desync handling, the reader role (no client
// thread of its own), and the one-version rule — all against a live
// loopback nexusd.
//
// These tests pin the PROTOCOL-level behaviors the mux introduced: a
// connection resolves responses by correlation id rather than arrival
// order; a transport failure inside a full window retries only the
// requests that were actually robbed of their response; a desynchronized
// response kills the connection without orphaning its siblings; and a
// frame in any dialect other than kProtocolVersion — a foreign head
// version, or a Get/Put missing its lease byte — is a protocol
// error on whichever side receives it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/cached_backend.hpp"
#include "common/bytes.hpp"
#include "net/fault.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"

namespace nexus {
namespace {

using net::NexusdOptions;
using net::NexusdServer;
using net::RemoteBackend;
using net::RemoteBackendOptions;

Bytes Blob(char fill, std::size_t n) { return Bytes(n, static_cast<std::uint8_t>(fill)); }

// ---- server-side gate ------------------------------------------------------

// Wraps a MemBackend (which is final) and blocks Get() on selected names
// until released — lets a test hold one RPC open server-side while its
// connection keeps serving others.
class GateBackend final : public storage::StorageBackend {
 public:
  /// Blocks every Get whose name is `gated` until Release(); Gets arriving
  /// before Release() count as waiters (WaitForWaiters observes them).
  explicit GateBackend(std::string gated) : gated_(std::move(gated)) {}

  Result<Bytes> Get(const std::string& name) override {
    if (name == gated_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++waiters_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return inner_.Get(name);
  }
  Status Put(const std::string& name, ByteSpan data) override {
    return inner_.Put(name, data);
  }
  Status Delete(const std::string& name) override { return inner_.Delete(name); }
  bool Exists(const std::string& name) override { return inner_.Exists(name); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }

  /// Blocks until `n` Gets of the gated name are parked inside the server.
  void WaitForWaiters(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiters_ >= n; });
  }
  void Release() {
    const std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  storage::MemBackend& inner() { return inner_; }

 private:
  storage::MemBackend inner_;
  std::string gated_;
  std::mutex mu_;
  std::condition_variable cv_;
  int waiters_ = 0;
  bool released_ = false;
};

// ---- client-side response tampering ----------------------------------------

// Watches outgoing requests for a Get of `victim` and swallows exactly one
// response carrying its correlation id. State is shared across reconnects
// so the retry's response passes through.
class DropVictimResponse final : public net::Transport {
 public:
  struct Shared {
    std::mutex mu;
    std::uint64_t victim_corr = 0;
    bool armed = false;
    bool dropped = false;
  };

  DropVictimResponse(std::unique_ptr<net::Transport> inner,
                     std::shared_ptr<Shared> shared, std::string victim)
      : inner_(std::move(inner)),
        shared_(std::move(shared)),
        victim_(std::move(victim)) {}

  Status SendFrame(ByteSpan payload) override {
    Reader reader(payload);
    std::uint64_t corr = 0;
    const auto rpc = net::ParseRequestHead(reader, &corr);
    if (rpc.ok() && rpc.value() == net::Rpc::kGet) {
      const auto name = reader.Str();
      if (name.ok() && name.value() == victim_) {
        const std::lock_guard<std::mutex> lock(shared_->mu);
        if (!shared_->dropped) {
          shared_->victim_corr = corr;
          shared_->armed = true;
        }
      }
    }
    return inner_->SendFrame(payload);
  }

  Result<Bytes> RecvFrame() override {
    for (;;) {
      auto frame = inner_->RecvFrame();
      if (!frame.ok()) return frame;
      {
        const std::lock_guard<std::mutex> lock(shared_->mu);
        if (shared_->armed && !shared_->dropped &&
            net::ResponseCorrelation(frame.value()) == shared_->victim_corr) {
          shared_->dropped = true;
          continue; // the one stolen response; everything else flows
        }
      }
      return frame;
    }
  }

  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::shared_ptr<Shared> shared_;
  std::string victim_;
};

// Once armed (two Gets seen on the wire), overwrites the correlation id of
// the next response with an id no request ever used — the demux must treat
// the stream as desynchronized and fail the whole connection.
class CorruptNextCorrelation final : public net::Transport {
 public:
  struct Shared {
    std::atomic<int> gets_sent{0};
    std::atomic<bool> corrupted{false};
  };

  CorruptNextCorrelation(std::unique_ptr<net::Transport> inner,
                         std::shared_ptr<Shared> shared)
      : inner_(std::move(inner)), shared_(std::move(shared)) {}

  Status SendFrame(ByteSpan payload) override {
    if (net::RequestRpc(payload) == net::Rpc::kGet) shared_->gets_sent++;
    return inner_->SendFrame(payload);
  }

  Result<Bytes> RecvFrame() override {
    auto frame = inner_->RecvFrame();
    if (!frame.ok()) return frame;
    Bytes bytes = std::move(frame).value();
    // Response head: u8 version, u64 correlation. Clobber the correlation
    // once both Gets are known to be in flight.
    if (bytes.size() >= 9 && shared_->gets_sent.load() >= 2 &&
        !shared_->corrupted.exchange(true)) {
      for (std::size_t i = 1; i <= 8; ++i) bytes[i] = 0xFF;
    }
    return bytes;
  }

  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::shared_ptr<Shared> shared_;
};

// ---- out-of-order responses ------------------------------------------------

TEST(NetMux, OutOfOrderRepliesResolveByCorrelation) {
  GateBackend backend("slow");
  ASSERT_TRUE(backend.inner().Put("slow", Blob('s', 512)).ok());
  ASSERT_TRUE(backend.inner().Put("fast", Blob('f', 128)).ok());

  NexusdOptions server_options;
  server_options.rpc_workers = 4;
  auto server = NexusdServer::Start(backend, server_options).value();

  RemoteBackendOptions options;
  options.rpc_window = 4;
  options.max_pooled_connections = 1;
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend& client = *remote.value();

  std::thread slow_reader([&] {
    EXPECT_EQ(client.Get("slow").value(), Blob('s', 512));
  });
  backend.WaitForWaiters(1); // "slow" is parked inside the server

  // The SAME connection answers "fast" while "slow" is still open: the
  // fast response overtakes the slow one and the demux routes each to its
  // caller by correlation id.
  EXPECT_EQ(client.Get("fast").value(), Blob('f', 128));

  backend.Release();
  slow_reader.join();

  EXPECT_EQ(client.counters().retries, 0u);
  // One TCP connection carried everything — overtaking happened inside
  // one multiplexed stream, not across parallel connections.
  EXPECT_EQ(server->stats().connections_accepted, 1u);
  server->Stop();
}

// ---- failure isolation inside a window -------------------------------------

TEST(NetMux, DroppedResponseInFullWindowRetriesOnlyThatRequest) {
  storage::MemBackend backend;
  const std::vector<std::string> names = {"a", "b", "c", "victim"};
  for (const auto& name : names) {
    ASSERT_TRUE(backend.Put(name, Blob(name[0], 256)).ok());
  }

  auto server = NexusdServer::Start(backend).value();

  auto shared = std::make_shared<DropVictimResponse::Shared>();
  RemoteBackendOptions options;
  options.rpc_window = 4;
  options.max_pooled_connections = 1;
  options.sleep_ms = [](int) {}; // don't serve real backoff in a test
  const std::uint16_t port = server->port();
  RemoteBackend client(
      [port, shared]() -> Result<std::unique_ptr<net::Transport>> {
        // Short recv deadline: the demux notices the stolen response fast.
        auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, 250);
        if (!tcp.ok()) return tcp.status();
        return Result<std::unique_ptr<net::Transport>>(
            std::make_unique<DropVictimResponse>(std::move(tcp).value(),
                                                 shared, "victim"));
      },
      options);
  ASSERT_TRUE(client.Ping().ok());

  // Fill the window: four concurrent Gets on one connection, one of which
  // loses its response. The other three must complete from the original
  // connection; only the victim may retry.
  std::vector<std::thread> readers;
  readers.reserve(names.size());
  for (const auto& name : names) {
    readers.emplace_back([&client, name] {
      EXPECT_EQ(client.Get(name).value(), Blob(name[0], 256));
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_TRUE(shared->dropped);
  EXPECT_EQ(client.counters().retries, 1u);    // the victim, nobody else
  EXPECT_EQ(client.counters().reconnects, 1u); // one fresh dial for it
  server->Stop();
}

TEST(NetMux, CorrelationMismatchDropsConnectionWithoutOrphans) {
  GateBackend backend("a"); // barrier below uses WaitForWaiters on "a"
  ASSERT_TRUE(backend.inner().Put("a", Blob('a', 300)).ok());
  ASSERT_TRUE(backend.inner().Put("b", Blob('b', 301)).ok());

  NexusdOptions server_options;
  server_options.rpc_workers = 2;
  auto server = NexusdServer::Start(backend, server_options).value();

  auto shared = std::make_shared<CorruptNextCorrelation::Shared>();
  RemoteBackendOptions options;
  options.rpc_window = 4;
  options.max_pooled_connections = 1;
  options.sleep_ms = [](int) {};
  const std::uint16_t port = server->port();
  RemoteBackend client(
      [port, shared]() -> Result<std::unique_ptr<net::Transport>> {
        auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, 2000);
        if (!tcp.ok()) return tcp.status();
        return Result<std::unique_ptr<net::Transport>>(
            std::make_unique<CorruptNextCorrelation>(std::move(tcp).value(),
                                                     shared));
      },
      options);
  ASSERT_TRUE(client.Ping().ok());

  // Hold "a" open server-side until both Gets are in flight, so the
  // corrupted response provably has a sibling outstanding.
  std::thread reader_a([&] {
    EXPECT_EQ(client.Get("a").value(), Blob('a', 300));
  });
  backend.WaitForWaiters(1);
  std::thread reader_b([&] {
    EXPECT_EQ(client.Get("b").value(), Blob('b', 301));
  });
  while (shared->gets_sent.load() < 2) std::this_thread::yield();
  backend.Release();
  reader_a.join();
  reader_b.join();

  // The poisoned frame killed the connection; BOTH in-flight requests
  // failed over and retried rather than one hanging forever orphaned.
  EXPECT_TRUE(shared->corrupted.load());
  EXPECT_EQ(client.counters().retries, 2u);
  EXPECT_GE(client.counters().reconnects, 1u);
  server->Stop();
}

// ---- concurrent window soak (run under TSan in CI) --------------------------

TEST(NetMux, ConcurrentWindowSoak) {
  storage::MemBackend backend;
  NexusdOptions server_options;
  server_options.rpc_workers = 4;
  auto server = NexusdServer::Start(backend, server_options).value();

  constexpr std::size_t kBudget = 1u << 20;
  RemoteBackendOptions options;
  options.rpc_window = 16;
  options.max_pooled_connections = 2;
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend* raw = remote.value().get();
  cache::CacheOptions cache_options;
  cache_options.mem_budget_bytes = kBudget;
  cache::CachedBackend client(std::move(remote).value(), cache_options);
  EXPECT_TRUE(client.lease_mode()); // loopback leases: the soak covers them

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&client, id] {
      // Private name space per thread: every expectation is deterministic
      // even though all threads share the window.
      std::map<std::string, Bytes> model;
      for (int k = 0; k < kOpsPerThread; ++k) {
        const std::string name =
            "t" + std::to_string(id) + "-" + std::to_string(k % 6);
        switch (k % 4) {
          case 0: {
            Bytes data = Blob(static_cast<char>('A' + id), 64 + k);
            ASSERT_TRUE(client.Put(name, data).ok());
            model[name] = std::move(data);
            break;
          }
          case 1: {
            auto got = client.Get(name);
            const auto it = model.find(name);
            if (it == model.end()) {
              EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
            } else {
              EXPECT_EQ(got.value(), it->second);
            }
            break;
          }
          default:
            EXPECT_EQ(client.Exists(name), model.count(name) == 1);
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const net::NetCounters counters = raw->counters();
  EXPECT_EQ(counters.retries, 0u); // loopback is clean
  EXPECT_GT(counters.rpcs, 0u);
  EXPECT_LE(client.mem_bytes(), kBudget);
  server->Stop();
}

// ---- the reader role --------------------------------------------------------

// The Threads: line of /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// Only waiters read replies, so neither a pooled connection nor a
// streamed put's dedicated one starts a client thread.
TEST(NetMux, ConnectionsAndStreamedPutsStartNoClientThread) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();
  RemoteBackendOptions options;
  options.rpc_window = 4;
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend& client = *remote.value();
  ASSERT_TRUE(client.Put("warm", Blob('w', 16)).ok()); // server side is up

  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<net::MuxConnection>> conns;
  for (int i = 0; i < 4; ++i) {
    auto transport =
        net::TcpTransport::Dial("127.0.0.1", server->port(), 2000, 5000);
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();
    conns.push_back(std::make_unique<net::MuxConnection>(
        std::move(transport).value(), 4));
  }
  auto stream = client.OpenPutStream("streamed");
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  for (char c : {'a', 'b', 'c'}) {
    ASSERT_TRUE(stream.value()->Append(Blob(c, 1000)).ok());
  }
  ASSERT_TRUE(stream.value()->Commit().ok());
  EXPECT_EQ(ProcessThreads(), before);

  Bytes expected = Blob('a', 1000);
  Append(expected, Blob('b', 1000));
  Append(expected, Blob('c', 1000));
  EXPECT_EQ(client.Get("streamed").value(), expected);
  conns.clear();
  server->Stop();
}

// Eight lock-step callers share ONE connection with a window of 4, so
// whoever holds the reader role keeps routing other callers' replies
// before its own. Every reply must reach its own caller byte for byte.
TEST(NetMux, SharedConnectionSoakRoutesEveryReply) {
  storage::MemBackend backend;
  constexpr int kThreads = 8;
  constexpr int kOps = 150;
  // Read-only names, never rewritten.
  const auto fixed = [](int id, int k) {
    return Blob(static_cast<char>('a' + id), 100 + 37 * k);
  };
  for (int id = 0; id < kThreads; ++id) {
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(backend.Put("r" + std::to_string(id) + "-" +
                                  std::to_string(k),
                              fixed(id, k))
                      .ok());
    }
  }
  auto server = NexusdServer::Start(backend).value();

  RemoteBackendOptions options;
  options.rpc_window = 4;
  options.max_pooled_connections = 1;
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend& client = *remote.value();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&client, &fixed, id] {
      std::map<std::string, Bytes> written;
      for (int k = 0; k < kOps; ++k) {
        const std::string own = "w" + std::to_string(id) + "-" +
                                std::to_string(k % 3);
        const std::string shared =
            "r" + std::to_string(id) + "-" + std::to_string(k % 4);
        switch (k % 4) {
          case 0: {
            Bytes data = Blob(static_cast<char>('A' + id), 50 + k);
            ASSERT_TRUE(client.Put(own, data).ok());
            written[own] = std::move(data);
            break;
          }
          case 1:
            if (written.contains(own)) {
              EXPECT_EQ(client.Get(own).value(), written[own]) << own;
            }
            break;
          default:
            EXPECT_EQ(client.Get(shared).value(), fixed(id, k % 4)) << shared;
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(client.counters().retries, 0u);
  EXPECT_EQ(server->stats().connections_accepted, 1u);
  server->Stop();
}

// Hands every transport it dials to the test, which can shut them all
// down at once (Shutdown is safe against in-flight I/O).
class KillableTransports {
 public:
  Result<std::unique_ptr<net::Transport>> Dial(std::uint16_t port) {
    auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, 5000);
    if (!tcp.ok()) return tcp.status();
    return Result<std::unique_ptr<net::Transport>>(
        std::make_unique<Tracked>(std::move(tcp).value(), *this));
  }

  void KillAll() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (net::Transport* t : live_) t->Shutdown();
  }

 private:
  class Tracked final : public net::Transport {
   public:
    Tracked(std::unique_ptr<net::Transport> inner, KillableTransports& owner)
        : inner_(std::move(inner)), owner_(owner) {
      const std::lock_guard<std::mutex> lock(owner_.mu_);
      owner_.live_.insert(this);
    }
    ~Tracked() override {
      const std::lock_guard<std::mutex> lock(owner_.mu_);
      owner_.live_.erase(this);
    }
    Status SendFrame(ByteSpan payload) override {
      return inner_->SendFrame(payload);
    }
    Result<Bytes> RecvFrame() override { return inner_->RecvFrame(); }
    void Close() override { inner_->Close(); }
    void Shutdown() override { inner_->Shutdown(); }

   private:
    std::unique_ptr<net::Transport> inner_;
    KillableTransports& owner_;
  };

  std::mutex mu_;
  std::set<net::Transport*> live_;
};

// Killing the connection under a full window fails the reader and every
// parked follower at once: each op then either retries onto a fresh
// connection and succeeds with its own bytes, or reports the failure —
// none hangs.
TEST(NetMux, KilledTransportReleasesReaderAndFollowers) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();

  KillableTransports transports;
  RemoteBackendOptions options;
  options.rpc_window = 4;
  options.max_pooled_connections = 1;
  options.sleep_ms = [](int) {};
  const std::uint16_t port = server->port();
  RemoteBackend client([&transports, port] { return transports.Dial(port); },
                       options);
  ASSERT_TRUE(client.Ping().ok());

  constexpr int kThreads = 8;
  constexpr int kKills = 5;
  std::atomic<bool> stop{false};
  std::atomic<int> ops{0};
  std::atomic<int> finished{0};
  std::atomic<int> failed_ops{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      const std::string name = "k" + std::to_string(id);
      Bytes last;
      // Keep the window busy until every kill has landed.
      for (int k = 0; !stop.load(); ++k, ops.fetch_add(1)) {
        if (k % 2 == 0) {
          Bytes data = Blob(static_cast<char>('A' + id), 40 + k);
          // A failed (or ambiguous) Put may or may not have applied.
          if (client.Put(name, data).ok()) {
            last = std::move(data);
          } else {
            failed_ops.fetch_add(1);
            last.clear();
          }
        } else {
          auto got = client.Get(name);
          if (!got.ok()) {
            EXPECT_EQ(got.status().code(), ErrorCode::kIOError);
            failed_ops.fetch_add(1);
          } else if (!last.empty()) {
            EXPECT_EQ(got.value(), last) << name;
          }
        }
      }
      finished.fetch_add(1);
    });
  }
  for (int kill = 0; kill < kKills; ++kill) {
    const int target = ops.load() + 50;
    while (ops.load() < target) std::this_thread::yield();
    transports.KillAll();
  }
  stop.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < kThreads &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (finished.load() < kThreads) {
    ADD_FAILURE() << "a waiter hung after its transport was killed";
    std::abort(); // the hung threads reference this frame
  }
  for (auto& t : threads) t.join();

  // The kills cost retries, not answers: at least one waiter retried.
  EXPECT_GE(client.counters().retries, 1u);
  EXPECT_LE(failed_ops.load(), ops.load() / 10);
  EXPECT_TRUE(client.Put("after", Blob('z', 8)).ok());
  EXPECT_EQ(client.Get("after").value(), Blob('z', 8));
  server->Stop();
}

// ---- the one-version rule --------------------------------------------------

// Sends one raw request frame on a fresh connection and reports whether
// the daemon answered (true) or closed the connection on it (false).
bool RawRequestAnswered(std::uint16_t port, ByteSpan request) {
  auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, 2000);
  EXPECT_TRUE(tcp.ok()) << tcp.status().ToString();
  if (!tcp.ok()) return false;
  EXPECT_TRUE(tcp.value()->SendFrame(request).ok());
  return tcp.value()->RecvFrame().ok();
}

// A head carrying any version but kProtocolVersion kills its connection
// and ticks protocol_errors, exactly like a malformed head; a client on
// the same daemon keeps being served throughout.
TEST(NetMux, ForeignHeadVersionsCloseOnlyTheirConnection) {
  storage::MemBackend backend;
  ASSERT_TRUE(backend.Put("obj", Blob('o', 16)).ok());
  auto server = NexusdServer::Start(backend).value();
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend& client = *remote.value();

  std::uint64_t errors = server->stats().protocol_errors;
  for (const std::uint8_t version :
       {static_cast<std::uint8_t>(net::kProtocolVersion - 1),
        static_cast<std::uint8_t>(net::kProtocolVersion + 1),
        std::uint8_t{2}}) {
    Writer request = net::BeginRequest(net::Rpc::kGet, 7);
    request.Str("obj");
    request.U8(0);
    Bytes frame = request.bytes();
    frame[0] = version;
    EXPECT_FALSE(RawRequestAnswered(server->port(), frame))
        << unsigned{version};
    EXPECT_EQ(server->stats().protocol_errors, ++errors) << unsigned{version};
    EXPECT_EQ(client.Get("obj").value(), Blob('o', 16)) << unsigned{version};
  }

  // The same frame in the one version is served.
  Writer native = net::BeginRequest(net::Rpc::kGet, 8);
  native.Str("obj");
  native.U8(0);
  EXPECT_TRUE(RawRequestAnswered(server->port(), native.bytes()));
  EXPECT_EQ(server->stats().protocol_errors, errors);
  server->Stop();
}

// The want-lease byte on Get and Put requests is a required
// field: a request that ends before it is malformed.
TEST(NetMux, RequestsMissingLeaseByteAreProtocolErrors) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();

  Writer get = net::BeginRequest(net::Rpc::kGet);
  get.Str("obj");
  Writer put = net::BeginRequest(net::Rpc::kPut);
  put.Str("obj");
  put.Var(Blob('p', 8));

  std::uint64_t errors = server->stats().protocol_errors;
  for (const Writer* request : {&get, &put}) {
    EXPECT_FALSE(RawRequestAnswered(server->port(), request->bytes()))
        << net::RpcName(net::RequestRpc(request->bytes()));
    EXPECT_EQ(server->stats().protocol_errors, ++errors);
  }
  EXPECT_FALSE(backend.Exists("obj")); // the lease-less Put never applied
  server->Stop();
}

// A kGetHead request carries a name and a u32 max; a frame that ends
// before the max, or asks for more than kMaxObjectBytes, closes only its
// own connection. A client on the same daemon keeps reading heads.
TEST(NetMux, MalformedGetHeadClosesOnlyItsConnection) {
  storage::MemBackend backend;
  ASSERT_TRUE(backend.Put("obj", Blob('o', 64)).ok());
  auto server = NexusdServer::Start(backend).value();
  auto remote = RemoteBackend::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteBackend& client = *remote.value();

  Writer no_max = net::BeginRequest(net::Rpc::kGetHead);
  no_max.Str("obj");
  Writer huge_max = net::BeginRequest(net::Rpc::kGetHead);
  huge_max.Str("obj");
  huge_max.U32(static_cast<std::uint32_t>(net::kMaxObjectBytes + 1));

  std::uint64_t errors = server->stats().protocol_errors;
  for (const Writer* request : {&no_max, &huge_max}) {
    EXPECT_FALSE(RawRequestAnswered(server->port(), request->bytes()));
    EXPECT_EQ(server->stats().protocol_errors, ++errors);
    const auto head = client.GetHead("obj", 4);
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    EXPECT_EQ(head.value().size, 64u);
    EXPECT_EQ(head.value().prefix, Blob('o', 4));
  }

  Writer native = net::BeginRequest(net::Rpc::kGetHead);
  native.Str("obj");
  native.U32(4);
  EXPECT_TRUE(RawRequestAnswered(server->port(), native.bytes()));
  EXPECT_EQ(server->stats().protocol_errors, errors);
  server->Stop();
}

// The head reply comes from the untrusted store: one whose prefix does
// not match its claimed size fails the call on the client.
class ShrinkHeadSize final : public net::Transport {
 public:
  explicit ShrinkHeadSize(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  Status SendFrame(ByteSpan payload) override {
    if (net::RequestRpc(payload) == net::Rpc::kGetHead) {
      const std::lock_guard<std::mutex> lock(mu_);
      targets_.insert(net::RequestCorrelation(payload));
    }
    return inner_->SendFrame(payload);
  }

  Result<Bytes> RecvFrame() override {
    auto frame = inner_->RecvFrame();
    if (!frame.ok()) return frame;
    Bytes bytes = std::move(frame).value();
    const std::lock_guard<std::mutex> lock(mu_);
    // An OK head: version, correlation, code, empty message, then the u64
    // size at offset 14 — claim one byte.
    if (targets_.erase(net::ResponseCorrelation(bytes)) > 0) {
      for (std::size_t i = 14; i < 22; ++i) bytes[i] = i == 14 ? 1 : 0;
    }
    return bytes;
  }

  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::mutex mu_;
  std::set<std::uint64_t> targets_;
};

TEST(NetMux, HeadReplyLongerThanItsSizeFailsOnTheClient) {
  storage::MemBackend backend;
  ASSERT_TRUE(backend.Put("obj", Blob('o', 16)).ok());
  auto server = NexusdServer::Start(backend).value();
  RemoteBackendOptions options;
  options.max_attempts = 1;
  const std::uint16_t port = server->port();
  RemoteBackend client(
      [port]() -> Result<std::unique_ptr<net::Transport>> {
        auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, 2000);
        if (!tcp.ok()) return tcp.status();
        return Result<std::unique_ptr<net::Transport>>(
            std::make_unique<ShrinkHeadSize>(std::move(tcp).value()));
      },
      options);

  EXPECT_FALSE(client.GetHead("obj", 8).ok());
  // A zero-byte head has no prefix to disagree with the size.
  const auto bare = client.GetHead("obj", 0);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare.value().size, 1u);
  EXPECT_EQ(client.counters().retries, 0u);
  server->Stop();
}

// Client side of the same rule: the lease byte on a Get reply and a Put
// reply comes from the untrusted store, and
// a reply without it fails the call instead of decoding as a lease-less
// dialect.
class StripReplyLeaseByte final : public net::Transport {
 public:
  explicit StripReplyLeaseByte(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  Status SendFrame(ByteSpan payload) override {
    const net::Rpc rpc = net::RequestRpc(payload);
    if (rpc == net::Rpc::kGet || rpc == net::Rpc::kPut) {
      const std::lock_guard<std::mutex> lock(mu_);
      targets_.insert(net::RequestCorrelation(payload));
    }
    return inner_->SendFrame(payload);
  }

  Result<Bytes> RecvFrame() override {
    auto frame = inner_->RecvFrame();
    if (!frame.ok()) return frame;
    Bytes bytes = std::move(frame).value();
    const std::lock_guard<std::mutex> lock(mu_);
    // Every targeted reply here is OK and ends in its lease byte.
    if (targets_.erase(net::ResponseCorrelation(bytes)) > 0) bytes.pop_back();
    return bytes;
  }

  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::mutex mu_;
  std::set<std::uint64_t> targets_;
};

TEST(NetMux, RepliesMissingLeaseByteFailOnTheClient) {
  storage::MemBackend backend;
  ASSERT_TRUE(backend.Put("obj", Blob('o', 16)).ok());
  auto server = NexusdServer::Start(backend).value();

  RemoteBackendOptions options;
  options.max_attempts = 1;
  const std::uint16_t port = server->port();
  RemoteBackend client(
      [port]() -> Result<std::unique_ptr<net::Transport>> {
        auto tcp = net::TcpTransport::Dial("127.0.0.1", port, 2000, 2000);
        if (!tcp.ok()) return tcp.status();
        return Result<std::unique_ptr<net::Transport>>(
            std::make_unique<StripReplyLeaseByte>(std::move(tcp).value()));
      },
      options);

  EXPECT_FALSE(client.Get("obj").ok());
  EXPECT_FALSE(client.Put("other", Blob('x', 4)).ok());
  // Nothing above is a transport failure: the replies arrived whole and
  // were rejected by the decoder.
  EXPECT_EQ(client.counters().retries, 0u);
  server->Stop();
}

} // namespace
} // namespace nexus
