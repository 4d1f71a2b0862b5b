// Multi-client cache coherence over wire leases, against a live loopback
// nexusd: invalidation pushes give open-to-close consistency between two
// CachedBackend clients, an inner backend that grants no leases bounds
// staleness by a TTL, a dropped invalidation stays TTL-bounded because
// the server kills unresponsive sessions, and a two-client soak holds
// under TSan. Set NEXUS_REMOTE_ADDR=host:port to aim the soak at an
// external daemon instead of the in-process one (CI's two-client smoke).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/cached_backend.hpp"
#include "common/bytes.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"

namespace nexus {
namespace {

using cache::CacheOptions;
using cache::CachedBackend;
using net::NexusdOptions;
using net::NexusdServer;
using net::RemoteBackend;
using net::RemoteBackendOptions;

Bytes Blob(char fill, std::size_t n) {
  return Bytes(n, static_cast<std::uint8_t>(fill));
}

// Huge TTL: any freshness the tests observe is attributable to leases
// and invalidations, never to TTL expiry.
CacheOptions LongTtl() {
  CacheOptions options;
  options.ttl_ms = 600000;
  return options;
}

// A cached client over a RemoteBackend, keeping a raw handle to the
// backend for lease-session introspection.
struct Client {
  RemoteBackend* remote = nullptr;
  std::unique_ptr<CachedBackend> cache;
};

Client MakeClient(std::uint16_t port, CacheOptions cache_options = LongTtl(),
                  RemoteBackendOptions options = {}) {
  auto remote = RemoteBackend::Connect("127.0.0.1", port, options);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  Client c;
  c.remote = remote.value().get();
  c.cache = std::make_unique<CachedBackend>(std::move(remote).value(),
                                            cache_options);
  return c;
}

bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// ---- lease invalidation -----------------------------------------------------

TEST(CacheCoherence, TwoClientInvalidationGivesOpenToCloseConsistency) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();
  Client writer = MakeClient(server->port());
  Client reader = MakeClient(server->port());
  ASSERT_TRUE(writer.cache->lease_mode());
  ASSERT_TRUE(reader.cache->lease_mode());

  // Writer publishes v1: the Put reaches the daemon before it returns.
  ASSERT_TRUE(writer.cache->Put("obj", Blob('1', 128)).ok());

  // Reader "opens" the object: the Get takes a server lease.
  ASSERT_EQ(reader.cache->Get("obj").value(), Blob('1', 128));
  // Re-reads are local — no TTL could save us here (it is 10 minutes).
  const auto before = reader.cache->counters();
  ASSERT_EQ(reader.cache->Get("obj").value(), Blob('1', 128));
  EXPECT_EQ(reader.cache->counters().mem_hits, before.mem_hits + 1);

  // Writer publishes v2. The server must break the reader's lease before
  // the Put completes, so after the push lands the reader's next open
  // sees v2 — without ever waiting out a TTL.
  ASSERT_TRUE(writer.cache->Put("obj", Blob('2', 128)).ok());
  ASSERT_TRUE(WaitFor([&] {
    return reader.cache->counters().invalidations_received >= 1;
  }));
  EXPECT_EQ(reader.cache->Get("obj").value(), Blob('2', 128));

  // The writer's own session is never self-invalidated.
  EXPECT_EQ(writer.cache->counters().invalidations_received, 0u);

  const auto stats = server->stats();
  EXPECT_EQ(stats.lease_sessions, 2u);
  EXPECT_GE(stats.leases_granted, 1u);
  EXPECT_GE(stats.invalidations_sent, 1u);
  EXPECT_EQ(stats.lease_break_timeouts, 0u);

  writer.cache.reset(); // drop lease channels before Stop
  reader.cache.reset();
  server->Stop();
}

TEST(CacheCoherence, DeleteInvalidatesRemoteHolders) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();
  Client writer = MakeClient(server->port());
  Client reader = MakeClient(server->port());

  ASSERT_TRUE(writer.cache->Put("doomed", Blob('d', 64)).ok());
  ASSERT_EQ(reader.cache->Get("doomed").value(), Blob('d', 64));

  ASSERT_TRUE(writer.cache->Delete("doomed").ok());
  ASSERT_TRUE(WaitFor([&] {
    return reader.cache->counters().invalidations_received >= 1;
  }));
  EXPECT_EQ(reader.cache->Get("doomed").status().code(), ErrorCode::kNotFound);

  writer.cache.reset();
  reader.cache.reset();
  server->Stop();
}

TEST(CacheCoherence, StreamCommitInvalidatesRemoteHolders) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();
  Client writer = MakeClient(server->port());
  Client reader = MakeClient(server->port());

  ASSERT_TRUE(writer.cache->Put("s", Blob('1', 64)).ok());
  ASSERT_EQ(reader.cache->Get("s").value(), Blob('1', 64));

  // Streamed replacement publishes atomically at Commit; the commit runs
  // the same lease-break protocol as Put.
  auto stream = writer.cache->OpenPutStream("s");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->Append(Blob('2', 32)).ok());
  ASSERT_TRUE(stream.value()->Append(Blob('2', 32)).ok());
  ASSERT_TRUE(stream.value()->Commit().ok());

  ASSERT_TRUE(WaitFor([&] {
    return reader.cache->counters().invalidations_received >= 1;
  }));
  EXPECT_EQ(reader.cache->Get("s").value(), Blob('2', 64));

  writer.cache.reset();
  reader.cache.reset();
  server->Stop();
}

// ---- lease-less inner backend ----------------------------------------------

// An inner backend that grants no leases — a plain store here, the
// cluster on the benchmark's stack — runs the cache write-through, and
// only the TTL bounds how long a write by another client stays invisible.
TEST(CacheCoherence, LeaselessInnerRunsWriteThroughAndTtl) {
  auto owned = std::make_unique<storage::MemBackend>();
  storage::MemBackend& store = *owned;
  CacheOptions cache_options;
  cache_options.ttl_ms = 100; // short: the only staleness bound left
  CachedBackend cache(std::move(owned), cache_options);
  EXPECT_FALSE(cache.lease_mode());

  // Write-through: the object reaches the store before Put returns.
  ASSERT_TRUE(cache.Put("obj", Blob('a', 64)).ok());
  EXPECT_EQ(store.Get("obj").value(), Blob('a', 64));

  // Another writer mutates behind our back (no push can warn us).
  ASSERT_TRUE(store.Put("obj", Blob('b', 64)).ok());
  // Inside the TTL the stale read is permitted...
  EXPECT_EQ(cache.Get("obj").value(), Blob('a', 64));
  // ...and past it the cache re-fetches: staleness is bounded by ttl_ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(cache.Get("obj").value(), Blob('b', 64));
}

// ---- fault: dropped invalidations -------------------------------------------

// Lease channel that swallows every server-pushed kInvalidate frame: the
// client never sees (or acks) the push, modeling a wedged callback path.
class BlackholeTransport final : public net::Transport {
 public:
  explicit BlackholeTransport(std::unique_ptr<net::TcpTransport> inner)
      : inner_(std::move(inner)) {}

  Status SendFrame(ByteSpan payload) override {
    return inner_->SendFrame(payload);
  }
  Result<Bytes> RecvFrame() override {
    for (;;) {
      auto frame = inner_->RecvFrame();
      if (!frame.ok()) return frame;
      Reader reader(frame.value());
      auto rpc = net::ParseRequestHead(reader);
      if (rpc.ok() && rpc.value() == net::Rpc::kInvalidate) continue; // eat it
      return frame;
    }
  }
  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<net::TcpTransport> inner_;
};

TEST(CacheCoherence, DroppedInvalidationIsBoundedByTtlAfterSessionKill) {
  storage::MemBackend backend;
  NexusdOptions server_options;
  server_options.lease_break_ms = 100; // unresponsive holders die fast
  auto server = NexusdServer::Start(backend, server_options).value();

  RemoteBackendOptions reader_options;
  const std::uint16_t port = server->port();
  reader_options.lease_transport_factory =
      [port]() -> Result<std::unique_ptr<net::Transport>> {
    auto dialed = net::TcpTransport::Dial("127.0.0.1", port, 5000, -1);
    if (!dialed.ok()) return dialed.status();
    return std::unique_ptr<net::Transport>(
        new BlackholeTransport(std::move(dialed).value()));
  };
  CacheOptions reader_cache_options;
  reader_cache_options.ttl_ms = 200;
  Client reader = MakeClient(port, reader_cache_options, reader_options);
  Client writer = MakeClient(port);
  ASSERT_TRUE(reader.cache->lease_mode());

  ASSERT_TRUE(writer.cache->Put("obj", Blob('1', 64)).ok());
  ASSERT_EQ(reader.cache->Get("obj").value(), Blob('1', 64)); // leased

  // The push vanishes into the blackhole; the writer's Put still
  // completes within lease_break_ms because the server kills the
  // unresponsive session rather than wait forever.
  const auto put_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(writer.cache->Put("obj", Blob('2', 64)).ok());
  const auto put_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - put_start)
                          .count();
  EXPECT_LT(put_ms, 5000); // bounded, not a hang

  ASSERT_TRUE(WaitFor([&] { return server->stats().lease_break_timeouts >= 1; }));
  // Session death demotes the reader's leased entries to TTL-clean, so the
  // stale value survives AT MOST ttl_ms; after that the fresh value wins.
  ASSERT_TRUE(WaitFor([&] {
    auto got = reader.cache->Get("obj");
    return got.ok() && got.value() == Blob('2', 64);
  }, 3000));

  reader.cache.reset();
  writer.cache.reset();
  server->Stop();
}

// A Put that must break a lease waits up to lease_break_ms for the
// holder's ack. nexusd runs a MemBackend's handlers on its loop thread,
// but never that one: while the writer waits on a holder that will never
// answer, a third client is still served promptly.
TEST(CacheCoherence, LeaseBreakWaitStaysOffTheServeLoop) {
  storage::MemBackend backend;
  NexusdOptions server_options;
  server_options.lease_break_ms = 1000;
  auto server = NexusdServer::Start(backend, server_options).value();

  RemoteBackendOptions reader_options;
  const std::uint16_t port = server->port();
  reader_options.lease_transport_factory =
      [port]() -> Result<std::unique_ptr<net::Transport>> {
    auto dialed = net::TcpTransport::Dial("127.0.0.1", port, 5000, -1);
    if (!dialed.ok()) return dialed.status();
    return std::unique_ptr<net::Transport>(
        new BlackholeTransport(std::move(dialed).value()));
  };
  Client reader = MakeClient(port, LongTtl(), reader_options);
  Client writer = MakeClient(port);
  ASSERT_TRUE(reader.cache->lease_mode());
  ASSERT_TRUE(writer.cache->Put("obj", Blob('1', 64)).ok());
  ASSERT_EQ(reader.cache->Get("obj").value(), Blob('1', 64)); // leased

  std::thread blocked_writer([&] {
    ASSERT_TRUE(writer.cache->Put("obj", Blob('2', 64)).ok());
  });
  // The push went out: the writer's Put now waits for an ack that the
  // blackhole swallowed.
  ASSERT_TRUE(WaitFor([&] { return server->stats().invalidations_sent >= 1; }));

  const auto start = std::chrono::steady_clock::now();
  auto third = RemoteBackend::Connect("127.0.0.1", port);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ASSERT_TRUE(third.value()->Put("other", Blob('o', 32)).ok());
  EXPECT_EQ(third.value()->Get("other").value(), Blob('o', 32));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 300) << "the lease break blocked the serve loop";
  EXPECT_EQ(server->stats().lease_break_timeouts, 0u); // still waiting

  blocked_writer.join();
  reader.cache.reset();
  writer.cache.reset();
  server->Stop();
}

// Lease channels are served by the daemon's one event loop: eight
// subscribed clients, each taking a lease and acking a push, cost the
// daemon no thread, and the gauge stays flat after they all leave.
TEST(CacheCoherence, SubscribedClientsHoldNoServerThread) {
  storage::MemBackend backend;
  NexusdOptions server_options;
  server_options.rpc_workers = 2;
  auto server = NexusdServer::Start(backend, server_options).value();
  const std::uint64_t loop_and_pool = 1 + server_options.rpc_workers;

  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(MakeClient(server->port()));
    ASSERT_TRUE(clients.back().cache->lease_mode());
  }
  EXPECT_EQ(server->stats().lease_sessions, 8u);
  ASSERT_TRUE(clients[0].cache->Put("obj", Blob('1', 64)).ok());
  for (std::size_t i = 1; i < clients.size(); ++i) {
    ASSERT_EQ(clients[i].cache->Get("obj").value(), Blob('1', 64));
  }
  // One push per other client, each acked over its channel.
  ASSERT_TRUE(clients[0].cache->Put("obj", Blob('2', 64)).ok());
  for (std::size_t i = 1; i < clients.size(); ++i) {
    EXPECT_GE(clients[i].cache->counters().invalidations_received, 1u);
  }
  EXPECT_EQ(server->stats().lease_break_timeouts, 0u);
  EXPECT_EQ(server->WireStats().resident_threads, loop_and_pool);

  clients.clear();
  ASSERT_TRUE(WaitFor([&] {
    const auto s = server->stats();
    return s.lease_sessions == 0 && s.active_connections == 0;
  }));
  EXPECT_EQ(server->WireStats().resident_threads, loop_and_pool);
  server->Stop();
}

// ---- two-client soak (run under TSan in CI) ---------------------------------

TEST(CacheCoherence, TwoClientOpenToCloseSoak) {
  // NEXUS_REMOTE_ADDR=host:port points the soak at an external nexusd
  // (CI's cross-process smoke); otherwise an in-process server is used.
  std::unique_ptr<NexusdServer> server;
  storage::MemBackend backend;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  if (const char* addr = std::getenv("NEXUS_REMOTE_ADDR");
      addr != nullptr && *addr != '\0') {
    const std::string spec(addr);
    const auto colon = spec.rfind(':');
    ASSERT_NE(colon, std::string::npos) << "NEXUS_REMOTE_ADDR=" << spec;
    host = spec.substr(0, colon);
    port = static_cast<std::uint16_t>(std::atoi(spec.c_str() + colon + 1));
  } else {
    server = NexusdServer::Start(backend).value();
    port = server->port();
  }

  auto connect = [&] {
    auto remote = RemoteBackend::Connect(host, port);
    EXPECT_TRUE(remote.ok()) << remote.status().ToString();
    return std::make_unique<CachedBackend>(std::move(remote).value(),
                                           LongTtl());
  };
  auto a = connect();
  auto b = connect();
  ASSERT_TRUE(a->lease_mode());
  ASSERT_TRUE(b->lease_mode());

  // Each client alternates open-to-close sessions on a shared name set:
  // open = Get, then a written-through Put. Values are self-describing
  // (fill byte = client id, length encodes the round) so any read must
  // observe SOME complete committed value — torn or fabricated bytes fail.
  constexpr int kRounds = 60;
  constexpr int kNames = 4;
  auto run = [&](CachedBackend& mine, char id) {
    for (int r = 0; r < kRounds; ++r) {
      const std::string name = "soak" + std::to_string(r % kNames);
      auto got = mine.Get(name);
      if (got.ok()) {
        ASSERT_FALSE(got.value().empty());
        const std::uint8_t fill = got.value()[0];
        ASSERT_TRUE(fill == 'A' || fill == 'B') << int{fill};
        ASSERT_EQ(got.value(),
                  Bytes(got.value().size(), fill)); // whole, never torn
      } else {
        ASSERT_EQ(got.status().code(), ErrorCode::kNotFound);
      }
      ASSERT_TRUE(mine.Put(name, Blob(id, 64 + (r % 16))).ok());
    }
  };
  std::thread ta([&] { run(*a, 'A'); });
  std::thread tb([&] { run(*b, 'B'); });
  ta.join();
  tb.join();

  // After both closes, the clients converge: one of the two final writes
  // won last-writer-wins, and a fresh read agrees across clients.
  for (int n = 0; n < kNames; ++n) {
    const std::string name = "soak" + std::to_string(n);
    a->DropCleanEntries();
    b->DropCleanEntries();
    const auto va = a->Get(name);
    const auto vb = b->Get(name);
    ASSERT_TRUE(va.ok()) << va.status().ToString();
    ASSERT_TRUE(vb.ok()) << vb.status().ToString();
    EXPECT_EQ(va.value(), vb.value());
  }

  a.reset();
  b.reset();
  if (server) server->Stop();
}

// ---- write leases -----------------------------------------------------------

// The raw protocol surface: PutLeased grants a write lease only to a
// client with a live lease session, and the grant registers the writer
// as holder — a LATER mutation by someone else invalidates it.
TEST(CacheCoherence, PutLeasedGrantsOnlyWithLeaseSession) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();

  auto loner = RemoteBackend::Connect("127.0.0.1", server->port()).value();
  bool granted = true;
  ASSERT_TRUE(loner->PutLeased("obj", Blob('x', 8), &granted).ok());
  EXPECT_FALSE(granted); // no session, no lease

  auto holder = RemoteBackend::Connect("127.0.0.1", server->port()).value();
  std::mutex mu;
  std::vector<std::string> invalidated;
  ASSERT_TRUE(holder->SubscribeInvalidations(
      [&](const std::vector<std::string>& names) {
        const std::lock_guard<std::mutex> lock(mu);
        invalidated.insert(invalidated.end(), names.begin(), names.end());
      },
      [] {}));
  ASSERT_TRUE(holder->PutLeased("obj", Blob('y', 8), &granted).ok());
  EXPECT_TRUE(granted); // subscribed writer gets a write lease

  // The writer's own next mutation does not self-invalidate...
  ASSERT_TRUE(holder->PutLeased("obj", Blob('z', 8), &granted).ok());
  EXPECT_TRUE(granted);
  {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(invalidated.empty());
  }
  // ...but another client's write breaks the holder's write lease.
  ASSERT_TRUE(loner->Put("obj", Blob('w', 8)).ok());
  ASSERT_TRUE(WaitFor([&] {
    const std::lock_guard<std::mutex> lock(mu);
    return !invalidated.empty();
  }));
  {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(invalidated.front(), "obj");
  }

  holder.reset();
  loner.reset();
  server->Stop();
}

// The cache-level payoff: after a write-through Put, the writer HOLDS a
// write lease, so its own copy stays resident and
// re-reads are memory hits — no refetch, no TTL dependence.
TEST(CacheCoherence, WriteLeaseKeepsWriterCopyWarm) {
  storage::MemBackend backend;
  auto server = NexusdServer::Start(backend).value();
  Client writer = MakeClient(server->port());
  Client other = MakeClient(server->port());
  ASSERT_TRUE(writer.cache->lease_mode());

  ASSERT_TRUE(writer.cache->Put("warm", Blob('1', 64)).ok());

  const auto before = writer.cache->counters();
  EXPECT_EQ(writer.cache->Get("warm").value(), Blob('1', 64));
  const auto after = writer.cache->counters();
  EXPECT_EQ(after.mem_hits, before.mem_hits + 1); // served locally
  EXPECT_EQ(after.misses, before.misses);

  // Another client's write still invalidates the writer's copy.
  ASSERT_TRUE(other.cache->Put("warm", Blob('2', 64)).ok());
  ASSERT_TRUE(WaitFor([&] {
    return writer.cache->counters().invalidations_received >= 1;
  }));
  EXPECT_EQ(writer.cache->Get("warm").value(), Blob('2', 64));

  writer.cache.reset();
  other.cache.reset();
  server->Stop();
}

// ---- read savings and the daemon's cache rows -------------------------------

// A warm sequential re-read over the wire costs at least five times fewer
// RPCs than the cold one: the leased entries serve it from memory.
TEST(CacheCoherence, WarmReReadCostsFiveTimesFewerRpcs) {
  constexpr std::uint64_t kObjects = 64;
  storage::MemBackend backend;
  auto name = [](std::uint64_t i) { return "obj-" + std::to_string(i); };
  auto blob = [](std::uint64_t i) {
    return Blob(static_cast<char>('a' + i % 26), 8192);
  };
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(backend.Put(name(i), blob(i)).ok());
  }
  auto server = NexusdServer::Start(backend).value();
  Client client = MakeClient(server->port());
  auto read_all = [&] {
    for (std::uint64_t i = 0; i < kObjects; ++i) {
      EXPECT_EQ(client.cache->Get(name(i)).value(), blob(i)) << i;
    }
  };

  const std::uint64_t base = client.remote->counters().rpcs;
  read_all();
  const std::uint64_t cold = client.remote->counters().rpcs - base;
  read_all();
  const std::uint64_t warm = client.remote->counters().rpcs - base - cold;
  EXPECT_GE(cold, kObjects);
  EXPECT_GE(cold, 5 * std::max<std::uint64_t>(1, warm));
  EXPECT_EQ(client.cache->counters().mem_hits, kObjects);
  client.cache.reset();
  server->Stop();
}

} // namespace
} // namespace nexus
