// Client-cache freshness across clients, against a live loopback nexusd.
// The cache has one rule: an entry is valid for ttl_ms after it was
// filled or written. So a write, delete or stream commit by one client
// becomes visible to another exactly when the other's entry expires, a
// plain inner store gets the same bound, and a two-client soak holds
// under TSan. Set NEXUS_REMOTE_ADDR=host:port to aim the two-client tests
// at an external daemon instead of the in-process one (CI's two-client
// smoke).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "cache/cached_backend.hpp"
#include "common/bytes.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "storage/backend.hpp"

namespace nexus {
namespace {

using cache::CacheOptions;
using cache::CachedBackend;
using net::NexusdServer;
using net::RemoteBackend;

Bytes Blob(char fill, std::size_t n) {
  return Bytes(n, static_cast<std::uint8_t>(fill));
}

// Huge TTL: nothing the tests observe depends on a real-time expiry.
CacheOptions LongTtl() {
  CacheOptions options;
  options.ttl_ms = 600000;
  return options;
}

// A cached client over a RemoteBackend, keeping a raw handle to the
// backend for its RPC counters.
struct Client {
  RemoteBackend* remote = nullptr;
  std::unique_ptr<CachedBackend> cache;
};

Client MakeClient(std::uint16_t port) {
  auto remote = RemoteBackend::Connect("127.0.0.1", port);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  Client c;
  c.remote = remote.value().get();
  c.cache = std::make_unique<CachedBackend>(std::move(remote).value(),
                                            LongTtl());
  return c;
}

// The daemon the two-client tests share: NEXUS_REMOTE_ADDR=host:port
// names an external nexusd (CI's cross-process smoke); otherwise one is
// started in process over `backend`.
struct Daemon {
  storage::MemBackend backend;
  std::unique_ptr<NexusdServer> server;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  Daemon() {
    if (const char* addr = std::getenv("NEXUS_REMOTE_ADDR");
        addr != nullptr && *addr != '\0') {
      const std::string spec(addr);
      const auto colon = spec.rfind(':');
      EXPECT_NE(colon, std::string::npos) << "NEXUS_REMOTE_ADDR=" << spec;
      host = spec.substr(0, colon);
      port = static_cast<std::uint16_t>(std::atoi(spec.c_str() + colon + 1));
    } else {
      server = NexusdServer::Start(backend).value();
      port = server->port();
    }
  }
  ~Daemon() {
    if (server) server->Stop();
  }

  std::unique_ptr<CachedBackend> Connect(CacheOptions options) const {
    auto remote = RemoteBackend::Connect(host, port);
    EXPECT_TRUE(remote.ok()) << remote.status().ToString();
    return std::make_unique<CachedBackend>(std::move(remote).value(),
                                           std::move(options));
  }
};

// ---- the TTL guarantee across clients ---------------------------------------

// Two caches over one daemon, on one injected clock. B reads; A then
// overwrites, deletes or stream-commits the name. B keeps serving the
// bytes it read until ttl_ms after it read them, and sees A's change at
// ttl_ms: no later, and no sooner. This is the staleness bound DESIGN.md
// §9 states for the stack.
TEST(CacheCoherence, TwoClientStalenessIsBoundedByTtl) {
  constexpr std::uint64_t kTtlMs = 1000;
  auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
  CacheOptions options;
  options.ttl_ms = kTtlMs;
  options.now_ms = [clock] { return clock->load(); };
  Daemon daemon;
  auto a = daemon.Connect(options);
  auto b = daemon.Connect(options);

  const std::string name = "ttl-bound-obj";
  ASSERT_TRUE(a->Put(name, Blob('1', 128)).ok());
  EXPECT_EQ(a->Get(name).value(), Blob('1', 128)); // A's own write: a hit

  // B reads `name` now and A applies `change`. B's reads return `before`
  // until ttl_ms after its read; the read at ttl_ms is returned.
  const auto b_after_ttl = [&](const std::function<void()>& change,
                               const Bytes& before) {
    const std::uint64_t read_at = clock->load();
    EXPECT_EQ(b->Get(name).value(), before);
    change();
    clock->store(read_at + kTtlMs - 1);
    EXPECT_EQ(b->Get(name).value(), before) << "just before ttl_ms";
    clock->store(read_at + kTtlMs);
    return b->Get(name);
  };

  const auto overwrite = [&] {
    ASSERT_TRUE(a->Put(name, Blob('2', 128)).ok());
  };
  EXPECT_EQ(b_after_ttl(overwrite, Blob('1', 128)).value(), Blob('2', 128));

  const auto stream_commit = [&] {
    auto stream = a->OpenPutStream(name);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    ASSERT_TRUE(stream.value()->Append(Blob('3', 64)).ok());
    ASSERT_TRUE(stream.value()->Append(Blob('3', 64)).ok());
    ASSERT_TRUE(stream.value()->Commit().ok());
  };
  EXPECT_EQ(b_after_ttl(stream_commit, Blob('2', 128)).value(),
            Blob('3', 128));

  const auto remove = [&] { ASSERT_TRUE(a->Delete(name).ok()); };
  EXPECT_EQ(b_after_ttl(remove, Blob('3', 128)).status().code(),
            ErrorCode::kNotFound);
}

// ---- a plain inner store ----------------------------------------------------

// Over a plain store (the cluster on the benchmark's stack), too, the
// cache writes through, and the TTL bounds how long a write by another
// client stays invisible.
TEST(CacheCoherence, LeaselessInnerRunsWriteThroughAndTtl) {
  auto owned = std::make_unique<storage::MemBackend>();
  storage::MemBackend& store = *owned;
  CacheOptions cache_options;
  cache_options.ttl_ms = 100; // short: the test waits it out
  CachedBackend cache(std::move(owned), cache_options);

  // Write-through: the object reaches the store before Put returns.
  ASSERT_TRUE(cache.Put("obj", Blob('a', 64)).ok());
  EXPECT_EQ(store.Get("obj").value(), Blob('a', 64));

  // Another writer mutates behind our back (nothing warns the cache).
  ASSERT_TRUE(store.Put("obj", Blob('b', 64)).ok());
  // Inside the TTL the stale read is permitted...
  EXPECT_EQ(cache.Get("obj").value(), Blob('a', 64));
  // ...and past it the cache re-fetches: staleness is bounded by ttl_ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(cache.Get("obj").value(), Blob('b', 64));
}

// ---- two-client soak (run under TSan in CI) ---------------------------------

TEST(CacheCoherence, TwoClientOpenToCloseSoak) {
  Daemon daemon;
  auto a = daemon.Connect(LongTtl());
  auto b = daemon.Connect(LongTtl());

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

  // Once their entries are gone (as at ttl_ms), the clients converge: one
  // of the two final writes won last-writer-wins, and a fresh read agrees
  // across clients.
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
}

// ---- read savings -----------------------------------------------------------

// A warm sequential re-read over the wire costs at least five times fewer
// RPCs than the cold one: the entries, fresh within their TTL, serve it
// from memory.
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
