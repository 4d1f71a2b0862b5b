// CachedBackend unit tests against a local counting inner store: hit
// serving without inner contact, TTL expiry, write-through order ahead of
// the journal anchor, budget-driven eviction, bounded per-name coherence
// state, fetches raced by local writes, and shared payloads (GetShared
// buffers outlive every mutation of their name, and the AFS layer hands
// up the cache's own buffer). Two clients over a real nexusd live in
// cache_coherence_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/cached_backend.hpp"
#include "common/bytes.hpp"
#include "storage/afs.hpp"
#include "storage/backend.hpp"

namespace nexus {
namespace {

using cache::CacheOptions;
using cache::CachedBackend;

Bytes Blob(char fill, std::size_t n) {
  return Bytes(n, static_cast<std::uint8_t>(fill));
}

// Forwards to a SHARED MemBackend (so a test can outlive one cache
// instance and hand the same store to the next) while counting every
// inner-store contact and recording mutation order.
class CountingBackend final : public storage::StorageBackend {
 public:
  explicit CountingBackend(std::shared_ptr<storage::MemBackend> store)
      : store_(std::move(store)) {}

  Result<Bytes> Get(const std::string& name) override {
    ++gets_;
    Result<Bytes> got = store_->Get(name);
    if (after_read) after_read(name);
    return got;
  }
  Status Put(const std::string& name, ByteSpan data) override {
    ++puts_;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      put_order_.push_back(name);
    }
    return store_->Put(name, data);
  }
  Status Delete(const std::string& name) override {
    ++deletes_;
    return store_->Delete(name);
  }
  bool Exists(const std::string& name) override {
    ++exists_;
    return store_->Exists(name);
  }
  Result<Head> GetHead(const std::string& name,
                       std::size_t max_bytes) override {
    ++heads_;
    return store_->GetHead(name, max_bytes);
  }
  std::vector<std::string> List(const std::string& prefix) override {
    return store_->List(prefix);
  }
  /// Runs inside every Get, after the store was read: a test races the
  /// cache's fetch with its own writes here.
  std::function<void(const std::string& name)> after_read;
  std::atomic<int> gets_{0};
  std::atomic<int> heads_{0};
  std::atomic<int> puts_{0};
  std::atomic<int> deletes_{0};
  std::atomic<int> exists_{0};
  std::vector<std::string> put_order() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return put_order_;
  }

 private:
  std::shared_ptr<storage::MemBackend> store_;
  mutable std::mutex mu_;
  std::vector<std::string> put_order_;
};

struct Harness {
  std::shared_ptr<storage::MemBackend> store =
      std::make_shared<storage::MemBackend>();
  CountingBackend* inner = nullptr; // owned by the cache
  std::shared_ptr<std::atomic<std::uint64_t>> clock_ms =
      std::make_shared<std::atomic<std::uint64_t>>(1);

  std::unique_ptr<CachedBackend> MakeCache(CacheOptions options = {}) {
    auto counting = std::make_unique<CountingBackend>(store);
    inner = counting.get();
    options.now_ms = [clock = clock_ms] { return clock->load(); };
    return std::make_unique<CachedBackend>(std::move(counting), options);
  }
};

// ---- read path --------------------------------------------------------------

TEST(CacheTest, RepeatReadServedWithoutInnerContact) {
  Harness h;
  auto cache = h.MakeCache();

  ASSERT_TRUE(cache->Put("a", Blob('a', 100)).ok());
  // A Put keeps its own bytes; both reads are memory hits.
  EXPECT_EQ(cache->Get("a").value(), Blob('a', 100));
  EXPECT_EQ(cache->Get("a").value(), Blob('a', 100));
  EXPECT_EQ(h.inner->gets_.load(), 0);
  const auto counters = cache->counters();
  EXPECT_EQ(counters.mem_hits, 2u);
  EXPECT_EQ(counters.misses, 0u);
}

// A head read answers from a valid memory entry; on a miss it forwards
// the head read and fills nothing, since a head is not the object.
TEST(CacheTest, HeadReadAnswersFromMemoryOrForwardsWithoutFilling) {
  Harness h;
  auto cache = h.MakeCache();
  const Bytes cold = Blob('c', 1000);
  ASSERT_TRUE(h.store->Put("cold", ByteSpan(cold.data(), cold.size())).ok());

  auto head = cache->GetHead("cold", 4);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().prefix, Blob('c', 4));
  EXPECT_EQ(head.value().size, 1000u);
  EXPECT_EQ(h.inner->heads_.load(), 1);
  EXPECT_EQ(h.inner->gets_.load(), 0);

  EXPECT_EQ(cache->Get("cold").value(), cold); // not filled by the head
  EXPECT_EQ(h.inner->gets_.load(), 1);
  head = cache->GetHead("cold", 2000);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().prefix, cold);
  EXPECT_EQ(head.value().size, 1000u);
  EXPECT_EQ(h.inner->heads_.load(), 1); // served from memory

  EXPECT_EQ(cache->GetHead("missing", 4).status().code(),
            ErrorCode::kNotFound);
}

TEST(CacheTest, TtlExpiryRefetchesFromInner) {
  Harness h;
  CacheOptions options;
  options.ttl_ms = 50;
  auto cache = h.MakeCache(options);

  ASSERT_TRUE(cache->Put("a", Blob('a', 64)).ok());
  EXPECT_EQ(cache->Get("a").value(), Blob('a', 64));
  EXPECT_EQ(h.inner->gets_.load(), 0);

  h.clock_ms->fetch_add(51); // past the TTL
  EXPECT_EQ(cache->Get("a").value(), Blob('a', 64));
  EXPECT_EQ(h.inner->gets_.load(), 1); // expired entry went back to the wire
  EXPECT_EQ(cache->counters().misses, 1u);
}

// ---- write order --------------------------------------------------------------

TEST(CacheTest, JournalBarrierDrainsDirtyDataFirst) {
  Harness h;
  auto cache = h.MakeCache();
  ASSERT_TRUE(h.store->Put("data/1", Blob('o', 64)).ok());

  // Journal ordering: a journal record must never reach the store ahead
  // of the data writes it assumes are durable. Every Put goes through
  // before it returns, so the store sees them in the client's order —
  // here while a fetch of the first name is still in flight.
  h.inner->after_read = [&](const std::string& name) {
    if (name == "data/1") {
      ASSERT_TRUE(cache->Put(name, Blob('d', 64)).ok());
    }
  };
  EXPECT_EQ(cache->Get("data/1").value(), Blob('o', 64)); // what it read
  ASSERT_TRUE(cache->Put("data/2", Blob('e', 64)).ok());
  ASSERT_TRUE(cache->Put("nxj/record-1", Blob('j', 32)).ok());

  const auto order = h.inner->put_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "data/1");
  EXPECT_EQ(order[1], "data/2");
  EXPECT_EQ(order[2], "nxj/record-1"); // the anchor last
  // The overtaken fetch installed nothing: the cache serves the write.
  EXPECT_EQ(cache->Get("data/1").value(), Blob('d', 64));
  EXPECT_EQ(h.inner->gets_.load(), 1);
}

// ---- eviction ---------------------------------------------------------------

TEST(CacheTest, EvictionKeepsMemoryUnderBudget) {
  Harness h;
  CacheOptions options;
  options.mem_budget_bytes = 4096;
  auto cache = h.MakeCache(options);

  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(h.store->Put("o" + std::to_string(i), Blob('o', 1024)).ok());
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(cache->Get("o" + std::to_string(i)).value(), Blob('o', 1024));
  }
  EXPECT_LE(cache->mem_bytes(), 4096u);
  EXPECT_GE(cache->counters().evictions_mem, 12u);
}

// ---- coherence state ----------------------------------------------------------

// A name holds a mutation sequence only while a fetch of it is in
// flight, so a long-running client does not keep a node for every name
// it ever missed or wrote — not even for names whose fetch a local write
// overtook.
TEST(CacheTest, CoherenceStateTracksOnlyNamesInFlight) {
  Harness h;
  CacheOptions options;
  options.ttl_ms = 0; // no entry is ever valid: every Get reaches the store
  auto cache = h.MakeCache(options);
  // Every tenth fetch is overtaken by a local Put of its name.
  h.inner->after_read = [&](const std::string& name) {
    if (name.ends_with('0')) {
      ASSERT_TRUE(cache->Put(name, Blob('r', 16)).ok());
      EXPECT_EQ(cache->inflight_names(), 1u);
    }
  };

  for (int i = 0; i < 10000; ++i) {
    const std::string name = "n" + std::to_string(i);
    ASSERT_TRUE(cache->Put(name, Blob('n', 16)).ok());
    ASSERT_TRUE(cache->Get(name).ok());
  }
  EXPECT_EQ(h.inner->puts_.load(), 11000);
  EXPECT_EQ(h.inner->gets_.load(), 10000);
  EXPECT_FALSE(cache->Get("missing").ok());
  ASSERT_TRUE(cache->Delete("n0").ok());
  EXPECT_EQ(cache->inflight_names(), 0u);
}

TEST(CacheTest, DropCleanEntriesKeepsDirtyData) {
  Harness h;
  auto cache = h.MakeCache();

  ASSERT_TRUE(h.store->Put("clean", Blob('c', 64)).ok());
  EXPECT_EQ(cache->Get("clean").value(), Blob('c', 64));

  cache->DropCleanEntries();
  const int gets_before = h.inner->gets_.load();
  EXPECT_EQ(cache->Get("clean").value(), Blob('c', 64)); // refetched
  EXPECT_EQ(h.inner->gets_.load(), gets_before + 1);
}

// ---- shared payloads ----------------------------------------------------------

// A payload returned by GetShared keeps its bytes through every way the
// cache can drop or replace its entry for that name: a Put, a fetch that
// a local write overtook, a TTL expiry, a stream commit, an eviction and
// a Delete.
TEST(CacheTest, SharedPayloadOutlivesEveryMutationOfItsName) {
  Harness h;
  CacheOptions options;
  options.mem_budget_bytes = 4096;
  options.ttl_ms = 50;
  auto owned = h.MakeCache(options);
  CachedBackend& cache = *owned;

  const Bytes original = Blob('a', 1000);
  ASSERT_TRUE(cache.Put("a", original).ok());
  const SharedBytes held = cache.GetShared("a").value();
  ASSERT_NE(held, nullptr);
  // A hit hands out the very buffer the entry holds.
  EXPECT_EQ(cache.GetShared("a").value().get(), held.get());

  ASSERT_TRUE(cache.Put("a", Blob('b', 1000)).ok());
  EXPECT_EQ(cache.Get("a").value(), Blob('b', 1000));
  EXPECT_EQ(*held, original);

  // Another client's write shows once the entry expires; the refetch is
  // overtaken by a local Put, so it installs nothing.
  const SharedBytes second = cache.GetShared("a").value();
  ASSERT_TRUE(h.store->Put("a", Blob('x', 1000)).ok());
  h.clock_ms->fetch_add(51);
  bool raced = false;
  h.inner->after_read = [&](const std::string&) {
    if (raced) return;
    raced = true;
    ASSERT_TRUE(cache.Put("a", Blob('c', 1000)).ok());
  };
  EXPECT_EQ(cache.Get("a").value(), Blob('x', 1000));
  EXPECT_EQ(cache.Get("a").value(), Blob('c', 1000));
  EXPECT_EQ(*second, Blob('b', 1000));

  const SharedBytes third = cache.GetShared("a").value();
  auto stream = cache.OpenPutStream("a");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->Append(Blob('s', 1000)).ok());
  ASSERT_TRUE(stream.value()->Commit().ok());
  EXPECT_EQ(cache.Get("a").value(), Blob('s', 1000));
  EXPECT_EQ(*third, Blob('c', 1000));
  for (char fill = 'd'; fill < 'k'; ++fill) { // 7 KB through a 4 KB budget
    ASSERT_TRUE(cache.Put(std::string(1, fill), Blob(fill, 1000)).ok());
    ASSERT_TRUE(cache.GetShared(std::string(1, fill)).ok());
  }
  EXPECT_GT(cache.counters().evictions_mem, 0u);
  EXPECT_EQ(*third, Blob('c', 1000));

  ASSERT_TRUE(cache.Delete("a").ok());
  EXPECT_EQ(cache.Get("a").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(*held, original);
  EXPECT_EQ(*second, Blob('b', 1000));
  EXPECT_EQ(*third, Blob('c', 1000));
}

// The same under concurrency: readers hold and check payloads while
// another thread puts, stream-commits, deletes and evicts the same name.
// Every buffer a reader sees is one whole value, and TSan sees no write
// to a buffer after it was handed out.
TEST(CacheTest, SharedPayloadsStayIntactUnderConcurrentMutation) {
  CacheOptions options;
  options.mem_budget_bytes = 8192;
  CachedBackend cache(std::make_unique<storage::MemBackend>(), options);
  ASSERT_TRUE(cache.Put("x", Blob('0', 512)).ok());

  constexpr int kRounds = 300;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  auto whole = [](const Bytes& data) {
    if (data.size() != 512) return false;
    for (const std::uint8_t b : data) {
      if (b != data[0]) return false;
    }
    return true;
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::vector<SharedBytes> held;
      while (!done.load()) {
        auto got = cache.GetShared("x");
        if (!got.ok()) continue; // between a Delete and the next Put
        if (!whole(*got.value())) ++torn;
        held.push_back(std::move(got).value());
        if (held.size() == 16) {
          for (const SharedBytes& h : held) {
            if (!whole(*h)) ++torn;
          }
          held.clear();
        }
      }
    });
  }
  for (int i = 0; i < kRounds; ++i) {
    const char fill = static_cast<char>('a' + i % 26);
    switch (i % 4) {
      case 0: ASSERT_TRUE(cache.Put("x", Blob(fill, 512)).ok()); break;
      case 1: {
        auto stream = cache.OpenPutStream("x");
        ASSERT_TRUE(stream.ok());
        ASSERT_TRUE(stream.value()->Append(Blob(fill, 512)).ok());
        ASSERT_TRUE(stream.value()->Commit().ok());
        break;
      }
      case 2: ASSERT_TRUE(cache.Delete("x").ok()); break;
      case 3: // evict: read 10 KB of new names through the 8 KB budget
        for (int j = 0; j < 20; ++j) {
          const std::string name = "y" + std::to_string(i * 20 + j);
          ASSERT_TRUE(cache.Put(name, Blob(fill, 512)).ok());
          ASSERT_TRUE(cache.GetShared(name).ok());
        }
        ASSERT_TRUE(cache.Put("x", Blob(fill, 512)).ok());
        break;
    }
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(cache.counters().evictions_mem, 0u);
}

// A fetch that a local Delete of its name overtakes (the delete drops
// the entry) returns what it read but installs nothing, so the next read
// goes back to the store and finds the name gone.
TEST(CacheTest, FetchOvertakenByAnInvalidationInstallsNothing) {
  Harness h;
  auto cache = h.MakeCache();
  ASSERT_TRUE(h.store->Put("x", Blob('o', 64)).ok());
  bool raced = false;
  h.inner->after_read = [&](const std::string&) {
    if (raced) return;
    raced = true;
    ASSERT_TRUE(cache->Delete("x").ok());
  };

  EXPECT_EQ(cache->Get("x").value(), Blob('o', 64)); // what the fetch read
  EXPECT_EQ(cache->Get("x").status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(h.store->Put("x", Blob('n', 64)).ok());
  EXPECT_EQ(cache->Get("x").value(), Blob('n', 64));
  EXPECT_EQ(cache->Get("x").value(), Blob('n', 64)); // now a hit
  EXPECT_EQ(cache->counters().misses, 3u);
  EXPECT_EQ(h.inner->gets_.load(), 3);
  EXPECT_EQ(cache->inflight_names(), 0u);
}

// Over AFS, a callback-fresh fetch hands up the cache's own buffer: two
// FetchVersioned calls return one buffer, and it is the one CachedBackend
// holds. Pointer identity, so a copy anywhere on the path fails the test.
TEST(CacheTest, AfsFetchesShareTheCachedBuffer) {
  auto store = std::make_shared<storage::MemBackend>();
  ASSERT_TRUE(store->Put("f", Blob('f', 2048)).ok());
  auto cached = std::make_unique<CachedBackend>(
      std::make_unique<CountingBackend>(store));
  CachedBackend* cache = cached.get();
  storage::SimClock clock;
  storage::AfsServer server(std::move(cached), clock);
  storage::AfsClient client(server, "alice");

  const auto first = client.FetchVersioned("f").value();
  const auto second = client.FetchVersioned("f").value();
  EXPECT_EQ(client.stats().fetches, 1u);
  EXPECT_EQ(client.stats().cache_hits, 1u);
  EXPECT_EQ(first.data.get(), second.data.get());
  EXPECT_EQ(first.data.get(), cache->GetShared("f").value().get());
  EXPECT_EQ(*first.data, Blob('f', 2048));
}

} // namespace
} // namespace nexus
