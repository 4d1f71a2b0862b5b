// CachedBackend unit tests against a local counting inner store: hit
// serving without inner contact, TTL expiry, writeback coalescing and
// batching, the journal write barrier, disk-tier persistence across
// restart (including crash recovery and MAC tampering), and budget-driven
// eviction, and shared payloads (GetShared buffers outlive every mutation
// of their name, and the AFS layer hands up the cache's own buffer).
// Lease-path behavior against a real nexusd lives in
// cache_coherence_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
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
    return store_->Get(name);
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

std::filesystem::path FreshDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("nexus-cache-" + tag + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// ---- read path --------------------------------------------------------------

TEST(CacheTest, RepeatReadServedWithoutInnerContact) {
  Harness h;
  auto cache = h.MakeCache();
  EXPECT_FALSE(cache->lease_mode()); // local inner cannot push invalidations

  ASSERT_TRUE(cache->Put("a", Blob('a', 100)).ok());
  // TTL mode caches our own write; both reads are memory hits.
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

// ---- writeback --------------------------------------------------------------

TEST(CacheTest, WritebackCoalescesRepeatedPuts) {
  Harness h;
  CacheOptions options;
  options.writeback = CacheOptions::Writeback::kOn;
  auto cache = h.MakeCache(options);

  // Ten writes to one name coalesce to ONE inner Put at flush time.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache->Put("hot", Blob('h', 100 + i)).ok());
  }
  EXPECT_EQ(h.inner->puts_.load(), 0);
  EXPECT_GT(cache->dirty_bytes(), 0u);

  ASSERT_TRUE(cache->Flush().ok());
  EXPECT_EQ(h.inner->puts_.load(), 1);
  EXPECT_EQ(cache->dirty_bytes(), 0u);
  EXPECT_EQ(h.store->Get("hot").value(), Blob('h', 109)); // last write won

  const auto counters = cache->counters();
  EXPECT_EQ(counters.writeback_objects, 1u);
  EXPECT_GE(counters.writeback_batches, 1u);
  EXPECT_GT(counters.dirty_bytes_high_water, 0u);
}

TEST(CacheTest, WritebackFlushesInBatches) {
  Harness h;
  CacheOptions options;
  options.writeback = CacheOptions::Writeback::kOn;
  options.writeback_batch_objects = 4;
  auto cache = h.MakeCache(options);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache->Put("obj" + std::to_string(i), Blob('o', 64)).ok());
  }
  ASSERT_TRUE(cache->Flush().ok());
  EXPECT_EQ(h.inner->puts_.load(), 10);
  const auto counters = cache->counters();
  EXPECT_EQ(counters.writeback_objects, 10u);
  EXPECT_EQ(counters.writeback_batches, 3u); // 4 + 4 + 2
}

TEST(CacheTest, JournalBarrierDrainsDirtyDataFirst) {
  Harness h;
  CacheOptions options;
  options.writeback = CacheOptions::Writeback::kOn;
  auto cache = h.MakeCache(options);

  // PR 1 ordering: a journal record must never reach the store ahead of
  // the data writes it assumes are durable. The nxj/ Put is a barrier.
  ASSERT_TRUE(cache->Put("data/1", Blob('d', 64)).ok());
  ASSERT_TRUE(cache->Put("data/2", Blob('e', 64)).ok());
  EXPECT_EQ(h.inner->puts_.load(), 0); // both parked in the queue
  ASSERT_TRUE(cache->Put("nxj/record-1", Blob('j', 32)).ok());

  const auto order = h.inner->put_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "data/1");
  EXPECT_EQ(order[1], "data/2");
  EXPECT_EQ(order[2], "nxj/record-1"); // barrier last, after the drain
}

TEST(CacheTest, StreamCommitToBarrierNameDrainsFirst) {
  Harness h;
  CacheOptions options;
  options.writeback = CacheOptions::Writeback::kOn;
  auto cache = h.MakeCache(options);

  ASSERT_TRUE(cache->Put("data/1", Blob('d', 64)).ok());
  auto stream = cache->OpenPutStream("nxj/record-2");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->Append(Blob('j', 16)).ok());
  ASSERT_TRUE(stream.value()->Commit().ok());

  const auto order = h.inner->put_order();
  ASSERT_GE(order.size(), 1u);
  EXPECT_EQ(order[0], "data/1"); // drained before the stream published
  EXPECT_TRUE(h.store->Exists("nxj/record-2"));
}

TEST(CacheTest, DeleteOfUnflushedObjectNeverReachesInner) {
  Harness h;
  CacheOptions options;
  options.writeback = CacheOptions::Writeback::kOn;
  auto cache = h.MakeCache(options);

  ASSERT_TRUE(cache->Put("ephemeral", Blob('e', 64)).ok());
  // The object only ever existed in the writeback queue: Delete is Ok even
  // though the inner store reports kNotFound.
  EXPECT_TRUE(cache->Delete("ephemeral").ok());
  ASSERT_TRUE(cache->Flush().ok());
  EXPECT_FALSE(h.store->Exists("ephemeral"));
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

TEST(CacheTest, DirtyEntriesArePinnedAgainstEviction) {
  Harness h;
  CacheOptions options;
  options.writeback = CacheOptions::Writeback::kOn;
  options.mem_budget_bytes = 2048;
  auto cache = h.MakeCache(options);

  // Four dirty KiBs exceed the budget, but unflushed bytes must never be
  // dropped — the budget yields instead.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache->Put("d" + std::to_string(i), Blob('d', 1024)).ok());
  }
  EXPECT_EQ(cache->dirty_bytes(), 4096u);
  ASSERT_TRUE(cache->Flush().ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(h.store->Exists("d" + std::to_string(i)));
  }
}

// ---- disk tier --------------------------------------------------------------

TEST(CacheTest, DiskTierSurvivesRestartAndServesHitsWithoutInner) {
  Harness h;
  const auto dir = FreshDir("restart");
  CacheOptions options;
  options.mem_budget_bytes = 2048; // force demotion of clean entries
  options.disk_dir = dir.string();

  {
    auto cache = h.MakeCache(options);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(cache->Put("r" + std::to_string(i), Blob('r', 1024)).ok());
    }
    // Destructor flushes and persists the MAC'd index.
  }

  auto cache = h.MakeCache(options);
  int disk_served = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string name = "r" + std::to_string(i);
    const int gets_before = h.inner->gets_.load();
    auto got = cache->Get(name);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(got.value(), Blob('r', 1024));
    if (h.inner->gets_.load() == gets_before) ++disk_served;
  }
  EXPECT_GT(disk_served, 0); // restart-surviving hits, no inner contact
  EXPECT_GT(cache->counters().disk_hits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CacheTest, CrashOrphanedDataFilesAreDiscardedOnLoad) {
  Harness h;
  const auto dir = FreshDir("orphan");
  CacheOptions options;
  options.mem_budget_bytes = 1024;
  options.disk_dir = dir.string();

  {
    auto cache = h.MakeCache(options);
    ASSERT_TRUE(cache->Put("kept", Blob('k', 900)).ok());
    ASSERT_TRUE(cache->Put("evictor", Blob('e', 900)).ok()); // demotes "kept"
  }
  // Simulate a crash between a data-file write and the index update: a
  // file the (MAC-verified) index cannot account for appears in the dir.
  const auto orphan = dir / storage::EscapeName("orphan-object");
  std::ofstream(orphan, std::ios::binary) << "stale bytes from a dead write";
  ASSERT_TRUE(std::filesystem::exists(orphan));

  auto cache = h.MakeCache(options);
  EXPECT_FALSE(std::filesystem::exists(orphan)); // recovery deleted it
  // The inner store stays the source of truth for the orphan's name.
  EXPECT_EQ(cache->Get("orphan-object").status().code(), ErrorCode::kNotFound);
  std::filesystem::remove_all(dir);
}

TEST(CacheTest, TamperedIndexDiscardsDiskTier) {
  Harness h;
  const auto dir = FreshDir("tamper");
  CacheOptions options;
  options.mem_budget_bytes = 1024;
  options.disk_dir = dir.string();

  {
    auto cache = h.MakeCache(options);
    ASSERT_TRUE(cache->Put("a", Blob('a', 900)).ok());
    ASSERT_TRUE(cache->Put("b", Blob('b', 900)).ok());
  }
  // Flip one payload byte; the MAC check must reject the whole index.
  const auto index_path = dir / ".cache-index";
  ASSERT_TRUE(std::filesystem::exists(index_path));
  {
    std::fstream f(index_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40); // inside the payload, past the 32-byte MAC
    f.put('\x7f');
  }

  auto cache = h.MakeCache(options);
  EXPECT_EQ(cache->counters().disk_hits, 0u);
  // Reads still succeed — straight from the inner store.
  const int gets_before = h.inner->gets_.load();
  EXPECT_EQ(cache->Get("a").value(), Blob('a', 900));
  EXPECT_EQ(h.inner->gets_.load(), gets_before + 1);
  std::filesystem::remove_all(dir);
}

std::string FileBytes(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

// Mutations between compactions land in the ".cache-log" append-log; the
// base ".cache-index" is NOT rewritten per mutation. A clean shutdown
// compacts: base absorbs the log and the log is truncated to empty.
TEST(CacheTest, AppendLogAbsorbsMutationsWithoutBaseRewrite) {
  Harness h;
  const auto dir = FreshDir("append-log");
  CacheOptions options;
  options.mem_budget_bytes = 1024; // every Put demotes its predecessor
  options.disk_dir = dir.string();

  {
    auto cache = h.MakeCache(options);
    ASSERT_TRUE(cache->Put("a", Blob('a', 900)).ok());
    ASSERT_TRUE(cache->Put("b", Blob('b', 900)).ok()); // demotes "a"
  }
  const auto index_path = dir / ".cache-index";
  const auto log_path = dir / ".cache-log";
  ASSERT_TRUE(std::filesystem::exists(index_path));
  // Clean shutdown compacted: the log holds nothing the base doesn't.
  EXPECT_EQ(std::filesystem::file_size(log_path), 0u);

  {
    auto cache = h.MakeCache(options);
    const std::string base_before = FileBytes(index_path);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(cache->Put("m" + std::to_string(i), Blob('m', 900)).ok());
    }
    // 40 demotions appended records; the base image was left alone.
    EXPECT_EQ(FileBytes(index_path), base_before);
    EXPECT_GT(std::filesystem::file_size(log_path), 0u);
  }
  // Destructor flush = compaction: base rewritten, log reset.
  EXPECT_EQ(std::filesystem::file_size(log_path), 0u);
  std::filesystem::remove_all(dir);
}

// A crash before compaction loses nothing: load-time replay folds the
// append-log's insert/remove records onto the base image, so entries
// only the log knows about are still served from disk.
TEST(CacheTest, CrashBeforeCompactionReplaysAppendLog) {
  Harness h;
  const auto dir = FreshDir("log-replay");
  const auto crash_dir = FreshDir("log-replay-crash");
  CacheOptions options;
  options.mem_budget_bytes = 1024;
  options.disk_dir = dir.string();

  {
    auto cache = h.MakeCache(options);
    ASSERT_TRUE(cache->Put("a", Blob('a', 900)).ok());
    ASSERT_TRUE(cache->Put("b", Blob('b', 900)).ok()); // base gets "a"
  }
  {
    auto cache = h.MakeCache(options);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(cache->Put("m" + std::to_string(i), Blob('m', 900)).ok());
    }
    // Snapshot the dir BEFORE the destructor compacts — this is the
    // exact on-disk state a crash would leave: stale base + live log.
    std::filesystem::copy(dir, crash_dir,
                          std::filesystem::copy_options::recursive);
  }

  Harness fresh; // empty inner store: any successful read proves a disk hit
  CacheOptions crash_options = options;
  crash_options.disk_dir = crash_dir.string();
  auto cache = fresh.MakeCache(crash_options);
  EXPECT_EQ(cache->Get("a").value(), Blob('a', 900));    // from the base
  EXPECT_EQ(cache->Get("m10").value(), Blob('m', 900));  // from the log
  EXPECT_EQ(fresh.inner->gets_.load(), 0);
  EXPECT_GE(cache->counters().disk_hits, 2u);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crash_dir);
}

// A corrupt log record ends the replay at that record: everything the
// base image holds stands, log-only entries after the tear are dropped
// and their data files swept as orphans — reads fall back to the inner
// store instead of serving unverified bytes.
TEST(CacheTest, CorruptLogRecordEndsReplayAtBase) {
  Harness h;
  const auto dir = FreshDir("log-tamper");
  const auto crash_dir = FreshDir("log-tamper-crash");
  CacheOptions options;
  options.mem_budget_bytes = 1024;
  options.disk_dir = dir.string();

  {
    auto cache = h.MakeCache(options);
    ASSERT_TRUE(cache->Put("a", Blob('a', 900)).ok());
    ASSERT_TRUE(cache->Put("b", Blob('b', 900)).ok());
  }
  {
    auto cache = h.MakeCache(options);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(cache->Put("t" + std::to_string(i), Blob('t', 900)).ok());
    }
    std::filesystem::copy(dir, crash_dir,
                          std::filesystem::copy_options::recursive);
  }
  // Flip a byte inside the FIRST record's body: its per-record MAC fails,
  // so the replay trusts nothing in the log.
  {
    std::fstream f(crash_dir / ".cache-log",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(5); // past the u32 length prefix, inside the body
    f.put('\x7f');
  }

  Harness fresh;
  CacheOptions crash_options = options;
  crash_options.disk_dir = crash_dir.string();
  auto cache = fresh.MakeCache(crash_options);
  EXPECT_EQ(cache->Get("a").value(), Blob('a', 900)); // base entry stands
  EXPECT_EQ(fresh.inner->gets_.load(), 0);
  // Log-only entries are gone — and so are their (orphaned) data files.
  EXPECT_EQ(cache->Get("t5").status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(
      std::filesystem::exists(crash_dir / storage::EscapeName("t5")));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crash_dir);
}

TEST(CacheTest, DropCleanEntriesKeepsDirtyData) {
  Harness h;
  CacheOptions options;
  options.writeback = CacheOptions::Writeback::kOn;
  auto cache = h.MakeCache(options);

  ASSERT_TRUE(h.store->Put("clean", Blob('c', 64)).ok());
  EXPECT_EQ(cache->Get("clean").value(), Blob('c', 64));
  ASSERT_TRUE(cache->Put("dirty", Blob('d', 64)).ok());

  cache->DropCleanEntries();
  const int gets_before = h.inner->gets_.load();
  EXPECT_EQ(cache->Get("clean").value(), Blob('c', 64)); // refetched
  EXPECT_EQ(h.inner->gets_.load(), gets_before + 1);
  EXPECT_EQ(cache->Get("dirty").value(), Blob('d', 64)); // still local truth
  ASSERT_TRUE(cache->Flush().ok());
  EXPECT_TRUE(h.store->Exists("dirty"));
}

// ---- shared payloads ----------------------------------------------------------

// A MemBackend that grants read leases and lets the test push
// invalidations, so a cache over it runs in lease mode.
class PushingBackend final : public storage::StorageBackend {
 public:
  Result<Bytes> Get(const std::string& name) override {
    return store_.Get(name);
  }
  Result<Bytes> GetLeased(const std::string& name, bool* granted) override {
    if (granted != nullptr) *granted = true;
    return store_.Get(name);
  }
  Status Put(const std::string& name, ByteSpan data) override {
    return store_.Put(name, data);
  }
  Status Delete(const std::string& name) override {
    return store_.Delete(name);
  }
  bool Exists(const std::string& name) override {
    return store_.Exists(name);
  }
  std::vector<std::string> List(const std::string& prefix) override {
    return store_.List(prefix);
  }
  bool SubscribeInvalidations(InvalidationListener on_invalidate,
                              ChannelDownHandler /*on_channel_down*/) override {
    listener_ = std::move(on_invalidate);
    return true;
  }

  /// Another client's mutation: stores `data` and pushes the invalidation.
  void RemoteWrite(const std::string& name, ByteSpan data) {
    ASSERT_TRUE(store_.Put(name, data).ok());
    listener_({name});
  }

 private:
  storage::MemBackend store_;
  InvalidationListener listener_;
};

// A payload returned by GetShared keeps its bytes through every way the
// cache can drop or replace its entry for that name: a Put, a Delete, a
// pushed invalidation and an eviction.
TEST(CacheTest, SharedPayloadOutlivesEveryMutationOfItsName) {
  auto pushing = std::make_unique<PushingBackend>();
  PushingBackend* inner = pushing.get();
  CacheOptions options;
  options.mem_budget_bytes = 4096;
  options.writeback = CacheOptions::Writeback::kOff;
  CachedBackend cache(std::move(pushing), options);
  ASSERT_TRUE(cache.lease_mode());

  const Bytes original = Blob('a', 1000);
  ASSERT_TRUE(cache.Put("a", original).ok());
  const SharedBytes held = cache.GetShared("a").value();
  ASSERT_NE(held, nullptr);
  // A hit hands out the very buffer the entry holds.
  EXPECT_EQ(cache.GetShared("a").value().get(), held.get());

  ASSERT_TRUE(cache.Put("a", Blob('b', 1000)).ok());
  EXPECT_EQ(cache.Get("a").value(), Blob('b', 1000));
  EXPECT_EQ(*held, original);

  const SharedBytes second = cache.GetShared("a").value();
  inner->RemoteWrite("a", Blob('c', 1000));
  EXPECT_EQ(cache.Get("a").value(), Blob('c', 1000));
  EXPECT_EQ(*second, Blob('b', 1000));

  const SharedBytes third = cache.GetShared("a").value();
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
// another thread puts, deletes, invalidates and evicts the same name.
// Every buffer a reader sees is one whole value, and TSan sees no write
// to a buffer after it was handed out.
TEST(CacheTest, SharedPayloadsStayIntactUnderConcurrentMutation) {
  auto pushing = std::make_unique<PushingBackend>();
  PushingBackend* inner = pushing.get();
  CacheOptions options;
  options.mem_budget_bytes = 8192;
  options.writeback = CacheOptions::Writeback::kOff;
  CachedBackend cache(std::move(pushing), options);
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
      case 1: inner->RemoteWrite("x", Blob(fill, 512)); break;
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
