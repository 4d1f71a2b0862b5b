// Client-side object cache (DESIGN.md §9).
//
// CachedBackend layers under the StorageBackend interface and wraps any
// inner backend (Mem/Disk/Remote/Cluster). Reads are served from one
// memory LRU keyed by object name. Everything the cache holds is the
// inner store's bytes verbatim — for NEXUS volumes that is ciphertext
// sealed by the enclave — so the cache sits OUTSIDE the TCB: a stale or
// corrupted entry is caught by the enclave's MACs exactly like a
// corrupted server reply, never trusted.
//
// Writes go through to the inner store before Put returns. Files are
// kept locally until close one layer up (AfsClient), so the cache adds
// no buffering of its own, and each write reaches the store in the order
// the client issued it: data before the journal anchor that references
// it. A Put keeps its own bytes as the name's entry.
//
// One freshness rule: an entry is valid for ttl_ms after it was filled
// or written. Nothing tells the cache that another client changed a
// name, so another client's write becomes visible here at most ttl_ms
// after this cache last filled or wrote that name (DESIGN.md §9).
// Open-to-close sharing between NEXUS clients is the AFS layer's job
// (AfsClient callbacks), above this cache.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_counters.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"
#include "storage/backend.hpp"

namespace nexus::cache {

struct CacheOptions {
  /// Memory budget: least recently used entries go past it.
  std::size_t mem_budget_bytes = 64u << 20;
  /// Entry validity window, from the fill or the write.
  std::uint64_t ttl_ms = 5000;

  /// Inert: the cache has one memory tier. Kept only because nexus_bench
  /// assigns it (ROADMAP item 2).
  std::size_t disk_budget_bytes = 0;

  /// Inert: the cache always writes through. Kept only because
  /// nexus_bench assigns it (ROADMAP item 2).
  enum class Writeback { kOff } writeback = Writeback::kOff;

  /// Test clock (milliseconds); null uses monotonic time.
  std::function<std::uint64_t()> now_ms;
};

class CachedBackend final : public storage::StorageBackend {
 public:
  explicit CachedBackend(std::unique_ptr<storage::StorageBackend> inner,
                         CacheOptions options = {});

  /// A copy of GetShared's buffer.
  Result<Bytes> Get(const std::string& name) override;
  /// A hit returns the buffer the memory entry holds; a miss installs the
  /// fetched bytes by move and returns that same buffer.
  Result<SharedBytes> GetShared(const std::string& name) override;
  Status Put(const std::string& name, ByteSpan data) override;
  Status Delete(const std::string& name) override;
  bool Exists(const std::string& name) override;
  std::vector<std::string> List(const std::string& prefix) override;
  /// Answers from a valid memory entry; otherwise forwards to the inner
  /// backend's head read and fills nothing (a head is not the object).
  Result<Head> GetHead(const std::string& name, std::size_t max_bytes) override;
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override;

  [[nodiscard]] CacheCounters counters() const;
  [[nodiscard]] std::size_t mem_bytes() const;
  /// Test hook: names with a fetch in flight, each holding one mutation
  /// sequence.
  [[nodiscard]] std::size_t inflight_names() const;

  /// Test/bench hook: drops every entry so the next read round is cold.
  void DropCleanEntries();

 private:
  struct Entry {
    SharedBytes data; // never null; replaced, never mutated
    std::uint64_t stamp_ms = 0; // fill or write time; the TTL's base
    std::list<std::string>::iterator lru_it;
  };
  /// Callers of one name whose fetch is in flight, and the name's
  /// mutation sequence while they are.
  struct Flight {
    std::uint64_t seq = 0;
    unsigned callers = 0;
  };

  [[nodiscard]] std::uint64_t NowMs() const;
  [[nodiscard]] bool EntryValidLocked(const Entry& entry) const;

  void TouchLocked(const std::string& name, Entry& entry);
  void RemoveEntryLocked(const std::string& name);
  void EvictOverMemBudgetLocked();
  /// Installs `data` as the name's entry, stamped now.
  void InsertLocked(const std::string& name, SharedBytes data);

  // In-flight mutation sequences (see flights_).
  /// Joins the name's flight; returns its sequence before the inner call.
  std::uint64_t BeginFlightLocked(const std::string& name);
  /// Leaves the flight; true when no mutation of the name arrived since
  /// `seq_before`. The last caller out erases the flight.
  bool EndFlightLocked(const std::string& name, std::uint64_t seq_before);
  /// A mutation of the name: any caller still in flight read stale bytes.
  void BumpFlightLocked(const std::string& name);

  /// Stream commit published bytes the cache never saw: drop the entry.
  void OnStreamCommitted(const std::string& name);

  friend class CachedPutStream;

  CacheOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_; // MRU at front
  std::size_t mem_bytes_ = 0;
  /// Names with a fetch in flight. Every local mutation of such a name
  /// (Put, Delete, stream commit) bumps its sequence, so a fetch that
  /// raced it never installs the stale bytes it read. A name nobody is
  /// fetching holds no node here.
  std::unordered_map<std::string, Flight> flights_;

  CacheCounters counters_;

  std::unique_ptr<storage::StorageBackend> inner_;
};

} // namespace nexus::cache
