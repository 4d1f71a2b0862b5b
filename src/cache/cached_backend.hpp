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
// Writes go through to the inner store before Put returns, in both
// modes. Files are kept locally until close one layer up (AfsClient), so
// the cache adds no buffering of its own, and each write reaches the
// store in the order the client issued it: data before the journal
// anchor that references it. Over an inner that pushes invalidations
// (wire leases) a Put keeps its bytes only under a fresh write lease;
// over one that grants none (the cluster, a local store) it keeps them
// as clean and bounds staleness by a TTL.
//
// Freshness model per entry:
//   leased — served under a server read or write lease; valid until the
//            server pushes an invalidation or the lease channel dies.
//   clean  — TTL-stamped (fills without a lease, TTL-mode writes);
//            valid for ttl_ms after the stamp.
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
  /// Clean-entry validity window.
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
  /// Wraps `inner` and subscribes to invalidations (falling back to TTL
  /// mode if the inner backend cannot push them).
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
  /// True when the inner backend pushes invalidations (leases active at
  /// subscription time; a later channel loss demotes entries to TTL but
  /// does not flip this back).
  [[nodiscard]] bool lease_mode() const noexcept { return lease_mode_; }
  [[nodiscard]] std::size_t mem_bytes() const;
  /// Test hook: names with a fetch or a lease-mode Put in flight, each
  /// holding one invalidation sequence.
  [[nodiscard]] std::size_t inflight_names() const;

  /// Test/bench hook: drops every entry so the next read round is cold.
  void DropCleanEntries();

 private:
  struct Entry {
    SharedBytes data; // never null; replaced, never mutated
    enum class State : std::uint8_t { kClean, kLeased } state =
        State::kClean;
    std::uint64_t stamp_ms = 0; // TTL base for kClean
    std::list<std::string>::iterator lru_it;
  };
  /// Callers of one name whose inner call is in flight, and the name's
  /// invalidation sequence while they are.
  struct Flight {
    std::uint64_t seq = 0;
    unsigned callers = 0;
  };

  [[nodiscard]] std::uint64_t NowMs() const;
  [[nodiscard]] bool EntryValidLocked(const Entry& entry) const;

  void TouchLocked(const std::string& name, Entry& entry);
  void RemoveEntryLocked(const std::string& name);
  void EvictOverMemBudgetLocked();
  void InsertCleanLocked(const std::string& name, SharedBytes data,
                         Entry::State state, std::uint64_t stamp_ms);

  // In-flight invalidation sequences (see flights_).
  /// Joins the name's flight; returns its sequence before the inner call.
  std::uint64_t BeginFlightLocked(const std::string& name);
  /// Leaves the flight; true when no mutation of the name arrived since
  /// `seq_before`. The last caller out erases the flight.
  bool EndFlightLocked(const std::string& name, std::uint64_t seq_before);
  /// A mutation of the name: any caller still in flight read stale bytes.
  void BumpFlightLocked(const std::string& name);

  // Coherence callbacks (inner backend threads).
  void OnInvalidate(const std::vector<std::string>& names);
  void OnChannelDown();
  /// Stream commit published bytes the cache never saw: drop the entry.
  void OnStreamCommitted(const std::string& name);

  friend class CachedPutStream;

  CacheOptions options_;
  bool lease_mode_ = false;

  mutable std::mutex mu_;
  bool channel_up_ = false; // guarded by mu_
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_; // MRU at front
  std::size_t mem_bytes_ = 0;
  /// Names with a fetch or a lease-mode Put in flight. Every mutation of
  /// such a name (invalidation, Put, Delete, stream commit) bumps its
  /// sequence, so a caller that raced it never installs the stale bytes
  /// it read. A name nobody is fetching holds no node here.
  std::unordered_map<std::string, Flight> flights_;

  CacheCounters counters_;

  // Declared last so it is destroyed FIRST: the inner backend joins its
  // lease thread in its destructor, guaranteeing no invalidation callback
  // runs against a partially-destroyed cache.
  std::unique_ptr<storage::StorageBackend> inner_;
};

} // namespace nexus::cache
