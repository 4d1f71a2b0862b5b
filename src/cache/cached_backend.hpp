// Persistent client-side object cache (DESIGN.md §9).
//
// CachedBackend layers under the StorageBackend interface and wraps any
// inner backend (Mem/Disk/Remote). Reads are served from a two-tier cache
// keyed by object name: a memory LRU tier plus an optional on-disk tier
// that survives process restart. Everything the cache holds is the inner
// store's bytes verbatim — for NEXUS volumes that is ciphertext sealed by
// the enclave — so the cache sits OUTSIDE the TCB: a corrupted or stale
// cache file is caught by the enclave's MACs exactly like a corrupted
// server reply, never trusted.
//
// Writes go through a writeback queue when the inner backend can push
// invalidations (wire leases): dirty objects coalesce in memory and
// flush in oldest-first batches, with a write barrier ahead of any
// journal-namespace mutation ("nxj/" by default) so the write-ahead
// ordering — data durable before the anchor that references it — still
// holds through the cache. Over an inner that grants no leases (the cluster, a
// local store) the cache writes through and bounds staleness by a TTL.
//
// Freshness model per entry:
//   dirty  — locally written, not yet flushed; always valid (local truth).
//   leased — served under a server read lease; valid until the server
//            pushes an invalidation or the lease channel dies.
//   clean  — TTL-stamped (fills without a lease, disk-tier loads);
//            valid for ttl_ms after the stamp.
//
// The disk tier keeps one file per object (names percent-escaped like
// DiskBackend) plus a MAC'd ".cache-index" base image updated crash-safely
// via temp+rename, and a ".cache-log" of per-record-MAC'd insert/remove
// mutations appended between base rewrites. A full rewrite (compaction)
// happens only every kLogCompactEvery mutations or at Flush; in between,
// each mutation costs one O(record) append instead of an O(index) rewrite.
// On load the base is replayed first, then the log in order (a corrupt or
// torn record ends the replay — everything before it stands); entries
// whose file is missing/short and files neither base nor log name are
// discarded — after a crash between a data write and the log append, the
// inner store is the source of truth. The MAC (key in ".cache-key" beside
// the index) only detects corruption; it carries no authority. `disk_dir`
// must be a directory dedicated to this cache: recovery deletes files it
// cannot account for.
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
  /// Memory-tier budget; 0 means NEXUS_CACHE_MEM_BUDGET or 64 MiB.
  std::size_t mem_budget_bytes = 0;
  /// Disk-tier budget; 0 means NEXUS_CACHE_DISK_BUDGET or 256 MiB.
  std::size_t disk_budget_bytes = 0;
  /// Disk-tier directory (created if needed). Empty disables the tier.
  std::string disk_dir;
  /// Clean-entry validity window; 0 means NEXUS_CACHE_TTL_MS or 5000.
  std::uint64_t ttl_ms = 0;

  /// kAuto enables writeback exactly when the inner backend can push
  /// invalidations (leases); kOn/kOff force it either way.
  enum class Writeback { kAuto, kOn, kOff };
  Writeback writeback = Writeback::kAuto;
  /// Dirty bytes above which Put flushes oldest-first batches inline.
  std::size_t writeback_high_water_bytes = 8u << 20;
  /// Objects per writeback flush batch.
  std::size_t writeback_batch_objects = 16;

  /// Names with these prefixes are write barriers: all dirty objects drain
  /// to the inner store BEFORE the mutation goes through (write-through).
  /// Defaults to the journal namespace so the write-ahead ordering holds.
  std::vector<std::string> write_through_prefixes = {"nxj/"};

  /// Test clock (milliseconds); null uses monotonic time.
  std::function<std::uint64_t()> now_ms;
};

class CachedBackend final : public storage::StorageBackend {
 public:
  /// Wraps `inner`, loads the disk tier and subscribes to invalidations
  /// (falling back to TTL mode if the inner backend cannot push them).
  explicit CachedBackend(std::unique_ptr<storage::StorageBackend> inner,
                         CacheOptions options = {});
  /// Drains the writeback queue and persists the disk index.
  ~CachedBackend() override;

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
  /// Write barrier: flushes every dirty object and persists the disk
  /// index. The cache's "close" in open-to-close consistency.
  Status Flush() override;

  [[nodiscard]] CacheCounters counters() const;
  /// True when the inner backend pushes invalidations (leases active at
  /// subscription time; a later channel loss demotes entries to TTL but
  /// does not flip this back).
  [[nodiscard]] bool lease_mode() const noexcept { return lease_mode_; }
  [[nodiscard]] std::size_t mem_bytes() const;
  [[nodiscard]] std::size_t dirty_bytes() const;

  /// Test/bench hook: drops every non-dirty entry from both tiers so the
  /// next read round is cold without losing pending writes.
  void DropCleanEntries();

 private:
  struct Entry {
    SharedBytes data; // never null; replaced, never mutated
    enum class State : std::uint8_t { kClean, kLeased, kDirty } state =
        State::kClean;
    std::uint64_t stamp_ms = 0; // TTL base for kClean
    std::uint64_t dirty_gen = 0;
    bool flushing = false; // in an in-flight writeback batch
    std::list<std::string>::iterator lru_it;
    std::list<std::string>::iterator dirty_it; // valid iff state == kDirty
  };
  struct DiskEntry {
    std::uint64_t size = 0;
    std::uint64_t stamp_ms = 0;
    std::list<std::string>::iterator lru_it;
  };

  [[nodiscard]] std::uint64_t NowMs() const;
  [[nodiscard]] bool WritebackEnabled() const noexcept;
  [[nodiscard]] bool IsWriteThroughName(const std::string& name) const;
  [[nodiscard]] bool EntryValidLocked(const Entry& entry) const;

  void TouchLocked(const std::string& name, Entry& entry);
  /// Removes a memory entry; `demote` spills clean bytes to the disk tier.
  void RemoveEntryLocked(const std::string& name, bool demote);
  void EvictOverMemBudgetLocked();
  void InsertCleanLocked(const std::string& name, SharedBytes data,
                         Entry::State state, std::uint64_t stamp_ms);

  // Disk tier.
  void LoadDiskTierLocked();
  void PersistDiskIndexLocked();
  /// Appends one MAC'd insert/remove record to ".cache-log"; triggers a
  /// compaction (full base rewrite + log truncate) every kLogCompactEvery.
  void AppendDiskLogLocked(std::uint8_t op, const std::string& name,
                           std::uint64_t size);
  void DiskInsertLocked(const std::string& name, ByteSpan data,
                        std::uint64_t stamp_ms);
  void DiskRemoveLocked(const std::string& name);
  [[nodiscard]] Result<Bytes> DiskReadLocked(const std::string& name);
  [[nodiscard]] std::string DiskPathFor(const std::string& name) const;

  // Writeback. FlushOneBatch releases mu_ around the inner Puts; callers
  // must NOT hold mu_. Returns kNotFound (sentinel) when nothing is dirty.
  Status FlushOneBatch();
  Status DrainDirty();
  /// Barrier for mutations of write-through names; no-op otherwise.
  Status BarrierFor(const std::string& name);

  // Coherence callbacks (inner backend threads).
  void OnInvalidate(const std::vector<std::string>& names);
  void OnChannelDown();
  /// Stream commit published bytes the cache never saw: drop the entry.
  void OnStreamCommitted(const std::string& name);
  [[nodiscard]] SharedBytes TryDiskHitLocked(const std::string& name);

  friend class CachedPutStream;

  CacheOptions options_;
  bool lease_mode_ = false;

  mutable std::mutex mu_;
  bool channel_up_ = false; // guarded by mu_
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;         // MRU at front
  std::list<std::string> dirty_queue_; // oldest first
  std::size_t mem_bytes_ = 0;
  std::size_t dirty_bytes_ = 0;
  /// Per-name invalidation sequence: bumped on every invalidation (and on
  /// local Delete/stream commit) so a demand fetch that raced a concurrent
  /// mutation never installs the stale bytes it read.
  std::unordered_map<std::string, std::uint64_t> inval_seq_;

  bool disk_enabled_ = false;
  std::unordered_map<std::string, DiskEntry> disk_entries_;
  std::list<std::string> disk_lru_; // MRU at front
  std::size_t disk_bytes_ = 0;
  Bytes disk_mac_key_;
  unsigned disk_log_records_ = 0; // appended since the last compaction
  std::uint64_t disk_temp_seq_ = 0;

  CacheCounters counters_;

  // Declared last so it is destroyed FIRST: the inner backend joins its
  // lease thread in its destructor, guaranteeing no invalidation callback
  // runs against a partially-destroyed cache.
  std::unique_ptr<storage::StorageBackend> inner_;
};

} // namespace nexus::cache
