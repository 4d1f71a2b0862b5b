// Simulated AFS deployment: a whole-file-caching distributed filesystem.
//
// Reproduces the OpenAFS behaviours the NEXUS evaluation depends on:
//  * whole-file fetch on first open, whole-file store on close
//    (open-to-close semantics; the VFS layer buffers in between),
//  * client-side persistent caches kept coherent by server callbacks
//    (a client's cached copy stays valid until another client writes),
//  * advisory per-file locks (flock), used by NEXUS for metadata updates,
//  * per-RPC network cost charged on a deterministic virtual clock.
//
// The server is *untrusted*: the Adversary interface manipulates stored
// objects directly (tamper / rollback / swap / replay) with no cost and no
// client involvement, modelling the paper's §III-A threat model.
#pragma once

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "storage/backend.hpp"
#include "storage/cost_model.hpp"
#include "storage/sim_clock.hpp"

namespace nexus::storage {

/// Segment size of the PutStream a file-content store hands the backend:
/// one sealed chunk (1 MiB of content plus its 16-byte GCM tag) at the
/// default chunk size.
inline constexpr std::size_t kStoreSegmentBytes = (std::size_t{1} << 20) + 16;

/// Default byte budget of an AfsClient's file-content cache (the model of
/// OpenAFS's fixed-size data cache, `afsd -blocks`).
inline constexpr std::uint64_t kContentCacheBytes = std::uint64_t{32} << 20;

class AfsServer {
 public:
  AfsServer(std::unique_ptr<StorageBackend> backend, SimClock& clock,
            CostModel cost = {});
  /// Unregisters this server's clock from the tracer's sim-time source.
  ~AfsServer();

  // ---- RPCs (cost charged on the virtual clock) -------------------------

  /// A fetched object. `data` is the backend's shared buffer (see
  /// StorageBackend::GetShared): a cache hit below hands up the very
  /// bytes the cache holds, and nobody mutates them.
  struct FetchResult {
    SharedBytes data;
    std::uint64_t version = 0;
  };

  Result<FetchResult> RpcFetch(const std::string& client, const std::string& path);
  /// Whole-object store through the backend's Put: metadata objects and
  /// the journal anchor, which the client cache below keeps.
  Result<std::uint64_t> RpcStore(const std::string& client,
                                 const std::string& path, ByteSpan data);
  /// StoreData: one RPC that replaces a file's content (OpenAFS's
  /// StoreData, whose body streams). It charges the transfer of
  /// `changed_bytes`, at most data.size(): an fsync ships dirty chunks,
  /// yet the content is still replaced whole. The backend receives the
  /// object as one PutStream in kStoreSegmentBytes segments, so content,
  /// version bump and callback breaks apply together at its Commit; a
  /// failed append or commit leaves the stored object, its version and
  /// every callback untouched.
  Result<std::uint64_t> RpcStoreData(const std::string& client,
                                     const std::string& path, ByteSpan data,
                                     std::uint64_t changed_bytes);

  Status RpcRemove(const std::string& client, const std::string& path);
  /// Cheap existence probe (a FetchStatus RPC in AFS).
  Result<bool> RpcExists(const std::string& client, const std::string& path);
  struct StatResult {
    bool exists = false;
    std::uint64_t size = 0;
  };
  /// FetchStatus: size without transferring content.
  Result<StatResult> RpcStat(const std::string& client, const std::string& path);
  /// FetchStatus variant returning the version stamp; re-establishes the
  /// caller's callback promise (this is how AFS revalidates a cache entry
  /// without re-transferring the file).
  Result<std::uint64_t> RpcGetVersion(const std::string& client,
                                      const std::string& path);
  /// Names with the given prefix (directory enumeration).
  Result<std::vector<std::string>> RpcList(const std::string& client,
                                           const std::string& prefix);
  struct ChildEntry {
    std::string name;
    bool is_exact = false;     // an object named exactly prefix+name exists
    bool has_children = false; // objects exist under prefix+name+"/"
  };
  /// Immediate children under `prefix` (one path segment), deduplicated.
  Result<std::vector<ChildEntry>> RpcListDir(const std::string& client,
                                             const std::string& prefix);
  /// Server-side rename of `from` and (for directories) every object under
  /// `from + "/"`. One RPC regardless of subtree size.
  Status RpcRename(const std::string& client, const std::string& from,
                   const std::string& to);
  /// Advisory exclusive lock; kConflict if held by another client.
  Status RpcLock(const std::string& client, const std::string& path);
  Status RpcUnlock(const std::string& client, const std::string& path);

  /// True if `client` still holds a valid callback promise for `path`
  /// (no RPC: models the server-initiated callback channel).
  [[nodiscard]] bool CallbackValid(const std::string& client,
                                   const std::string& path) const;

  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] std::uint64_t rpc_count() const noexcept { return rpc_count_; }

  // ---- Adversary interface (malicious server; free of charge) -----------

  /// Direct read of stored ciphertext.
  Result<Bytes> AdversaryRead(const std::string& path);
  /// Overwrites stored bytes without bumping callbacks or versions —
  /// clients cannot tell anything changed until they re-fetch.
  Status AdversaryWrite(const std::string& path, ByteSpan data);
  /// Swaps two objects' contents (file-swapping attack, paper §VI-C).
  Status AdversarySwap(const std::string& a, const std::string& b);
  /// Saves a copy of an object for a later rollback.
  Result<Bytes> AdversarySnapshot(const std::string& path);
  /// Restores a snapshot (rollback attack) — version is restored too, so
  /// the staleness is invisible at the transport layer.
  Status AdversaryRollback(const std::string& path, ByteSpan snapshot);
  /// Breaks every client's callback for `path`, forcing re-fetches.
  void AdversaryInvalidateCallbacks(const std::string& path);

 private:
  // Per-path server state: the version stamp and the clients holding a
  // callback promise, so each RPC resolves its path once.
  struct PathState {
    std::uint64_t version = 0;
    std::unordered_set<std::string> callbacks;
  };

  void ChargeRpc(std::uint64_t payload_bytes);
  /// A store of `path` by `client` became visible: bumps the version,
  /// breaks every other client's callback and promises one to `client`.
  std::uint64_t PublishStore(const std::string& client,
                             const std::string& path);

  std::unique_ptr<StorageBackend> backend_;
  SimClock& clock_;
  CostModel cost_;
  std::unordered_map<std::string, PathState> paths_;
  std::unordered_map<std::string, std::string> locks_; // path -> holder
  std::uint64_t rpc_count_ = 0;
};

/// A client machine's AFS cache manager.
///
/// Like OpenAFS's, its cache has two parts. File content (what StoreData
/// stores and FetchData fetches) sits in a data cache bounded by
/// `content_budget` bytes, evicted least recently used first; the most
/// recently used content entry always stays, even when it alone is larger
/// than the budget. Every other entry (metadata, journal and directory
/// objects: the status cache) stays until FlushCache, Remove, a rename or
/// a failed revalidation. Eviction drops only the local bytes; the
/// callback promise stays, and the next fetch pays one RPC.
class AfsClient {
 public:
  AfsClient(AfsServer& server, std::string client_id,
            std::uint64_t content_budget = kContentCacheBytes);

  /// Whole-file fetch. Served from the local cache when the callback is
  /// still valid (zero cost), otherwise fetched from the server.
  Result<Bytes> Fetch(const std::string& path);
  /// Fetch that also reports the server version stamp of the bytes.
  Result<AfsServer::FetchResult> FetchVersioned(const std::string& path);
  /// FetchVersioned of file content: a fetched object is cached in the
  /// content budget, like StoreData's.
  Result<AfsServer::FetchResult> FetchData(const std::string& path);
  /// Whole-object store (RpcStore): metadata and journal objects.
  Status Store(const std::string& path, ByteSpan data);
  /// Store that reports the new server version stamp.
  Result<std::uint64_t> StoreVersioned(const std::string& path, ByteSpan data);
  /// True if the locally cached copy is still callback-fresh *and* carries
  /// exactly `version`. Purely local — never issues an RPC.
  [[nodiscard]] bool CacheFresh(const std::string& path, std::uint64_t version) const;
  /// Like CacheFresh, but on a broken callback revalidates with a cheap
  /// FetchStatus RPC (re-establishing the callback if the version still
  /// matches) instead of giving up.
  Result<bool> Revalidate(const std::string& path, std::uint64_t version);
  /// File-content store (RpcStoreData): replaces the content whole but
  /// charges only `changed_bytes` of transfer (pass data->size() for a
  /// full rewrite, fewer for an fsync of dirty chunks). The cache keeps
  /// `data` itself, in the content budget; the caller hands the buffer
  /// over and never mutates it again.
  Status StoreData(const std::string& path, SharedBytes data,
                   std::uint64_t changed_bytes);

  Status Remove(const std::string& path);
  Result<bool> Exists(const std::string& path);
  Result<AfsServer::StatResult> Stat(const std::string& path);
  Result<std::vector<std::string>> List(const std::string& prefix);
  Result<std::vector<AfsServer::ChildEntry>> ListDir(const std::string& prefix);
  /// Server-side rename; drops the local entries of both names and of
  /// everything under them.
  Status RenameObject(const std::string& from, const std::string& to);
  Status Lock(const std::string& path);
  Status Unlock(const std::string& path);

  /// Drops the local cache (the evaluation's "flush the AFS cache").
  void FlushCache();

  /// Disables FetchStatus revalidation (ablation: every broken callback
  /// forces a full re-fetch, the naive pre-optimization behaviour).
  void set_revalidation_enabled(bool enabled) noexcept {
    revalidation_enabled_ = enabled;
  }

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] AfsServer& server() noexcept { return server_; }
  /// Bytes of file content held in the cache.
  [[nodiscard]] std::uint64_t content_bytes() const noexcept {
    return content_bytes_;
  }

  struct Stats {
    std::uint64_t fetches = 0;        // RPC fetches (cache misses)
    std::uint64_t cache_hits = 0;
    std::uint64_t stores = 0;
    std::uint64_t bytes_fetched = 0;
    std::uint64_t bytes_stored = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  struct CacheEntry {
    SharedBytes data; // a fetched entry shares the backend cache's buffer
    std::uint64_t version = 0;
    bool content = false; // counted in content_bytes_
    std::list<std::string>::iterator lru; // content entries only
  };
  using Cache = std::unordered_map<std::string, CacheEntry>;

  /// Cached entry when fresh, else fetches (and caches) from the server.
  Result<const CacheEntry*> FetchCached(const std::string& path, bool content);
  /// Installs `path`'s entry; a content entry becomes the most recent and
  /// evicts the least recent ones beyond the budget.
  const CacheEntry& Insert(const std::string& path, SharedBytes data,
                           std::uint64_t version, bool content);
  void Erase(Cache::iterator it);

  AfsServer& server_;
  std::string id_;
  std::uint64_t content_budget_;
  bool revalidation_enabled_ = true;
  Cache cache_;
  std::list<std::string> lru_; // content paths, most recently used first
  std::uint64_t content_bytes_ = 0;
  Stats stats_;
};

} // namespace nexus::storage
