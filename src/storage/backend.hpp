// Raw object-store backends.
//
// The AFS server persists its objects through this interface. MemBackend
// backs simulations and tests; DiskBackend persists volumes across runs
// (used by the examples). Neither charges simulated cost — that is the
// server's job.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace nexus::storage {

// Thread-safety contract. A StorageBackend may be shared by concurrent
// callers (nexusd serves one backend to many connections, from its loop
// thread and its handler pool), so implementations MUST make the
// whole-object operations (Get / Put / Delete / Exists / List /
// OpenPutStream) safe to call from any thread, including concurrently on
// the same object name — last writer wins, and readers observe some
// previously committed whole object, never a torn one. A PutStream
// instance, by contrast, is NOT thread-safe: it belongs to the single
// caller that opened it (Append/Commit/Abort must be externally
// serialized), though distinct PutStreams — even for the same name — may
// be driven from different threads concurrently.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual Result<Bytes> Get(const std::string& name) = 0;
  virtual Status Put(const std::string& name, ByteSpan data) = 0;

  /// Get without the copy: the object as a SharedBytes, one immutable
  /// buffer that every holder reads and nobody writes. A backend that
  /// keeps payloads this way (CachedBackend's memory entries) replaces an
  /// entry's buffer on every mutation and never changes the bytes of one
  /// it has handed out, so a reader's buffer keeps its bytes even while
  /// another thread overwrites, deletes, invalidates or evicts the name.
  /// A holder may keep the buffer as long as it likes; the last holder
  /// frees it. The default wraps Get's bytes by move; CachedBackend
  /// returns the buffer its entry holds.
  virtual Result<SharedBytes> GetShared(const std::string& name);
  /// Removes `name`; a name that is already missing is Ok, so a retried
  /// or repeated delete needs no special case. A delete is ordered like a
  /// Put (last writer wins; ClusterBackend writes a tombstone under the
  /// deleting client's version clock). Callers only delete objects that
  /// no live metadata references, so a delete that loses that race
  /// leaves an orphan for fsck, never wrong visible state.
  virtual Status Delete(const std::string& name) = 0;
  [[nodiscard]] virtual bool Exists(const std::string& name) = 0;
  /// All object names with the given prefix, sorted.
  [[nodiscard]] virtual std::vector<std::string> List(const std::string& prefix) = 0;

  /// The first `max_bytes` bytes of an object and its full size: a read
  /// that moves a header, not a payload. `prefix` holds exactly
  /// min(max_bytes, size) bytes; a missing object is kNotFound, as for
  /// Get. The default is Get followed by truncation, so a decorator that
  /// does not forward it stays correct; MemBackend, DiskBackend,
  /// RemoteBackend (kGetHead) and CachedBackend override it.
  struct Head {
    Bytes prefix;
    std::uint64_t size = 0;
  };
  virtual Result<Head> GetHead(const std::string& name, std::size_t max_bytes);
  /// The head of a whole object held in memory.
  static Head HeadOf(ByteSpan object, std::size_t max_bytes);

  /// An in-progress segmented Put. Append() receives the object's bytes in
  /// order; the object becomes visible under its name only at Commit(),
  /// atomically — readers see the old content or the new content, never a
  /// prefix. Dropping the stream without Commit (or calling Abort) leaves
  /// the store untouched.
  class PutStream {
   public:
    virtual ~PutStream() = default;
    /// Hint that the object will be `total_bytes` long, given before the
    /// first Append: a stream that buffers the whole object sizes its
    /// buffer once. Others ignore it.
    virtual void Reserve(std::size_t total_bytes) { (void)total_bytes; }
    virtual Status Append(ByteSpan data) = 0;
    virtual Status Commit() = 0;
    virtual void Abort() = 0;
  };

  /// Opens a segmented Put of `name`; each backend has exactly one
  /// stream and owns its failure policy. The default implementation
  /// buffers and delegates to Put() at commit (atomic for in-memory
  /// stores); DiskBackend spills segments straight to its temp file so a
  /// large streamed object never needs a second in-memory copy;
  /// RemoteBackend pipelines segments over a dedicated connection and
  /// fails the stream on a transport error; ClusterBackend holds the
  /// first segment and fans out to per-replica streams from the second.
  virtual Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name);

  /// Forwarder to OpenPutStream; do not call or override it. Nothing in
  /// src/ overrides it: it exists only because the full-stack
  /// benchmark's probe wrapper (nexus_bench) overrides it, and goes away
  /// together with that override. CI fails if any other code names it.
  virtual Result<std::unique_ptr<PutStream>> OpenUnbufferedPutStream(
      const std::string& name) {
    return OpenPutStream(name);
  }

  /// One bounded page of a listing: the first `limit` names greater than
  /// `start_after` (exclusive cursor) that carry `prefix`, sorted; `more`
  /// is set when the listing was truncated — pass the last returned name
  /// back as `start_after` to continue. The default materializes List()
  /// and slices it; backends with native paging (RemoteBackend's
  /// kListPage) override it so a million-object enumeration never
  /// materializes whole on either side.
  struct ListPage {
    std::vector<std::string> names;
    bool more = false;
  };
  virtual ListPage ListSome(const std::string& prefix,
                            const std::string& start_after, std::size_t limit);

  /// Inert: only nexus_bench's probe overrides it (ROADMAP item 2). One
  /// Get per name, same order.
  virtual std::vector<Result<Bytes>> MultiGet(
      const std::vector<std::string>& names);
  /// Inert: only nexus_bench's probe overrides it (ROADMAP item 2).
  /// MultiGet with every lease flag false.
  virtual std::vector<Result<Bytes>> MultiGetLeased(
      const std::vector<std::string>& names, std::vector<bool>* leased) {
    if (leased != nullptr) leased->assign(names.size(), false);
    return MultiGet(names);
  }
  /// Inert: only nexus_bench's probe overrides it (ROADMAP item 2). One
  /// Exists per name, same order.
  virtual std::vector<bool> MultiExists(const std::vector<std::string>& names);

  /// Inert no-op: only nexus_bench's probe overrides it (ROADMAP item 2).
  virtual void Prefetch(const std::string& name) { (void)name; }
  /// Inert: only nexus_bench's probe names it (ROADMAP item 2).
  using PrefetchSink =
      std::function<void(const std::string& name, Result<Bytes> object,
                         bool leased)>;
  /// Inert no-op: only nexus_bench's probe overrides it (ROADMAP item 2).
  virtual void SetPrefetchSink(PrefetchSink sink) { (void)sink; }

  /// Get that also reports whether the backend granted a read lease on the
  /// object (server-pushed invalidation will arrive through the
  /// SubscribeInvalidations channel when another client mutates it). Plain
  /// stores are local and never grant leases.
  virtual Result<Bytes> GetLeased(const std::string& name,
                                  bool* lease_granted) {
    if (lease_granted != nullptr) *lease_granted = false;
    return Get(name);
  }

  /// Put that also reports whether the backend granted the writer a WRITE
  /// lease on the object: the writer keeps its own copy cached
  /// and will NOT receive an invalidation for its own mutation, only for
  /// later mutations by others. Plain stores never grant leases.
  virtual Status PutLeased(const std::string& name, ByteSpan data,
                           bool* lease_granted) {
    if (lease_granted != nullptr) *lease_granted = false;
    return Put(name, data);
  }

  /// Inert: every Put has reached the store when it returns, and no
  /// backend keeps local state to persist. Kept only because
  /// nexus_bench's probe overrides it (ROADMAP item 2).
  virtual Status Flush() { return Status::Ok(); }

  /// Multi-client coherence hooks. `on_invalidate` is called (from a
  /// backend-internal thread) with object names another client mutated;
  /// `on_channel_down` fires once if the invalidation channel dies, after
  /// which no further callbacks arrive and cached data must be aged out by
  /// TTL instead. Returns false when the backend (or its peer) cannot push
  /// invalidations — the caller falls back to write-through + TTL.
  using InvalidationListener =
      std::function<void(const std::vector<std::string>& names)>;
  using ChannelDownHandler = std::function<void()>;
  virtual bool SubscribeInvalidations(InvalidationListener on_invalidate,
                                      ChannelDownHandler on_channel_down) {
    (void)on_invalidate;
    (void)on_channel_down;
    return false;
  }

  /// True when no call ever waits on I/O or on another thread (beyond a
  /// short internal lock). nexusd then runs this backend's handlers on
  /// the loop thread that parsed the request instead of handing them to
  /// its worker pool. Only MemBackend says yes.
  [[nodiscard]] virtual bool NeverWaits() const noexcept { return false; }
};

/// Volatile in-memory store. Thread-safe per the contract above (one
/// mutex around the object map; Get copies under it). No call does I/O.
class MemBackend final : public StorageBackend {
 public:
  Result<Bytes> Get(const std::string& name) override;
  Status Put(const std::string& name, ByteSpan data) override;
  /// Buffers like the default stream, then moves the object in at Commit.
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override;
  Status Delete(const std::string& name) override;
  bool Exists(const std::string& name) override;
  std::vector<std::string> List(const std::string& prefix) override;
  /// Copies only the prefix under the map lock.
  Result<Head> GetHead(const std::string& name, std::size_t max_bytes) override;
  [[nodiscard]] bool NeverWaits() const noexcept override { return true; }

  [[nodiscard]] std::size_t object_count() const noexcept;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, Bytes> objects_;
};

/// Escapes an object name into a flat, filesystem-safe filename:
/// alphanumerics, '-', '_' and '.' pass through; everything else
/// (including '/') becomes %XX. Exposed for DiskBackend tests and tools.
std::string EscapeName(const std::string& name);
/// Inverse of EscapeName. Malformed escapes pass through verbatim.
std::string UnescapeName(const std::string& file);

/// Durable store: one file per object under `root`, object names
/// percent-escaped into filenames.
class DiskBackend final : public StorageBackend {
 public:
  /// Creates `root` if needed.
  static Result<DiskBackend> Open(const std::string& root);

  DiskBackend(DiskBackend&& other) noexcept
      : root_(std::move(other.root_)), temp_seq_(other.temp_seq_.load()) {}

  Result<Bytes> Get(const std::string& name) override;
  Status Put(const std::string& name, ByteSpan data) override;
  Status Delete(const std::string& name) override;
  bool Exists(const std::string& name) override;
  std::vector<std::string> List(const std::string& prefix) override;
  /// Reads the prefix and the size through one open file, so both
  /// describe the same committed object even across a concurrent Put.
  Result<Head> GetHead(const std::string& name, std::size_t max_bytes) override;
  /// Streams segments into the ".%tmp-" file and renames at Commit — the
  /// same crash-atomicity as Put, applied at commit rather than per
  /// segment.
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override;

 private:
  explicit DiskBackend(std::string root) : root_(std::move(root)) {}
  [[nodiscard]] std::string PathFor(const std::string& name) const;
  [[nodiscard]] std::string TempPathFor(const std::string& name);

  std::string root_;
  // Distinguishes concurrent in-flight writes to the same name so their
  // temp files never collide (thread-safety contract above).
  std::atomic<std::uint64_t> temp_seq_{0};
};

} // namespace nexus::storage
