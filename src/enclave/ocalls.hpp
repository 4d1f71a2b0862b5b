// The enclave's view of the untrusted world (ocall interface).
//
// Mirrors the paper's design (§V): ~10 ocalls that let the enclave read and
// write opaque objects on the underlying storage service. Everything that
// crosses this boundary is ciphertext (or object names, which are UUIDs).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/uuid.hpp"

namespace nexus::enclave {

/// An opaque stored object plus the storage service's version stamp (used
/// only as a cache-freshness hint; it is untrusted). `data` is the
/// transport's shared ciphertext buffer, never null on success and never
/// mutated (StorageBackend::GetShared): the enclave opens it in place, and
/// holding the blob keeps the ciphertext alive while pool workers read it.
struct ObjectBlob {
  SharedBytes data;
  std::uint64_t storage_version = 0;
};

class StorageOcalls {
 public:
  virtual ~StorageOcalls() = default;

  /// Fetches a metadata object by UUID.
  virtual Result<ObjectBlob> FetchMeta(const Uuid& uuid) = 0;
  /// Stores (creates or replaces) a metadata object; returns the storage
  /// service's new version stamp.
  virtual Result<std::uint64_t> StoreMeta(const Uuid& uuid, ByteSpan data) = 0;
  virtual Status RemoveMeta(const Uuid& uuid) = 0;

  /// Fetches/stores a bulk data object (encrypted file contents).
  /// `changed_bytes` lets the transport ship only dirty chunks on partial
  /// updates (pass data.size() for a full rewrite).
  virtual Result<ObjectBlob> FetchData(const Uuid& uuid) = 0;
  virtual Status StoreData(const Uuid& uuid, ByteSpan data,
                           std::uint64_t changed_bytes) = 0;
  virtual Status RemoveData(const Uuid& uuid) = 0;

  /// Advisory lock on a metadata object (flock on the backing file, §V-A).
  virtual Status LockMeta(const Uuid& uuid) = 0;
  virtual Status UnlockMeta(const Uuid& uuid) = 0;

  /// True if the locally cached copy of the object is still known-fresh
  /// (AFS callback held). The enclave uses it only to decide whether its
  /// *decrypted* cache can be reused — a lie cannot forge content, only
  /// serve stale-but-authentic state within a session.
  virtual bool CacheFresh(const Uuid& uuid, std::uint64_t storage_version) = 0;

  // ---- pipelined (segmented) data store -----------------------------------
  // Every full rewrite streams: the enclave hands each sealed chunk's
  // ciphertext to the transport while later chunks are still encrypting.
  // Reads have no counterpart: the storage service transfers whole files
  // (AFS), so a read is one FetchData. Segments of one stream arrive in
  // order; NOTHING becomes visible under the object's name until
  // CommitDataStream — transports must apply the atomicity at commit
  // (temp+rename for disk-backed stores), never per segment. The default
  // implementations buffer and delegate to the whole-object calls, so
  // existing StorageOcalls implementations (test fakes included) keep
  // working unchanged.

  /// Opens a segmented store of `total_bytes` to `uuid`; returns a stream
  /// handle.
  virtual Result<std::uint64_t> BeginDataStream(const Uuid& uuid,
                                                std::uint64_t total_bytes);
  /// Appends the next `segment` of the stream (segments are contiguous).
  virtual Status StoreDataSegment(std::uint64_t handle, ByteSpan segment);
  /// Atomically publishes the streamed object. `changed_bytes` mirrors
  /// StoreData's transfer-accounting contract.
  virtual Status CommitDataStream(std::uint64_t handle,
                                  std::uint64_t changed_bytes);
  /// Discards the stream; the stored object (if any) is untouched.
  virtual Status AbortDataStream(std::uint64_t handle);

  /// Journal objects, named inside a flat journal namespace ("nxj/<name>"
  /// on the store). The enclave uses just one, the sealed anchor
  /// (journal::kAnchorName); it is authenticated under the journal key, so
  /// the store can at worst roll it back or drop it.
  virtual Result<Bytes> FetchJournal(const std::string& name) = 0;
  virtual Status StoreJournal(const std::string& name, ByteSpan data) = 0;

 private:
  // State for the default (buffered) streaming implementations. Overriding
  // transports never touch it.
  struct PendingStream {
    Uuid uuid;
    Bytes buffered;
  };
  std::map<std::uint64_t, PendingStream> default_streams_;
  std::uint64_t next_stream_handle_ = 1;
};

inline Result<std::uint64_t> StorageOcalls::BeginDataStream(
    const Uuid& uuid, std::uint64_t total_bytes) {
  const std::uint64_t handle = next_stream_handle_++;
  PendingStream& stream = default_streams_[handle];
  stream.uuid = uuid;
  stream.buffered.reserve(total_bytes);
  return handle;
}

inline Status StorageOcalls::StoreDataSegment(std::uint64_t handle,
                                              ByteSpan segment) {
  const auto it = default_streams_.find(handle);
  if (it == default_streams_.end()) {
    return Error(ErrorCode::kInvalidArgument, "unknown data stream handle");
  }
  Append(it->second.buffered, segment);
  return Status::Ok();
}

inline Status StorageOcalls::CommitDataStream(std::uint64_t handle,
                                              std::uint64_t changed_bytes) {
  const auto it = default_streams_.find(handle);
  if (it == default_streams_.end()) {
    return Error(ErrorCode::kInvalidArgument, "unknown data stream handle");
  }
  const Status result =
      StoreData(it->second.uuid, it->second.buffered, changed_bytes);
  default_streams_.erase(it);
  return result;
}

inline Status StorageOcalls::AbortDataStream(std::uint64_t handle) {
  default_streams_.erase(handle);
  return Status::Ok();
}

} // namespace nexus::enclave
