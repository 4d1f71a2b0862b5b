// The enclave's view of the untrusted world (ocall interface).
//
// Mirrors the paper's design (§V): 11 ocalls that let the enclave read and
// write whole opaque objects on the underlying storage service. Everything
// that crosses this boundary is ciphertext (or object names, which are
// UUIDs).
#pragma once

#include <cstdint>
#include <string>

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

  /// Fetches/stores a bulk data object (encrypted file contents). A store
  /// is one call per written file, like OpenAFS's StoreData RPC: the
  /// object is replaced whole and atomically, so a failed store leaves the
  /// previous bytes. `changed_bytes` lets the transport charge only dirty
  /// chunks on partial updates (pass data->size() for a full rewrite).
  /// The caller hands `data` over and never touches it again, so the
  /// transport may keep the buffer itself instead of a copy.
  virtual Result<ObjectBlob> FetchData(const Uuid& uuid) = 0;
  virtual Status StoreData(const Uuid& uuid, SharedBytes data,
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

  /// Journal objects, named inside a flat journal namespace ("nxj/<name>"
  /// on the store). The enclave uses just one, the sealed anchor
  /// (journal::kAnchorName); it is authenticated under the journal key, so
  /// the store can at worst roll it back or drop it.
  virtual Result<Bytes> FetchJournal(const std::string& name) = 0;
  virtual Status StoreJournal(const std::string& name, ByteSpan data) = 0;
};

} // namespace nexus::enclave
