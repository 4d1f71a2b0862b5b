// Untrusted metadata/data store: implements the enclave's ocall interface
// on top of an AFS client.
//
// Objects are plain files on the storage service with obfuscated names
// ("nx/<uuid-hex>" for metadata, "nxd/<uuid-hex>" for bulk data), exactly
// the deployment model of §IV: the volume is just a directory of
// ciphertext objects. Virtual I/O time is attributed to the "meta-io" /
// "data-io" clock accounts so benchmarks can report the paper's breakdown.
#pragma once

#include <string>

#include "enclave/ocalls.hpp"
#include "storage/afs.hpp"

namespace nexus::core {

inline constexpr const char* kMetaIoAccount = "meta-io";
inline constexpr const char* kDataIoAccount = "data-io";
inline constexpr const char* kJournalIoAccount = "journal-io";

class AfsMetadataStore final : public enclave::StorageOcalls {
 public:
  /// `prefix` namespaces one volume's objects on the shared store.
  explicit AfsMetadataStore(storage::AfsClient& afs, std::string prefix = "nx");

  Result<enclave::ObjectBlob> FetchMeta(const Uuid& uuid) override;
  Result<std::uint64_t> StoreMeta(const Uuid& uuid, ByteSpan data) override;
  Status RemoveMeta(const Uuid& uuid) override;
  Result<enclave::ObjectBlob> FetchData(const Uuid& uuid) override;
  Status StoreData(const Uuid& uuid, SharedBytes data,
                   std::uint64_t changed_bytes) override;
  Status RemoveData(const Uuid& uuid) override;
  Status LockMeta(const Uuid& uuid) override;
  Status UnlockMeta(const Uuid& uuid) override;
  bool CacheFresh(const Uuid& uuid, std::uint64_t storage_version) override;
  Result<Bytes> FetchJournal(const std::string& name) override;
  Status StoreJournal(const std::string& name, ByteSpan data) override;

  [[nodiscard]] std::string MetaPath(const Uuid& uuid) const;
  [[nodiscard]] std::string DataPath(const Uuid& uuid) const;
  [[nodiscard]] std::string JournalPath(const std::string& name) const;

 private:
  storage::AfsClient& afs_;
  std::string prefix_;
};

} // namespace nexus::core
