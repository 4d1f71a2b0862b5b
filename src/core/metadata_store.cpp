#include "core/metadata_store.hpp"

#include "common/hex.hpp"
#include "trace/trace.hpp"

namespace nexus::core {
namespace {

// prefix + infix + the UUID's 32 hex digits, built in one allocation:
// every metadata and data access names its object this way.
std::string ObjectPath(const std::string& prefix, std::string_view infix,
                       const Uuid& uuid) {
  std::string out;
  out.reserve(prefix.size() + infix.size() + 2 * Uuid::kSize);
  out.append(prefix).append(infix);
  HexAppend(uuid.span(), out);
  return out;
}

} // namespace

AfsMetadataStore::AfsMetadataStore(storage::AfsClient& afs, std::string prefix)
    : afs_(afs), prefix_(std::move(prefix)) {}

std::string AfsMetadataStore::MetaPath(const Uuid& uuid) const {
  return ObjectPath(prefix_, "/", uuid);
}

std::string AfsMetadataStore::DataPath(const Uuid& uuid) const {
  return ObjectPath(prefix_, "d/", uuid);
}

std::string AfsMetadataStore::JournalPath(const std::string& name) const {
  return prefix_ + "j/" + name;
}

Result<enclave::ObjectBlob> AfsMetadataStore::FetchMeta(const Uuid& uuid) {
  trace::Span io_span("io:fetch_meta", kMetaIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kMetaIoAccount);
  NEXUS_ASSIGN_OR_RETURN(storage::AfsServer::FetchResult result,
                         afs_.FetchVersioned(MetaPath(uuid)));
  return enclave::ObjectBlob{std::move(result.data), result.version};
}

Result<std::uint64_t> AfsMetadataStore::StoreMeta(const Uuid& uuid,
                                                  ByteSpan data) {
  trace::Span io_span("io:store_meta", kMetaIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kMetaIoAccount);
  return afs_.StoreVersioned(MetaPath(uuid), data);
}

Status AfsMetadataStore::RemoveMeta(const Uuid& uuid) {
  trace::Span io_span("io:remove_meta", kMetaIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kMetaIoAccount);
  return afs_.Remove(MetaPath(uuid));
}

Result<enclave::ObjectBlob> AfsMetadataStore::FetchData(const Uuid& uuid) {
  trace::Span io_span("io:fetch_data", kDataIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kDataIoAccount);
  NEXUS_ASSIGN_OR_RETURN(storage::AfsServer::FetchResult result,
                         afs_.FetchData(DataPath(uuid)));
  return enclave::ObjectBlob{std::move(result.data), result.version};
}

Status AfsMetadataStore::StoreData(const Uuid& uuid, SharedBytes data,
                                   std::uint64_t changed_bytes) {
  trace::Span io_span("io:store_data", kDataIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kDataIoAccount);
  return afs_.StoreData(DataPath(uuid), std::move(data), changed_bytes);
}

Status AfsMetadataStore::RemoveData(const Uuid& uuid) {
  trace::Span io_span("io:remove_data", kDataIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kDataIoAccount);
  return afs_.Remove(DataPath(uuid));
}

Status AfsMetadataStore::LockMeta(const Uuid& uuid) {
  trace::Span io_span("io:lock_meta", kMetaIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kMetaIoAccount);
  return afs_.Lock(MetaPath(uuid));
}

Status AfsMetadataStore::UnlockMeta(const Uuid& uuid) {
  trace::Span io_span("io:unlock_meta", kMetaIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kMetaIoAccount);
  return afs_.Unlock(MetaPath(uuid));
}

bool AfsMetadataStore::CacheFresh(const Uuid& uuid,
                                  std::uint64_t storage_version) {
  // Revalidation may issue a FetchStatus RPC — charge it as metadata I/O.
  trace::Span io_span("io:cache_fresh", kMetaIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(), kMetaIoAccount);
  auto fresh = afs_.Revalidate(MetaPath(uuid), storage_version);
  return fresh.ok() && *fresh;
}

Result<Bytes> AfsMetadataStore::FetchJournal(const std::string& name) {
  trace::Span io_span("io:fetch_journal", kJournalIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(),
                                         kJournalIoAccount);
  return afs_.Fetch(JournalPath(name));
}

Status AfsMetadataStore::StoreJournal(const std::string& name, ByteSpan data) {
  trace::Span io_span("io:store_journal", kJournalIoAccount);
  storage::SimClock::Attribution account(afs_.server().clock(),
                                         kJournalIoAccount);
  return afs_.Store(JournalPath(name), data);
}

} // namespace nexus::core
