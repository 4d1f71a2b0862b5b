#include "storage/afs.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "trace/trace.hpp"

namespace nexus::storage {

AfsServer::AfsServer(std::unique_ptr<StorageBackend> backend, SimClock& clock,
                     CostModel cost)
    : backend_(std::move(backend)), clock_(clock), cost_(cost) {
  // Publish this deployment's virtual clock to the tracer so spans carry
  // sim-time stamps alongside the monotonic clock. Last-constructed wins;
  // tests that run several Worlds trace against the newest one.
  trace::SetSimSource(
      [](const void* ctx) {
        return static_cast<const SimClock*>(ctx)->Now();
      },
      &clock_);
}

AfsServer::~AfsServer() { trace::ClearSimSource(&clock_); }

void AfsServer::ChargeRpc(std::uint64_t payload_bytes) {
  ++rpc_count_;
  clock_.Advance(cost_.RpcSeconds(payload_bytes));
}

std::uint64_t AfsServer::PublishStore(const std::string& client,
                                      const std::string& path) {
  PathState& state = paths_[path];
  // Every other client's callback breaks; the writer holds one.
  if (state.callbacks.size() != 1 || !state.callbacks.contains(client)) {
    state.callbacks.clear();
    state.callbacks.insert(client);
  }
  return ++state.version;
}

Result<AfsServer::FetchResult> AfsServer::RpcFetch(const std::string& client,
                                                   const std::string& path) {
  auto data = backend_->GetShared(path);
  if (!data.ok()) {
    ChargeRpc(0);
    return data.status();
  }
  ChargeRpc(data.value()->size());
  PathState& state = paths_[path];
  state.callbacks.insert(client);
  return FetchResult{std::move(data).value(), state.version};
}

Result<std::uint64_t> AfsServer::RpcStore(const std::string& client,
                                          const std::string& path,
                                          ByteSpan data) {
  ChargeRpc(data.size());
  NEXUS_RETURN_IF_ERROR(backend_->Put(path, data));
  return PublishStore(client, path);
}

Result<std::uint64_t> AfsServer::RpcStoreData(const std::string& client,
                                              const std::string& path,
                                              ByteSpan data,
                                              std::uint64_t changed_bytes) {
  ChargeRpc(std::min<std::uint64_t>(changed_bytes, data.size()));
  NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<StorageBackend::PutStream> sink,
                         backend_->OpenPutStream(path));
  sink->Reserve(data.size());
  // Dropping the stream on a failure leaves the stored object untouched.
  for (std::size_t off = 0; off < data.size(); off += kStoreSegmentBytes) {
    NEXUS_RETURN_IF_ERROR(sink->Append(data.subspan(
        off, std::min(kStoreSegmentBytes, data.size() - off))));
  }
  NEXUS_RETURN_IF_ERROR(sink->Commit());
  return PublishStore(client, path);
}

Result<AfsServer::StatResult> AfsServer::RpcStat(const std::string& client,
                                                 const std::string& path) {
  (void)client;
  ChargeRpc(0);
  // A zero-byte head read: the size without the payload.
  auto head = backend_->GetHead(path, 0);
  if (!head.ok()) {
    if (head.status().code() == ErrorCode::kNotFound) {
      return StatResult{false, 0};
    }
    return head.status();
  }
  return StatResult{true, head.value().size};
}

Result<std::uint64_t> AfsServer::RpcGetVersion(const std::string& client,
                                               const std::string& path) {
  ChargeRpc(0);
  if (!backend_->Exists(path)) {
    return Error(ErrorCode::kNotFound, "object not found: " + path);
  }
  PathState& state = paths_[path];
  state.callbacks.insert(client);
  return state.version;
}

Result<std::vector<AfsServer::ChildEntry>> AfsServer::RpcListDir(
    const std::string& client, const std::string& prefix) {
  (void)client;
  std::vector<ChildEntry> out;
  for (const std::string& name : backend_->List(prefix)) {
    std::string child = name.substr(prefix.size());
    const std::size_t slash = child.find('/');
    const bool nested = slash != std::string::npos;
    if (nested) child.resize(slash);
    if (out.empty() || out.back().name != child) {
      out.push_back(ChildEntry{child, false, false});
    }
    if (nested) {
      out.back().has_children = true;
    } else {
      out.back().is_exact = true;
    }
  }
  ++rpc_count_;
  clock_.Advance(cost_.RpcSeconds(0) +
                 cost_.per_dirent_seconds * static_cast<double>(out.size()));
  return out;
}

Status AfsServer::RpcRename(const std::string& client, const std::string& from,
                            const std::string& to) {
  ChargeRpc(0);
  // The moved object's version goes up by one under its new name, and
  // every callback on either name breaks.
  auto move_state = [this](const std::string& src, const std::string& dst) {
    const auto it = paths_.find(src);
    const std::uint64_t version =
        (it == paths_.end() ? 0 : it->second.version) + 1;
    if (it != paths_.end()) paths_.erase(it);
    PathState& target = paths_[dst];
    target.version = version;
    target.callbacks.clear();
  };
  bool moved_any = false;
  // Exact object.
  if (backend_->Exists(from)) {
    NEXUS_ASSIGN_OR_RETURN(Bytes data, backend_->Get(from));
    NEXUS_RETURN_IF_ERROR(backend_->Put(to, data));
    NEXUS_RETURN_IF_ERROR(backend_->Delete(from));
    move_state(from, to);
    moved_any = true;
  }
  // Subtree (directory rename): server-side, no extra transfer cost.
  for (const std::string& name : backend_->List(from + "/")) {
    const std::string target = to + name.substr(from.size());
    NEXUS_ASSIGN_OR_RETURN(Bytes data, backend_->Get(name));
    NEXUS_RETURN_IF_ERROR(backend_->Put(target, data));
    NEXUS_RETURN_IF_ERROR(backend_->Delete(name));
    move_state(name, target);
    moved_any = true;
  }
  (void)client;
  if (!moved_any) {
    return Error(ErrorCode::kNotFound, "rename source missing: " + from);
  }
  return Status::Ok();
}

Status AfsServer::RpcRemove(const std::string& client, const std::string& path) {
  ChargeRpc(0);
  NEXUS_RETURN_IF_ERROR(backend_->Delete(path));
  paths_.erase(path); // the version and every callback
  (void)client;
  return Status::Ok();
}

Result<bool> AfsServer::RpcExists(const std::string& client,
                                  const std::string& path) {
  (void)client;
  ChargeRpc(0);
  return backend_->Exists(path);
}

Result<std::vector<std::string>> AfsServer::RpcList(const std::string& client,
                                                    const std::string& prefix) {
  (void)client;
  auto names = backend_->List(prefix);
  ++rpc_count_;
  clock_.Advance(cost_.RpcSeconds(0) +
                 cost_.per_dirent_seconds * static_cast<double>(names.size()));
  return names;
}

Status AfsServer::RpcLock(const std::string& client, const std::string& path) {
  ChargeRpc(0);
  auto [it, inserted] = locks_.try_emplace(path, client);
  if (!inserted && it->second != client) {
    return Error(ErrorCode::kConflict,
                 "lock on " + path + " held by " + it->second);
  }
  it->second = client;
  // Acquiring the lock revalidates the file: the client must re-fetch
  // before mutating (OpenAFS semantics — a lock implies fresh status).
  const auto state = paths_.find(path);
  if (state != paths_.end()) state->second.callbacks.erase(client);
  return Status::Ok();
}

Status AfsServer::RpcUnlock(const std::string& client, const std::string& path) {
  ChargeRpc(0);
  const auto it = locks_.find(path);
  if (it == locks_.end() || it->second != client) {
    return Error(ErrorCode::kConflict, "lock on " + path + " not held");
  }
  locks_.erase(it);
  return Status::Ok();
}

bool AfsServer::CallbackValid(const std::string& client,
                              const std::string& path) const {
  const auto it = paths_.find(path);
  return it != paths_.end() && it->second.callbacks.contains(client);
}

Result<Bytes> AfsServer::AdversaryRead(const std::string& path) {
  return backend_->Get(path);
}

Status AfsServer::AdversaryWrite(const std::string& path, ByteSpan data) {
  return backend_->Put(path, data);
}

Status AfsServer::AdversarySwap(const std::string& a, const std::string& b) {
  NEXUS_ASSIGN_OR_RETURN(Bytes da, backend_->Get(a));
  NEXUS_ASSIGN_OR_RETURN(Bytes db, backend_->Get(b));
  NEXUS_RETURN_IF_ERROR(backend_->Put(a, db));
  return backend_->Put(b, da);
}

Result<Bytes> AfsServer::AdversarySnapshot(const std::string& path) {
  return backend_->Get(path);
}

Status AfsServer::AdversaryRollback(const std::string& path, ByteSpan snapshot) {
  return backend_->Put(path, snapshot);
}

void AfsServer::AdversaryInvalidateCallbacks(const std::string& path) {
  const auto it = paths_.find(path);
  if (it != paths_.end()) it->second.callbacks.clear();
}

// ---- AfsClient --------------------------------------------------------------

namespace {

// `name` is `path` or lies under it.
bool AtOrUnder(const std::string& name, const std::string& path) {
  return name.starts_with(path) &&
         (name.size() == path.size() || name[path.size()] == '/');
}

} // namespace

AfsClient::AfsClient(AfsServer& server, std::string client_id,
                     std::uint64_t content_budget)
    : server_(server), id_(std::move(client_id)),
      content_budget_(content_budget) {}

const AfsClient::CacheEntry& AfsClient::Insert(const std::string& path,
                                               SharedBytes data,
                                               std::uint64_t version,
                                               bool content) {
  const auto existing = cache_.find(path);
  if (existing != cache_.end()) Erase(existing);
  CacheEntry& entry = cache_[path];
  entry = CacheEntry{std::move(data), version, content, {}};
  if (content) {
    content_bytes_ += entry.data->size();
    entry.lru = lru_.insert(lru_.begin(), path);
    // The entry just installed is the front, so it always stays.
    while (content_bytes_ > content_budget_ && lru_.size() > 1) {
      Erase(cache_.find(lru_.back()));
    }
  }
  return entry;
}

void AfsClient::Erase(Cache::iterator it) {
  if (it->second.content) {
    content_bytes_ -= it->second.data->size();
    lru_.erase(it->second.lru);
  }
  cache_.erase(it);
}

void AfsClient::FlushCache() {
  cache_.clear();
  lru_.clear();
  content_bytes_ = 0;
}

Result<const AfsClient::CacheEntry*> AfsClient::FetchCached(
    const std::string& path, bool content) {
  const auto cached = cache_.find(path);
  if (cached != cache_.end() && server_.CallbackValid(id_, path)) {
    ++stats_.cache_hits;
    if (cached->second.content) {
      lru_.splice(lru_.begin(), lru_, cached->second.lru);
    }
    return &cached->second;
  }
  NEXUS_ASSIGN_OR_RETURN(AfsServer::FetchResult result,
                         server_.RpcFetch(id_, path));
  ++stats_.fetches;
  stats_.bytes_fetched += result.data->size();
  return &Insert(path, std::move(result.data), result.version, content);
}

Result<AfsServer::FetchResult> AfsClient::FetchVersioned(const std::string& path) {
  NEXUS_ASSIGN_OR_RETURN(const CacheEntry* entry, FetchCached(path, false));
  return AfsServer::FetchResult{entry->data, entry->version};
}

Result<AfsServer::FetchResult> AfsClient::FetchData(const std::string& path) {
  NEXUS_ASSIGN_OR_RETURN(const CacheEntry* entry, FetchCached(path, true));
  return AfsServer::FetchResult{entry->data, entry->version};
}

Result<Bytes> AfsClient::Fetch(const std::string& path) {
  NEXUS_ASSIGN_OR_RETURN(const CacheEntry* entry, FetchCached(path, false));
  return *entry->data;
}

Result<std::uint64_t> AfsClient::StoreVersioned(const std::string& path,
                                                ByteSpan data) {
  NEXUS_ASSIGN_OR_RETURN(std::uint64_t version, server_.RpcStore(id_, path, data));
  ++stats_.stores;
  stats_.bytes_stored += data.size();
  Insert(path, Share(ToBytes(data)), version, false);
  return version;
}

Status AfsClient::Store(const std::string& path, ByteSpan data) {
  NEXUS_ASSIGN_OR_RETURN(std::uint64_t version, StoreVersioned(path, data));
  (void)version;
  return Status::Ok();
}

Status AfsClient::StoreData(const std::string& path, SharedBytes data,
                            std::uint64_t changed_bytes) {
  NEXUS_ASSIGN_OR_RETURN(
      std::uint64_t version,
      server_.RpcStoreData(id_, path, *data, changed_bytes));
  ++stats_.stores;
  stats_.bytes_stored += std::min<std::uint64_t>(changed_bytes, data->size());
  Insert(path, std::move(data), version, true);
  return Status::Ok();
}

Result<AfsServer::StatResult> AfsClient::Stat(const std::string& path) {
  const auto cached = cache_.find(path);
  if (cached != cache_.end() && server_.CallbackValid(id_, path)) {
    ++stats_.cache_hits;
    return AfsServer::StatResult{true, cached->second.data->size()};
  }
  return server_.RpcStat(id_, path);
}

Result<std::vector<AfsServer::ChildEntry>> AfsClient::ListDir(
    const std::string& prefix) {
  return server_.RpcListDir(id_, prefix);
}

Status AfsClient::RenameObject(const std::string& from, const std::string& to) {
  // The server moves the whole subtree under `from`, so every cached name
  // at or under either path is dead or stale.
  for (auto it = cache_.begin(); it != cache_.end();) {
    const auto next = std::next(it);
    if (AtOrUnder(it->first, from) || AtOrUnder(it->first, to)) Erase(it);
    it = next;
  }
  return server_.RpcRename(id_, from, to);
}

bool AfsClient::CacheFresh(const std::string& path, std::uint64_t version) const {
  const auto cached = cache_.find(path);
  return cached != cache_.end() && cached->second.version == version &&
         server_.CallbackValid(id_, path);
}

Result<bool> AfsClient::Revalidate(const std::string& path,
                                   std::uint64_t version) {
  const auto cached = cache_.find(path);
  if (cached == cache_.end() || cached->second.version != version) {
    return false;
  }
  if (server_.CallbackValid(id_, path)) return true;
  if (!revalidation_enabled_) return false;
  auto server_version = server_.RpcGetVersion(id_, path);
  if (!server_version.ok() || *server_version != version) {
    // Stale (or deleted): drop the local copy so the next Fetch really
    // goes to the server — RpcGetVersion re-promised a callback for the
    // *current* server version, not for our stale bytes.
    Erase(cached);
    return false;
  }
  return true;
}

Status AfsClient::Remove(const std::string& path) {
  const auto cached = cache_.find(path);
  if (cached != cache_.end()) Erase(cached);
  return server_.RpcRemove(id_, path);
}

Result<bool> AfsClient::Exists(const std::string& path) {
  if (cache_.contains(path) && server_.CallbackValid(id_, path)) return true;
  return server_.RpcExists(id_, path);
}

Result<std::vector<std::string>> AfsClient::List(const std::string& prefix) {
  return server_.RpcList(id_, prefix);
}

Status AfsClient::Lock(const std::string& path) {
  return server_.RpcLock(id_, path);
}

Status AfsClient::Unlock(const std::string& path) {
  return server_.RpcUnlock(id_, path);
}

} // namespace nexus::storage
