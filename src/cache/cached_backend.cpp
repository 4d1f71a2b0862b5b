#include "cache/cached_backend.hpp"

#include "common/clock.hpp"
#include "trace/trace.hpp"

namespace nexus::cache {

// ---- construction -----------------------------------------------------------

CachedBackend::CachedBackend(std::unique_ptr<storage::StorageBackend> inner,
                             CacheOptions options)
    : options_(std::move(options)), inner_(std::move(inner)) {}

// ---- small helpers ----------------------------------------------------------

std::uint64_t CachedBackend::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return MonotonicNanos() / 1000000u;
}

bool CachedBackend::EntryValidLocked(const Entry& entry) const {
  return NowMs() < entry.stamp_ms + options_.ttl_ms;
}

void CachedBackend::TouchLocked(const std::string& /*name*/, Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

void CachedBackend::RemoveEntryLocked(const std::string& name) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return;
  mem_bytes_ -= it->second.data->size();
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void CachedBackend::EvictOverMemBudgetLocked() {
  while (mem_bytes_ > options_.mem_budget_bytes && !lru_.empty()) {
    const std::string victim = lru_.back(); // a copy: removal frees it
    trace::Span span("cache.evict", "cache");
    ++counters_.evictions_mem;
    RemoveEntryLocked(victim);
  }
}

void CachedBackend::InsertLocked(const std::string& name, SharedBytes data) {
  lru_.push_front(name);
  Entry entry;
  entry.stamp_ms = NowMs();
  entry.lru_it = lru_.begin();
  mem_bytes_ += data->size();
  entry.data = std::move(data);
  entries_.emplace(name, std::move(entry));
  EvictOverMemBudgetLocked();
}

std::uint64_t CachedBackend::BeginFlightLocked(const std::string& name) {
  Flight& flight = flights_[name];
  ++flight.callers;
  return flight.seq;
}

bool CachedBackend::EndFlightLocked(const std::string& name,
                                    std::uint64_t seq_before) {
  const auto it = flights_.find(name);
  const bool fresh = it->second.seq == seq_before;
  if (--it->second.callers == 0) flights_.erase(it);
  return fresh;
}

void CachedBackend::BumpFlightLocked(const std::string& name) {
  if (const auto it = flights_.find(name); it != flights_.end()) {
    ++it->second.seq;
  }
}

// ---- read path --------------------------------------------------------------

Result<Bytes> CachedBackend::Get(const std::string& name) {
  NEXUS_ASSIGN_OR_RETURN(const SharedBytes data, GetShared(name));
  return *data;
}

Result<SharedBytes> CachedBackend::GetShared(const std::string& name) {
  std::uint64_t seq_before = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) {
      if (EntryValidLocked(it->second)) {
        trace::Span span("cache.hit_mem", "cache");
        TouchLocked(name, it->second);
        ++counters_.mem_hits;
        return it->second.data;
      }
      RemoveEntryLocked(name); // expired
    }
    ++counters_.misses;
    seq_before = BeginFlightLocked(name);
  }
  trace::Span span("cache.miss", "cache");
  Result<Bytes> fetched = inner_->Get(name);
  const std::lock_guard<std::mutex> lock(mu_);
  // Only install what we read if no local write arrived while the fetch
  // was in flight — otherwise the bytes are already stale.
  const bool fresh = EndFlightLocked(name, seq_before);
  if (!fetched.ok()) return fetched.status();
  SharedBytes shared = Share(std::move(fetched).value());
  if (fresh) {
    RemoveEntryLocked(name);
    InsertLocked(name, shared);
  }
  return shared;
}

bool CachedBackend::Exists(const std::string& name) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it != entries_.end() && EntryValidLocked(it->second)) return true;
  }
  return inner_->Exists(name);
}

Result<storage::StorageBackend::Head> CachedBackend::GetHead(
    const std::string& name, std::size_t max_bytes) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it != entries_.end() && EntryValidLocked(it->second)) {
      return HeadOf(*it->second.data, max_bytes);
    }
  }
  return inner_->GetHead(name, max_bytes);
}

std::vector<std::string> CachedBackend::List(const std::string& prefix) {
  return inner_->List(prefix);
}

// ---- write path -------------------------------------------------------------

Status CachedBackend::Put(const std::string& name, ByteSpan data) {
  // Write-through: the bytes reach the inner store before Put returns, so
  // stores land in the order the client issued them.
  NEXUS_RETURN_IF_ERROR(inner_->Put(name, data));
  const std::lock_guard<std::mutex> lock(mu_);
  RemoveEntryLocked(name);
  BumpFlightLocked(name);
  // Our own write is the freshest value we can know; keep it for ttl_ms.
  InsertLocked(name, Share(ToBytes(data)));
  return Status::Ok();
}

Status CachedBackend::Delete(const std::string& name) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    RemoveEntryLocked(name);
    BumpFlightLocked(name);
  }
  return inner_->Delete(name);
}

class CachedPutStream final : public storage::StorageBackend::PutStream {
 public:
  CachedPutStream(CachedBackend& cache, std::string name,
                  std::unique_ptr<storage::StorageBackend::PutStream> inner)
      : cache_(cache), name_(std::move(name)), inner_(std::move(inner)) {}

  Status Append(ByteSpan data) override { return inner_->Append(data); }

  Status Commit() override {
    const Status st = inner_->Commit();
    if (st.ok()) cache_.OnStreamCommitted(name_);
    return st;
  }

  void Abort() override { inner_->Abort(); }

 private:
  CachedBackend& cache_;
  std::string name_;
  std::unique_ptr<storage::StorageBackend::PutStream> inner_;
};

Result<std::unique_ptr<storage::StorageBackend::PutStream>>
CachedBackend::OpenPutStream(const std::string& name) {
  auto inner_stream = inner_->OpenPutStream(name);
  if (!inner_stream.ok()) return inner_stream.status();
  return std::unique_ptr<PutStream>(new CachedPutStream(
      *this, name, std::move(inner_stream.value())));
}

void CachedBackend::OnStreamCommitted(const std::string& name) {
  // The stream's bytes went straight to the inner store; whatever the
  // cache holds for that name is stale now.
  const std::lock_guard<std::mutex> lock(mu_);
  BumpFlightLocked(name);
  RemoveEntryLocked(name);
}

// ---- observability / test hooks ---------------------------------------------

CacheCounters CachedBackend::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::size_t CachedBackend::mem_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return mem_bytes_;
}

std::size_t CachedBackend::inflight_names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

void CachedBackend::DropCleanEntries() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  mem_bytes_ = 0;
}

} // namespace nexus::cache
