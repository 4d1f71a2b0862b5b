#include "cache/cached_backend.hpp"

#include "common/clock.hpp"
#include "trace/trace.hpp"

namespace nexus::cache {

// ---- construction -----------------------------------------------------------

CachedBackend::CachedBackend(std::unique_ptr<storage::StorageBackend> inner,
                             CacheOptions options)
    : options_(std::move(options)), inner_(std::move(inner)) {
  lease_mode_ = inner_->SubscribeInvalidations(
      [this](const std::vector<std::string>& names) { OnInvalidate(names); },
      [this] { OnChannelDown(); });
  {
    const std::lock_guard<std::mutex> lock(mu_);
    channel_up_ = lease_mode_;
  }
}

// ---- small helpers ----------------------------------------------------------

std::uint64_t CachedBackend::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return MonotonicNanos() / 1000000u;
}

bool CachedBackend::EntryValidLocked(const Entry& entry) const {
  switch (entry.state) {
    case Entry::State::kLeased: return channel_up_;
    case Entry::State::kClean:
      return NowMs() < entry.stamp_ms + options_.ttl_ms;
  }
  return false;
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

void CachedBackend::InsertCleanLocked(const std::string& name,
                                      SharedBytes data,
                                      Entry::State state,
                                      std::uint64_t stamp_ms) {
  lru_.push_front(name);
  Entry entry;
  entry.state = state;
  entry.stamp_ms = stamp_ms;
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
  bool leased = false;
  Result<Bytes> fetched = inner_->GetLeased(name, &leased);
  const std::lock_guard<std::mutex> lock(mu_);
  // Only install what we read if no invalidation (or local write) arrived
  // while the fetch was in flight — otherwise the bytes are already stale.
  const bool fresh = EndFlightLocked(name, seq_before);
  if (!fetched.ok()) return fetched.status();
  SharedBytes shared = Share(std::move(fetched).value());
  if (fresh) {
    RemoveEntryLocked(name);
    InsertCleanLocked(name, shared,
                      leased && channel_up_ ? Entry::State::kLeased
                                            : Entry::State::kClean,
                      NowMs());
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
  std::uint64_t seq_before = 0;
  if (lease_mode_) {
    const std::lock_guard<std::mutex> lock(mu_);
    seq_before = BeginFlightLocked(name);
  }
  bool write_lease = false;
  const Status st = lease_mode_ ? inner_->PutLeased(name, data, &write_lease)
                                : inner_->Put(name, data);
  const std::lock_guard<std::mutex> lock(mu_);
  const bool fresh = !lease_mode_ || EndFlightLocked(name, seq_before);
  if (!st.ok()) return st;
  RemoveEntryLocked(name);
  BumpFlightLocked(name);
  if (!lease_mode_) {
    // TTL mode: our own write is the freshest value we can know; cache it
    // for the staleness window.
    InsertCleanLocked(name, Share(ToBytes(data)), Entry::State::kClean,
                      NowMs());
  } else if (write_lease && channel_up_ && fresh) {
    // The server granted a WRITE lease: we keep our own bytes
    // and will be invalidated only when ANOTHER client mutates the name —
    // not by our own write. `fresh` guards the race where a concurrent
    // writer's invalidation arrived between our Put and this insert: the
    // grant was already broken, so installing would retain stale bytes.
    InsertCleanLocked(name, Share(ToBytes(data)), Entry::State::kLeased,
                      NowMs());
  }
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

// ---- coherence callbacks ----------------------------------------------------

void CachedBackend::OnInvalidate(const std::vector<std::string>& names) {
  trace::Span span("cache.invalidate", "cache");
  const std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : names) {
    BumpFlightLocked(name);
    ++counters_.invalidations_received;
    RemoveEntryLocked(name);
  }
}

void CachedBackend::OnChannelDown() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!channel_up_) return;
  channel_up_ = false;
  // No more invalidations will arrive: every lease degrades to a TTL
  // stamped now, bounding staleness at ttl_ms like lease-less mode.
  const std::uint64_t now = NowMs();
  for (auto& [name, entry] : entries_) {
    if (entry.state == Entry::State::kLeased) {
      entry.state = Entry::State::kClean;
      entry.stamp_ms = now;
    }
  }
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
