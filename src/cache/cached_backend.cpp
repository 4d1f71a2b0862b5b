#include "cache/cached_backend.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "crypto/hmac.hpp"
#include "trace/trace.hpp"

namespace nexus::cache {

namespace {

constexpr std::uint32_t kIndexMagic = 0x4e584331; // "NXC1"
constexpr std::size_t kMacBytes = 32;
constexpr std::uint32_t kMaxIndexEntries = 1u << 20;
// Log records between full-index compactions. Every mutation in between
// costs one O(record) append instead of an O(index) rewrite.
constexpr unsigned kLogCompactEvery = 1024;
// Log record ops.
constexpr std::uint8_t kLogInsert = 1;
constexpr std::uint8_t kLogRemove = 2;

Result<Bytes> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error(ErrorCode::kNotFound, "no such file: " + path);
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  if (in.bad()) return Error(ErrorCode::kIOError, "read failed: " + path);
  return data;
}

// Tiny little-endian serializer for the disk index. The cache sits BELOW
// the net layer in the dependency graph, so it cannot borrow the wire
// codec; the index never crosses a trust boundary anyway (the MAC covers
// corruption, not hostility).
struct IndexWriter {
  Bytes out;
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) out.push_back(static_cast<std::uint8_t>(c));
  }
};

struct IndexReader {
  ByteSpan in;
  std::size_t pos = 0;
  bool failed = false;
  std::uint32_t U32() {
    if (failed || in.size() - pos < 4) {
      failed = true;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{in[pos++]} << (8 * i);
    return v;
  }
  std::uint64_t U64() {
    if (failed || in.size() - pos < 8) {
      failed = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{in[pos++]} << (8 * i);
    return v;
  }
  std::string Str() {
    const std::uint32_t len = U32();
    if (failed || in.size() - pos < len) {
      failed = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(in.data()) + pos, len);
    pos += len;
    return s;
  }
};

bool WriteFileAtomic(const std::string& tmp_path, const std::string& final_path,
                     ByteSpan data) {
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out) {
      std::error_code rm;
      std::filesystem::remove(tmp_path, rm);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp_path, rm);
    return false;
  }
  return true;
}

} // namespace

// ---- construction / teardown ------------------------------------------------

CachedBackend::CachedBackend(std::unique_ptr<storage::StorageBackend> inner,
                             CacheOptions options)
    : options_(std::move(options)), inner_(std::move(inner)) {
  if (options_.mem_budget_bytes == 0) {
    options_.mem_budget_bytes =
        EnvUnsigned("NEXUS_CACHE_MEM_BUDGET", 64u << 20);
  }
  if (options_.disk_budget_bytes == 0) {
    options_.disk_budget_bytes =
        EnvUnsigned("NEXUS_CACHE_DISK_BUDGET", 256u << 20);
  }
  if (options_.ttl_ms == 0) {
    options_.ttl_ms = EnvUnsigned("NEXUS_CACHE_TTL_MS", 5000);
  }
  if (!options_.disk_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.disk_dir, ec);
    if (!ec) {
      disk_enabled_ = true;
      const std::lock_guard<std::mutex> lock(mu_);
      LoadDiskTierLocked();
    }
  }
  lease_mode_ = inner_->SubscribeInvalidations(
      [this](const std::vector<std::string>& names) { OnInvalidate(names); },
      [this] { OnChannelDown(); });
  {
    const std::lock_guard<std::mutex> lock(mu_);
    channel_up_ = lease_mode_;
  }
}

CachedBackend::~CachedBackend() {
  // Persist the index; inner_ is declared last so it is destroyed first
  // afterwards, joining its callback threads while the rest of the cache
  // is still alive.
  (void)Flush();
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

void CachedBackend::RemoveEntryLocked(const std::string& name, bool demote) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  mem_bytes_ -= entry.data->size();
  lru_.erase(entry.lru_it);
  if (demote && disk_enabled_) {
    // A leased entry was valid this very moment, so its TTL restarts now;
    // a clean entry keeps its original stamp.
    const std::uint64_t stamp =
        entry.state == Entry::State::kLeased ? NowMs() : entry.stamp_ms;
    DiskInsertLocked(name, *entry.data, stamp);
  }
  entries_.erase(it);
}

void CachedBackend::EvictOverMemBudgetLocked() {
  while (mem_bytes_ > options_.mem_budget_bytes && !lru_.empty()) {
    const std::string victim = lru_.back(); // a copy: removal frees it
    trace::Span span("cache.evict", "cache");
    ++counters_.evictions_mem;
    RemoveEntryLocked(victim, /*demote=*/true);
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

// ---- read path --------------------------------------------------------------

SharedBytes CachedBackend::TryDiskHitLocked(const std::string& name) {
  if (!disk_enabled_) return nullptr;
  const auto it = disk_entries_.find(name);
  if (it == disk_entries_.end()) return nullptr;
  if (NowMs() >= it->second.stamp_ms + options_.ttl_ms) {
    DiskRemoveLocked(name);
    return nullptr;
  }
  auto data = DiskReadLocked(name);
  if (!data.ok()) {
    DiskRemoveLocked(name);
    return nullptr;
  }
  trace::Span span("cache.hit_disk", "cache");
  ++counters_.disk_hits;
  // Promote to the memory tier, TTL continuing from the disk stamp.
  SharedBytes shared = Share(std::move(data).value());
  InsertCleanLocked(name, shared, Entry::State::kClean, it->second.stamp_ms);
  return shared;
}

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
      RemoveEntryLocked(name, /*demote=*/false); // expired
    }
    if (SharedBytes disk = TryDiskHitLocked(name)) return disk;
    ++counters_.misses;
    seq_before = inval_seq_[name];
  }
  trace::Span span("cache.miss", "cache");
  bool leased = false;
  Result<Bytes> fetched = inner_->GetLeased(name, &leased);
  if (!fetched.ok()) return fetched.status();
  SharedBytes shared = Share(std::move(fetched).value());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Only install what we read if no invalidation (or local write) arrived
    // while the fetch was in flight — otherwise the bytes are already stale.
    if (inval_seq_[name] == seq_before) {
      RemoveEntryLocked(name, /*demote=*/false);
      InsertCleanLocked(name, shared,
                        leased && channel_up_ ? Entry::State::kLeased
                                              : Entry::State::kClean,
                        NowMs());
    }
  }
  return shared;
}

bool CachedBackend::Exists(const std::string& name) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it != entries_.end() && EntryValidLocked(it->second)) return true;
    if (disk_enabled_) {
      const auto dit = disk_entries_.find(name);
      if (dit != disk_entries_.end() &&
          NowMs() < dit->second.stamp_ms + options_.ttl_ms) {
        return true;
      }
    }
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
    seq_before = inval_seq_[name];
  }
  bool write_lease = false;
  const Status st = lease_mode_ ? inner_->PutLeased(name, data, &write_lease)
                                : inner_->Put(name, data);
  if (!st.ok()) return st;
  const std::lock_guard<std::mutex> lock(mu_);
  DiskRemoveLocked(name);
  RemoveEntryLocked(name, /*demote=*/false);
  const bool fresh = inval_seq_[name] == seq_before;
  ++inval_seq_[name];
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
    RemoveEntryLocked(name, /*demote=*/false);
    DiskRemoveLocked(name);
    ++inval_seq_[name];
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
  ++inval_seq_[name];
  RemoveEntryLocked(name, /*demote=*/false);
  DiskRemoveLocked(name);
}

Status CachedBackend::Flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  PersistDiskIndexLocked();
  return Status::Ok();
}

// ---- coherence callbacks ----------------------------------------------------

void CachedBackend::OnInvalidate(const std::vector<std::string>& names) {
  trace::Span span("cache.invalidate", "cache");
  const std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : names) {
    ++inval_seq_[name];
    ++counters_.invalidations_received;
    RemoveEntryLocked(name, /*demote=*/false);
    DiskRemoveLocked(name);
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

void CachedBackend::DropCleanEntries() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  mem_bytes_ = 0;
  std::vector<std::string> disk_victims;
  for (const auto& [name, entry] : disk_entries_) disk_victims.push_back(name);
  for (const std::string& name : disk_victims) DiskRemoveLocked(name);
}

// ---- disk tier --------------------------------------------------------------

std::string CachedBackend::DiskPathFor(const std::string& name) const {
  return options_.disk_dir + "/" + storage::EscapeName(name);
}

void CachedBackend::DiskInsertLocked(const std::string& name, ByteSpan data,
                                     std::uint64_t stamp_ms) {
  if (!disk_enabled_ || data.size() > options_.disk_budget_bytes) return;
  const std::string tmp = options_.disk_dir + "/.ctmp-" +
                          std::to_string(disk_temp_seq_++);
  if (!WriteFileAtomic(tmp, DiskPathFor(name), data)) return;
  const auto it = disk_entries_.find(name);
  if (it != disk_entries_.end()) {
    disk_bytes_ -= it->second.size;
    disk_lru_.erase(it->second.lru_it);
    disk_entries_.erase(it);
  }
  disk_lru_.push_front(name);
  DiskEntry entry;
  entry.size = data.size();
  entry.stamp_ms = stamp_ms;
  entry.lru_it = disk_lru_.begin();
  disk_bytes_ += entry.size;
  disk_entries_.emplace(name, entry);
  while (disk_bytes_ > options_.disk_budget_bytes && !disk_lru_.empty()) {
    const std::string victim = disk_lru_.back();
    ++counters_.evictions_disk;
    DiskRemoveLocked(victim);
  }
  AppendDiskLogLocked(kLogInsert, name, data.size());
}

void CachedBackend::DiskRemoveLocked(const std::string& name) {
  if (!disk_enabled_) return;
  const auto it = disk_entries_.find(name);
  if (it == disk_entries_.end()) return;
  disk_bytes_ -= it->second.size;
  disk_lru_.erase(it->second.lru_it);
  disk_entries_.erase(it);
  std::error_code ec;
  std::filesystem::remove(DiskPathFor(name), ec);
  AppendDiskLogLocked(kLogRemove, name, 0);
}

void CachedBackend::AppendDiskLogLocked(std::uint8_t op,
                                        const std::string& name,
                                        std::uint64_t size) {
  // One record: [u32 body length][body][32-byte HMAC(body)]. A torn or
  // corrupt record ends the load-time replay — everything before it
  // stands, and any data file past it is swept as an orphan.
  IndexWriter body;
  body.out.push_back(op);
  body.U64(size);
  body.Str(name);
  const auto mac = crypto::HmacSha256(disk_mac_key_, body.out);
  IndexWriter record;
  record.U32(static_cast<std::uint32_t>(body.out.size()));
  Append(record.out, body.out);
  Append(record.out, ByteSpan(mac.data(), mac.size()));
  {
    std::ofstream log(options_.disk_dir + "/.cache-log",
                      std::ios::binary | std::ios::app);
    if (log) {
      log.write(reinterpret_cast<const char*>(record.out.data()),
                static_cast<std::streamsize>(record.out.size()));
      log.flush();
    }
  }
  if (++disk_log_records_ >= kLogCompactEvery) {
    PersistDiskIndexLocked(); // compaction: full base rewrite + log reset
  }
}

Result<Bytes> CachedBackend::DiskReadLocked(const std::string& name) {
  const auto it = disk_entries_.find(name);
  if (it == disk_entries_.end()) {
    return Error(ErrorCode::kNotFound, "not in disk tier: " + name);
  }
  auto data = ReadWholeFile(DiskPathFor(name));
  if (data.ok() && data.value().size() != it->second.size) {
    return Error(ErrorCode::kIntegrityViolation,
                 "disk tier size mismatch: " + name);
  }
  if (data.ok()) disk_lru_.splice(disk_lru_.begin(), disk_lru_, it->second.lru_it);
  return data;
}

void CachedBackend::PersistDiskIndexLocked() {
  if (!disk_enabled_) return;
  IndexWriter payload;
  payload.U32(kIndexMagic);
  payload.U32(static_cast<std::uint32_t>(disk_entries_.size()));
  // LRU order (MRU first) so a reload preserves eviction priority.
  for (const std::string& name : disk_lru_) {
    payload.Str(name);
    payload.U64(disk_entries_.at(name).size);
  }
  const auto mac = crypto::HmacSha256(disk_mac_key_, payload.out);
  Bytes file;
  Append(file, ByteSpan(mac.data(), mac.size()));
  Append(file, payload.out);
  WriteFileAtomic(options_.disk_dir + "/.cache-index.tmp",
                  options_.disk_dir + "/.cache-index", file);
  // The base image now covers every mutation the log recorded: truncate
  // it. (Order matters: a crash between rename and truncate replays log
  // records that are already in the base, which is idempotent.)
  std::ofstream(options_.disk_dir + "/.cache-log",
                std::ios::binary | std::ios::trunc);
  disk_log_records_ = 0;
}

void CachedBackend::LoadDiskTierLocked() {
  // MAC key: created on first use, persisted beside the index. It detects
  // corruption only — the cache holds ciphertext and sits outside the TCB,
  // so a forged index can at worst cause misses or enclave-detected junk.
  const std::string key_path = options_.disk_dir + "/.cache-key";
  if (auto key = ReadWholeFile(key_path); key.ok() && key.value().size() == 32) {
    disk_mac_key_ = std::move(key.value());
  } else {
    disk_mac_key_.resize(32);
    std::random_device rd;
    for (auto& b : disk_mac_key_) b = static_cast<std::uint8_t>(rd());
    WriteFileAtomic(options_.disk_dir + "/.cache-key.tmp", key_path,
                    disk_mac_key_);
  }

  const std::uint64_t now = NowMs();
  auto index = ReadWholeFile(options_.disk_dir + "/.cache-index");
  if (index.ok() && index.value().size() >= kMacBytes) {
    const ByteSpan whole(index.value());
    const ByteSpan mac = whole.subspan(0, kMacBytes);
    const ByteSpan payload = whole.subspan(kMacBytes);
    const auto expect = crypto::HmacSha256(disk_mac_key_, payload);
    if (std::equal(mac.begin(), mac.end(), expect.begin(), expect.end())) {
      IndexReader reader{payload};
      const std::uint32_t magic = reader.U32();
      const std::uint32_t count = reader.U32();
      if (!reader.failed && magic == kIndexMagic && count <= kMaxIndexEntries) {
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::string name = reader.Str();
          const std::uint64_t size = reader.U64();
          if (reader.failed) break; // truncated index: stop here
          std::error_code ec;
          const auto on_disk = std::filesystem::file_size(DiskPathFor(name), ec);
          if (ec || on_disk != size) continue; // discarded below
          disk_lru_.push_back(name); // index is MRU-first
          DiskEntry entry;
          entry.size = size;
          // Entries inherit a fresh TTL at load: coherence while we were
          // down is unknowable, so staleness is bounded the same way as
          // lease-less mode.
          entry.stamp_ms = now;
          entry.lru_it = std::prev(disk_lru_.end());
          disk_bytes_ += entry.size;
          disk_entries_.emplace(name, entry);
        }
      }
    }
  }

  // Replay the mutation log on top of the base image, in order. Each
  // record carries its own MAC; the first torn or corrupt record ends the
  // replay (everything past it is unaccounted and swept below). Inserts
  // move the name to the MRU front — the log is chronological, so the
  // final order is the true recency order.
  if (auto log = ReadWholeFile(options_.disk_dir + "/.cache-log"); log.ok()) {
    const ByteSpan raw(log.value());
    std::size_t pos = 0;
    while (pos + 4 <= raw.size()) {
      IndexReader len_reader{raw.subspan(pos, 4)};
      const std::uint32_t body_len = len_reader.U32();
      if (body_len == 0 || body_len > (1u << 16) ||
          pos + 4 + body_len + kMacBytes > raw.size()) {
        break; // torn tail
      }
      const ByteSpan body = raw.subspan(pos + 4, body_len);
      const ByteSpan mac = raw.subspan(pos + 4 + body_len, kMacBytes);
      const auto expect = crypto::HmacSha256(disk_mac_key_, body);
      if (!std::equal(mac.begin(), mac.end(), expect.begin(), expect.end())) {
        break; // corrupt record: nothing after it can be trusted
      }
      pos += 4 + body_len + kMacBytes;
      if (body.empty()) break;
      const std::uint8_t op = body[0];
      IndexReader body_reader{body.subspan(1)};
      const std::uint64_t size = body_reader.U64();
      const std::string name = body_reader.Str();
      if (body_reader.failed) break;
      const auto it = disk_entries_.find(name);
      if (it != disk_entries_.end()) {
        disk_bytes_ -= it->second.size;
        disk_lru_.erase(it->second.lru_it);
        disk_entries_.erase(it);
      }
      if (op == kLogInsert) {
        std::error_code ec;
        const auto on_disk = std::filesystem::file_size(DiskPathFor(name), ec);
        if (ec || on_disk != size) continue; // file lost or torn: skip
        disk_lru_.push_front(name);
        DiskEntry entry;
        entry.size = size;
        entry.stamp_ms = now; // same fresh-TTL rule as base entries
        entry.lru_it = disk_lru_.begin();
        disk_bytes_ += entry.size;
        disk_entries_.emplace(name, entry);
      }
      // kLogRemove (and unknown ops): the erase above is the whole effect.
    }
  }

  // Crash recovery: delete any data file the (MAC-verified) index cannot
  // account for — a crash between a data write and the index update means
  // the inner store is the source of truth for those objects.
  std::error_code ec;
  for (const auto& dirent :
       std::filesystem::directory_iterator(options_.disk_dir, ec)) {
    std::error_code stat_ec;
    if (!dirent.is_regular_file(stat_ec) || stat_ec) continue;
    const std::string file = dirent.path().filename().string();
    if (file.empty() || file.front() == '.') continue; // our metadata
    if (disk_entries_.contains(storage::UnescapeName(file))) continue;
    std::error_code rm;
    std::filesystem::remove(dirent.path(), rm);
  }

  while (disk_bytes_ > options_.disk_budget_bytes && !disk_lru_.empty()) {
    DiskRemoveLocked(disk_lru_.back());
  }
}

} // namespace nexus::cache
