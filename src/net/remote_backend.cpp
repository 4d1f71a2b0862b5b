#include "net/remote_backend.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>
#include <utility>

#include "cache/cache_counters.hpp"
#include "common/clock.hpp"
#include "trace/trace.hpp"

namespace nexus::net {

namespace {

std::uint64_t Mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t EnvSize(const char* name, std::size_t fallback, bool* found) {
  if (found != nullptr) *found = false;
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return fallback;
  if (found != nullptr) *found = true;
  return static_cast<std::size_t>(v);
}

} // namespace

std::size_t DefaultRpcWindow() {
  const std::size_t w = EnvSize("NEXUS_RPC_WINDOW", 8, nullptr);
  return std::clamp<std::size_t>(w, 1, 256);
}

std::size_t DefaultReadaheadBudgetBytes() {
  bool found = false;
  const std::size_t b = EnvSize("NEXUS_READAHEAD_BUDGET", 0, &found);
  return found ? b : (32u << 20); // explicit 0 disables readahead
}

RemoteBackend::RemoteBackend(TransportFactory factory,
                             RemoteBackendOptions options)
    : factory_(std::move(factory)), options_(options),
      rpc_window_(options.rpc_window != 0
                      ? std::clamp<std::size_t>(options.rpc_window, 1, 256)
                      : DefaultRpcWindow()),
      readahead_budget_(options.readahead_budget_bytes != 0
                            ? options.readahead_budget_bytes
                            : DefaultReadaheadBudgetBytes()),
      jitter_state_(options.jitter_seed) {}

RemoteBackend::~RemoteBackend() {
  // Silence the callback channel first: after this no invalidation or
  // channel-down callback can fire against a half-dead backend.
  lease_shutdown_.store(true, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    if (lease_transport_ != nullptr) lease_transport_->Shutdown();
  }
  if (lease_thread_.joinable()) lease_thread_.join();
  // Then tear down every connection: their demux threads run delivery and
  // prefetch hooks that touch this object's counters and sink.
  std::vector<std::shared_ptr<MuxConnection>> conns;
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    conns.swap(pool_);
  }
  conns.clear(); // joins each demux thread still referencing this object
}

Result<std::unique_ptr<RemoteBackend>> RemoteBackend::Connect(
    const std::string& host, std::uint16_t port, RemoteBackendOptions options) {
  const int connect_ms = options.connect_deadline_ms;
  const int rpc_ms = options.rpc_deadline_ms;
  auto factory = [host, port, connect_ms, rpc_ms]()
      -> Result<std::unique_ptr<Transport>> {
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> t,
                           TcpTransport::Dial(host, port, connect_ms, rpc_ms));
    return std::unique_ptr<Transport>(std::move(t));
  };
  if (!options.lease_transport_factory) {
    // The callback channel sits idle in RecvFrame between pushes, so it
    // must dial WITHOUT an I/O deadline — the data-path deadline would
    // kill a perfectly healthy subscription.
    options.lease_transport_factory = [host, port, connect_ms]()
        -> Result<std::unique_ptr<Transport>> {
      NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> t,
                             TcpTransport::Dial(host, port, connect_ms, -1));
      return std::unique_ptr<Transport>(std::move(t));
    };
  }
  auto backend =
      std::make_unique<RemoteBackend>(std::move(factory), options);
  NEXUS_RETURN_IF_ERROR(backend->Ping());
  return backend;
}

// ---- retry discipline -------------------------------------------------------

void RemoteBackend::NoteFailure() {
  failure_streak_.fetch_add(1, std::memory_order_relaxed);
}

void RemoteBackend::NoteSuccess() {
  // Any delivered, well-formed response proves the path works again, so
  // the NEXT failure backs off from the base delay — one transient blip
  // must not inflate every later retry on a long-lived backend.
  failure_streak_.store(0, std::memory_order_relaxed);
}

void RemoteBackend::Backoff() {
  // Bounded exponential with jitter in [0.5, 1.0): a streak of k
  // consecutive failures sleeps roughly base * 2^(k-1), capped, and
  // jittered so a fleet of clients hammered by the same outage does not
  // retry in lockstep.
  const int streak =
      std::max(1, failure_streak_.load(std::memory_order_relaxed));
  int delay = options_.backoff_base_ms;
  for (int i = 1; i < streak && delay < options_.backoff_cap_ms; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options_.backoff_cap_ms);
  double jitter;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    jitter = 0.5 + 0.5 * (static_cast<double>(Mix(jitter_state_) >> 11) *
                          0x1.0p-53);
  }
  const int ms = std::max(1, static_cast<int>(delay * jitter));
  if (options_.sleep_ms) {
    options_.sleep_ms(ms);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

void RemoteBackend::CountRetry() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.retries;
  }
  NetCounters delta;
  delta.retries = 1;
  GlobalNetAdd(delta);
}

// ---- connection pool --------------------------------------------------------

std::uint64_t RemoteBackend::lease_session() const noexcept {
  return lease_session_.load(std::memory_order_acquire);
}

std::shared_ptr<MuxConnection> RemoteBackend::NewConnection(
    std::unique_ptr<Transport> transport) {
  // Client rpcs/bytes/latency are counted at DELIVERY time, in the mux's
  // one routing routine — the one place every response passes, demand and
  // speculative alike — so the client's view stays in exact agreement with
  // the server's rpcs_served even while prefetched responses sit
  // unconsumed.
  auto hook = [this](std::size_t request_bytes, std::size_t response_bytes,
                     std::uint64_t start_ns) {
    const double ms =
        static_cast<double>(MonotonicNanos() - start_ns) * 1e-6;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++counters_.rpcs;
      counters_.bytes_sent += request_bytes + 4;
      counters_.bytes_received += response_bytes + 4;
    }
    NetCounters delta;
    delta.rpcs = 1;
    delta.bytes_sent = request_bytes + 4;
    delta.bytes_received = response_bytes + 4;
    GlobalNetAdd(delta);
    GlobalNetRecordLatencyMs(ms);
  };
  return std::make_shared<MuxConnection>(std::move(transport), rpc_window_,
                                         std::move(hook));
}

void RemoteBackend::AttachLease(MuxConnection& conn) {
  const std::uint64_t sid = lease_session();
  if (sid == 0) return;
  Writer req = BeginRequest(Rpc::kLeaseAttach);
  req.U64(sid);
  auto slot = conn.Submit(req.bytes());
  // Best effort: an unattached connection still works, the server just
  // cannot tell our own writes from a stranger's (we self-invalidate).
  if (slot != nullptr) (void)slot->Wait();
}

Result<std::shared_ptr<MuxConnection>> RemoteBackend::AcquireConnection(
    bool is_retry) {
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    // Prune broken connections so their demux threads wind down and a
    // retry never lands back on the transport that just failed it.
    std::erase_if(pool_, [](const auto& conn) { return conn->broken(); });
    std::shared_ptr<MuxConnection> spare;    // least-loaded with room
    std::shared_ptr<MuxConnection> fallback; // least-loaded overall
    std::size_t spare_load = 0;
    std::size_t fallback_load = 0;
    for (const auto& conn : pool_) {
      const std::size_t load = conn->inflight();
      if (fallback == nullptr || load < fallback_load) {
        fallback = conn;
        fallback_load = load;
      }
      if (load < conn->window() && (spare == nullptr || load < spare_load)) {
        spare = conn;
        spare_load = load;
      }
    }
    if (spare != nullptr) return spare;
    if (pool_.size() >= options_.max_pooled_connections &&
        fallback != nullptr) {
      // Every window is full and the pool is at capacity: share the
      // least-loaded connection; Submit blocks until a slot frees up.
      return fallback;
    }
  }
  // Dial outside the lock — a slow handshake must not stall siblings.
  NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<Transport> fresh, factory_());
  if (is_retry) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++counters_.reconnects;
    }
    NetCounters delta;
    delta.reconnects = 1;
    GlobalNetAdd(delta);
  }
  auto conn = NewConnection(std::move(fresh));
  // Tie the data connection to the lease session BEFORE publishing it so
  // RPCs racing onto it are already recognizable as ours.
  AttachLease(*conn);
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    if (pool_.size() < options_.max_pooled_connections) pool_.push_back(conn);
    // max_pooled_connections == 0: never pooled — the caller's shared_ptr
    // keeps the connection alive for exactly one call (fault tests rely
    // on one fault schedule per RPC).
  }
  return conn;
}

// ---- the RPC engine ---------------------------------------------------------

Result<Bytes> RemoteBackend::Call(const Writer& request, bool* ambiguous) {
  const std::uint64_t corr = RequestCorrelation(request.bytes());
  trace::Span span(RpcName(RequestRpc(request.bytes())), "net.client");
  span.SetCorrelation(corr);

  Status last = Error(ErrorCode::kIOError, "rpc never attempted");
  bool ambig = false;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      CountRetry();
      Backoff();
    }
    auto acquired = AcquireConnection(attempt > 0);
    if (!acquired.ok()) {
      NoteFailure();
      last = acquired.status();
      continue;
    }
    std::shared_ptr<MuxConnection> conn = std::move(acquired).value();

    auto slot = conn->Submit(request.bytes());
    if (slot == nullptr) {
      // The connection broke between acquisition and send; nothing of
      // ours hit the wire.
      NoteFailure();
      last = Error(ErrorCode::kIOError, "connection broke before send");
      continue;
    }
    auto response = slot->Wait();
    if (!response.ok()) {
      // Whole-connection failure. Ambiguous only if OUR frame was fully
      // sent — a sibling's failure mid-window does not put this request
      // on the server.
      ambig |= slot->sent.load(std::memory_order_acquire);
      NoteFailure();
      last = response.status();
      continue;
    }
    Reader reader(response.value());
    Status verdict = Status::Ok();
    std::uint64_t echoed = 0;
    const Status parsed = ParseResponseHead(reader, &verdict, &echoed);
    if (!parsed.ok() || echoed != corr) {
      // Delivered but untrustworthy: the mux routed it here by its
      // correlation bytes, yet the head does not hold up. Protocol
      // desync — poison the connection so the siblings re-home too.
      ambig = true;
      NoteFailure();
      last = parsed.ok() ? Error(ErrorCode::kIOError,
                                 "correlation mismatch: sent " +
                                     std::to_string(corr) + ", got " +
                                     std::to_string(echoed))
                         : parsed;
      conn->Poison(last);
      continue;
    }

    NoteSuccess();
    if (ambiguous != nullptr) *ambiguous = ambig;
    // The server's verdict — success or not — is authoritative.
    NEXUS_RETURN_IF_ERROR(verdict);
    return reader.Raw(reader.Remaining());
  }
  if (ambiguous != nullptr) *ambiguous = ambig;
  return last;
}

Status RemoteBackend::Ping() {
  return Call(BeginRequest(Rpc::kPing)).status();
}

Result<ServerStats> RemoteBackend::Stats() {
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(BeginRequest(Rpc::kStats)));
  Reader reader(payload);
  NEXUS_ASSIGN_OR_RETURN(ServerStats stats, DecodeServerStats(reader));
  if (!reader.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing bytes after stats");
  }
  return stats;
}

// ---- whole-object ops -------------------------------------------------------

Result<Bytes> RemoteBackend::Get(const std::string& name) {
  return GetLeased(name, nullptr);
}

Result<Bytes> RemoteBackend::GetLeased(const std::string& name,
                                       bool* lease_granted) {
  if (lease_granted != nullptr) *lease_granted = false;
  // A demand read for a name already being speculated JOINS the in-flight
  // prefetch RPC instead of issuing a duplicate Get: the duplicate would
  // race the prefetch delivery into the cache tier, where the second
  // insert can evict a surviving entry. The join never takes a lease
  // (speculations ask for none) — the entry stays TTL-bounded, which only
  // costs coherence freshness, never correctness.
  std::shared_ptr<PrefetchFlight> flight;
  {
    const std::lock_guard<std::mutex> lock(prefetch_mu_);
    const auto it = prefetch_inflight_.find(name);
    if (it != prefetch_inflight_.end()) flight = it->second;
  }
  if (flight != nullptr) {
    std::unique_lock<std::mutex> lock(flight->mu);
    ++flight->waiters;
    const auto flight_done = [&] { return flight->done; };
    bool done = true;
    if (options_.rpc_deadline_ms > 0) {
      done = flight->cv.wait_for(
          lock, std::chrono::milliseconds(options_.rpc_deadline_ms + 1000),
          flight_done);
    } else {
      // No I/O deadline: a bounded wait could give up on a healthy flight
      // and re-fetch behind it. The flight always finishes — delivery,
      // failure or connection teardown all call FinishFlight.
      flight->cv.wait(lock, flight_done);
    }
    --flight->waiters;
    if (done && flight->verdict.ok() && flight->has_data) {
      Bytes data = flight->data; // copied: other joiners may want it too
      lock.unlock();
      {
        const std::lock_guard<std::mutex> count_lock(mu_);
        ++counters_.prefetch_joined;
      }
      cache::CacheCounters delta;
      delta.prefetch_joined = 1;
      cache::GlobalCacheAdd(delta);
      return data;
    }
    // Timed out, failed, withdrawn, or completed without retaining the
    // bytes: fall through to an ordinary demand fetch.
  }
  Writer req = BeginRequest(Rpc::kGet);
  req.Str(name);
  // The want-lease byte: the server only registers a holder (and pays the
  // break protocol later) when the caller will track the grant.
  req.U8(lease_granted != nullptr ? 1 : 0);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  Reader reader(payload);
  NEXUS_ASSIGN_OR_RETURN(Bytes data, reader.Var(kMaxObjectBytes));
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t granted, reader.U8());
  if (lease_granted != nullptr) *lease_granted = granted != 0;
  return data;
}

Status RemoteBackend::Put(const std::string& name, ByteSpan data) {
  return PutLeased(name, data, nullptr);
}

Status RemoteBackend::PutLeased(const std::string& name, ByteSpan data,
                                bool* lease_granted) {
  if (lease_granted != nullptr) *lease_granted = false;
  if (data.size() > kMaxObjectBytes) {
    return Error(ErrorCode::kInvalidArgument, "object too large: " + name);
  }
  Writer req = BeginRequest(Rpc::kPut);
  req.Str(name);
  req.Var(data);
  // The want-write-lease byte; as with Get, the server only registers a
  // holder when the caller will track the grant.
  req.U8(lease_granted != nullptr ? 1 : 0);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  Reader reader(payload);
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t granted, reader.U8());
  if (lease_granted != nullptr) *lease_granted = granted != 0;
  return Status::Ok();
}

Status RemoteBackend::Delete(const std::string& name) {
  Writer req = BeginRequest(Rpc::kDelete);
  req.Str(name);
  bool ambiguous = false;
  const Status verdict = Call(req, &ambiguous).status();
  if (verdict.code() == ErrorCode::kNotFound && ambiguous) {
    // An earlier attempt with unknown outcome plus "not found" now means
    // OUR delete (or a concurrent one) already won; either way the
    // object is gone, which is what the caller asked for.
    return Status::Ok();
  }
  return verdict;
}

bool RemoteBackend::Exists(const std::string& name) {
  Writer req = BeginRequest(Rpc::kExists);
  req.Str(name);
  auto payload = Call(req);
  // The StorageBackend contract cannot express transport failure here;
  // an unreachable server reports "absent", matching a store that lost
  // the object — callers treat both as a re-fetch/recreate signal.
  if (!payload.ok()) return false;
  Reader reader(payload.value());
  auto flag = reader.U8();
  return flag.ok() && flag.value() != 0;
}

std::vector<std::string> RemoteBackend::List(const std::string& prefix) {
  Writer req = BeginRequest(Rpc::kList);
  req.Str(prefix);
  auto payload = Call(req);
  std::vector<std::string> names;
  if (!payload.ok()) return names;
  Reader reader(payload.value());
  auto count = reader.U32();
  if (!count.ok()) return names;
  names.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto name = reader.Str();
    if (!name.ok()) {
      names.clear();
      return names;
    }
    names.push_back(std::move(name).value());
  }
  return names;
}

storage::StorageBackend::ListPage RemoteBackend::ListSome(
    const std::string& prefix, const std::string& start_after,
    std::size_t limit) {
  ListPage page;
  if (limit == 0) return page;
  // The server treats limits above kMaxMultiEntries as a protocol error;
  // clamp here so callers can pass any bound they like.
  const std::uint32_t capped = static_cast<std::uint32_t>(
      std::min<std::size_t>(limit, kMaxMultiEntries));
  Writer req = BeginRequest(Rpc::kListPage);
  req.Str(prefix);
  req.Str(start_after);
  req.U32(capped);
  auto payload = Call(req);
  // Same degradation as List(): an unreachable server reads as an empty
  // page with no continuation.
  if (!payload.ok()) return page;
  Reader reader(payload.value());
  auto count = reader.U32();
  if (!count.ok() || count.value() > capped) return page;
  page.names.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto name = reader.Str();
    if (!name.ok()) {
      page.names.clear();
      return page;
    }
    page.names.push_back(std::move(name).value());
  }
  auto more = reader.U8();
  page.more = more.ok() && more.value() != 0;
  return page;
}

// ---- batch ops --------------------------------------------------------------

std::vector<Result<Bytes>> RemoteBackend::MultiGet(
    const std::vector<std::string>& names) {
  return MultiGetLeased(names, nullptr);
}

std::vector<Result<Bytes>> RemoteBackend::MultiGetLeased(
    const std::vector<std::string>& names, std::vector<bool>* leased) {
  if (leased != nullptr) leased->assign(names.size(), false);
  const bool want_lease = leased != nullptr;
  std::vector<Result<Bytes>> results;
  results.reserve(names.size());
  for (std::size_t base = 0; base < names.size(); base += kMaxMultiEntries) {
    const std::size_t n = std::min(kMaxMultiEntries, names.size() - base);
    const std::vector<std::string> batch(names.begin() + base,
                                         names.begin() + base + n);
    Writer req = BeginRequest(Rpc::kMultiGet);
    EncodeNameList(req, batch);
    req.U8(want_lease ? 1 : 0);
    auto payload = Call(req);
    if (!payload.ok()) {
      for (std::size_t i = 0; i < n; ++i) results.push_back(payload.status());
      continue;
    }
    Reader reader(payload.value());
    auto entries = DecodeMultiGetEntries(reader);
    const bool shape_ok = entries.ok() && reader.AtEnd() &&
                          entries.value().size() == n;
    if (!shape_ok) {
      const Status bad =
          entries.ok() ? Error(ErrorCode::kIOError,
                               "malformed multi-get response shape")
                       : entries.status();
      for (std::size_t i = 0; i < n; ++i) results.push_back(bad);
      continue;
    }
    std::vector<std::size_t> deferred_slots; // indexes into `results`
    std::vector<std::string> deferred_names;
    for (std::size_t i = 0; i < n; ++i) {
      MultiGetEntry& entry = entries.value()[i];
      switch (entry.state) {
        case MultiGetEntry::State::kOk:
          if (want_lease) (*leased)[results.size()] = entry.leased;
          results.push_back(std::move(entry.data));
          break;
        case MultiGetEntry::State::kError:
          results.push_back(entry.error);
          break;
        case MultiGetEntry::State::kDeferred:
          // The server hit its response-size budget before this name.
          deferred_slots.push_back(results.size());
          deferred_names.push_back(batch[i]);
          results.push_back(
              Error(ErrorCode::kIOError, "multi-get entry unresolved"));
          break;
      }
    }
    // Re-fetch stragglers in follow-up BATCHES, not singles: each round
    // packs another response-budget's worth, so a deferred tail of k
    // objects costs ~(total bytes / budget) round trips instead of k.
    while (!deferred_names.empty()) {
      Writer follow = BeginRequest(Rpc::kMultiGet);
      EncodeNameList(follow, deferred_names);
      follow.U8(want_lease ? 1 : 0);
      auto follow_payload = Call(follow);
      if (!follow_payload.ok()) {
        for (const std::size_t slot : deferred_slots) {
          results[slot] = follow_payload.status();
        }
        break;
      }
      Reader follow_reader(follow_payload.value());
      auto follow_entries = DecodeMultiGetEntries(follow_reader);
      const bool follow_ok = follow_entries.ok() && follow_reader.AtEnd() &&
                             follow_entries.value().size() ==
                                 deferred_names.size();
      std::vector<std::size_t> next_slots;
      std::vector<std::string> next_names;
      if (follow_ok) {
        for (std::size_t i = 0; i < deferred_names.size(); ++i) {
          MultiGetEntry& entry = follow_entries.value()[i];
          switch (entry.state) {
            case MultiGetEntry::State::kOk:
              if (want_lease) (*leased)[deferred_slots[i]] = entry.leased;
              results[deferred_slots[i]] = std::move(entry.data);
              break;
            case MultiGetEntry::State::kError:
              results[deferred_slots[i]] = entry.error;
              break;
            case MultiGetEntry::State::kDeferred:
              next_slots.push_back(deferred_slots[i]);
              next_names.push_back(deferred_names[i]);
              break;
          }
        }
      }
      if (!follow_ok || next_names.size() == deferred_names.size()) {
        // Malformed round, or zero progress (a first entry so large its
        // encoding alone overflows the budget): single Gets have no
        // response budget and always terminate.
        const std::vector<std::size_t>& slots =
            follow_ok ? next_slots : deferred_slots;
        const std::vector<std::string>& strays =
            follow_ok ? next_names : deferred_names;
        for (std::size_t i = 0; i < strays.size(); ++i) {
          if (want_lease) {
            bool granted = false;
            results[slots[i]] = GetLeased(strays[i], &granted);
            (*leased)[slots[i]] = granted;
          } else {
            results[slots[i]] = Get(strays[i]);
          }
        }
        break;
      }
      deferred_slots = std::move(next_slots);
      deferred_names = std::move(next_names);
    }
  }
  return results;
}

std::vector<bool> RemoteBackend::MultiExists(
    const std::vector<std::string>& names) {
  std::vector<bool> results;
  results.reserve(names.size());
  for (std::size_t base = 0; base < names.size(); base += kMaxMultiEntries) {
    const std::size_t n = std::min(kMaxMultiEntries, names.size() - base);
    const std::vector<std::string> batch(names.begin() + base,
                                         names.begin() + base + n);
    Writer req = BeginRequest(Rpc::kMultiExists);
    EncodeNameList(req, batch);
    auto payload = Call(req);
    // One u8 flag per requested name, in request order. Transport failure
    // or a malformed shape degrades to "absent", same as Exists.
    if (!payload.ok() || payload.value().size() != n) {
      for (std::size_t i = 0; i < n; ++i) results.push_back(false);
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      results.push_back(payload.value()[i] != 0);
    }
  }
  return results;
}

// ---- readahead --------------------------------------------------------------

void RemoteBackend::SetPrefetchSink(PrefetchSink sink) {
  const std::lock_guard<std::mutex> lock(prefetch_mu_);
  sink_ = std::move(sink);
}

void RemoteBackend::FinishFlight(const std::shared_ptr<PrefetchFlight>& flight,
                                 Status verdict) {
  {
    const std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->verdict = std::move(verdict);
  }
  flight->cv.notify_all();
}

void RemoteBackend::Prefetch(const std::string& name) {
  if (readahead_budget_ == 0 || rpc_window_ <= 1) return;
  PrefetchSink sink;
  std::shared_ptr<PrefetchFlight> flight;
  {
    const std::lock_guard<std::mutex> lock(prefetch_mu_);
    if (!sink_) return; // nowhere for the bytes to land
    if (prefetch_inflight_.contains(name)) return;
    if (prefetch_inflight_.size() >= options_.max_inflight_prefetches) return;
    // Register BEFORE submitting so a duplicate hint arriving while the
    // speculation is in flight stays a no-op.
    flight = std::make_shared<PrefetchFlight>();
    prefetch_inflight_[name] = flight;
    sink = sink_;
  }

  // Speculation only rides spare capacity: an unbroken pooled connection
  // with window room. Never dials, never blocks, never retries.
  std::shared_ptr<MuxConnection> conn;
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    for (const auto& candidate : pool_) {
      if (!candidate->broken() && candidate->inflight() < candidate->window()) {
        conn = candidate;
        break;
      }
    }
  }
  std::shared_ptr<MuxConnection::Slot> slot;
  if (conn != nullptr) {
    trace::Span span("prefetch_issue", "net.prefetch");
    Writer req = BeginRequest(Rpc::kGet);
    req.Str(name);
    req.U8(0); // speculation never takes a lease
    const std::uint64_t corr = RequestCorrelation(req.bytes());
    slot = conn->TrySubmit(
        req.bytes(), [this, name, sink, corr](const Status& failure,
                                              const Bytes& response) {
          OnPrefetchDone(name, sink, corr, failure, response);
        });
  }
  if (slot == nullptr) {
    // Window filled up (or no connection): withdraw the registration and
    // release any demand read that latched onto it in the meantime.
    {
      const std::lock_guard<std::mutex> lock(prefetch_mu_);
      prefetch_inflight_.erase(name);
    }
    FinishFlight(flight, Error(ErrorCode::kIOError, "speculation withdrawn"));
    return;
  }
  cache::CacheCounters delta;
  delta.prefetch_issued = 1;
  cache::GlobalCacheAdd(delta);
}

void RemoteBackend::OnPrefetchDone(const std::string& name,
                                   const PrefetchSink& sink,
                                   std::uint64_t correlation,
                                   const Status& failure,
                                   const Bytes& response) {
  std::shared_ptr<PrefetchFlight> flight;
  {
    const std::lock_guard<std::mutex> lock(prefetch_mu_);
    const auto it = prefetch_inflight_.find(name);
    if (it != prefetch_inflight_.end()) {
      flight = std::move(it->second);
      prefetch_inflight_.erase(it);
    }
  }
  // Speculative traffic never retries; transport failures drop silently —
  // but a joined demand read must still be released to re-fetch.
  if (!failure.ok()) {
    if (flight != nullptr) FinishFlight(flight, failure);
    return;
  }
  Reader reader(response);
  Status verdict = Status::Ok();
  std::uint64_t echoed = 0;
  if (!ParseResponseHead(reader, &verdict, &echoed).ok() ||
      echoed != correlation) {
    // Malformed speculation: the demand path re-fetches.
    if (flight != nullptr) {
      FinishFlight(flight, Error(ErrorCode::kIOError, "malformed speculation"));
    }
    return;
  }
  if (!verdict.ok()) {
    // A well-formed negative verdict (kNotFound) is a real answer — the
    // sink decides whether it is cacheable, and a joiner surfaces it
    // directly.
    sink(name, Result<Bytes>(verdict), false);
    if (flight != nullptr) FinishFlight(flight, verdict);
    return;
  }
  auto data = reader.Var(kMaxObjectBytes);
  if (!data.ok() || !reader.U8().ok()) { // the (unused) lease byte
    if (flight != nullptr) {
      FinishFlight(flight, Error(ErrorCode::kIOError, "malformed speculation"));
    }
    return;
  }
  Bytes body = std::move(data).value();
  // Joiners get their copy first (paid only if someone waits), then the
  // sink takes the bytes, then the joiners wake: like a mux slot's hook,
  // the delivery lands before anyone observes the speculation done.
  if (flight != nullptr) {
    const std::lock_guard<std::mutex> lock(flight->mu);
    if (flight->waiters > 0) {
      flight->data = body;
      flight->has_data = true;
    }
  }
  sink(name, Result<Bytes>(std::move(body)), false);
  if (flight != nullptr) FinishFlight(flight, Status::Ok());
}

// ---- lease subscription -----------------------------------------------------

bool RemoteBackend::SubscribeInvalidations(InvalidationListener on_invalidate,
                                           ChannelDownHandler on_channel_down) {
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    if (lease_thread_.joinable()) return false; // already subscribed
    const TransportFactory& dial = options_.lease_transport_factory
                                       ? options_.lease_transport_factory
                                       : factory_;
    auto dialed = dial();
    if (!dialed.ok()) return false;
    std::unique_ptr<Transport> transport = std::move(dialed).value();

    // Lock-step subscription handshake on the dedicated connection.
    Writer req = BeginRequest(Rpc::kLeaseSubscribe);
    const std::uint64_t corr = RequestCorrelation(req.bytes());
    if (!transport->SendFrame(req.bytes()).ok()) return false;
    auto response = transport->RecvFrame();
    if (!response.ok()) return false;
    Reader reader(response.value());
    Status verdict = Status::Ok();
    std::uint64_t echoed = 0;
    if (!ParseResponseHead(reader, &verdict, &echoed).ok() ||
        echoed != corr || !verdict.ok()) {
      return false;
    }
    auto sid = reader.U64();
    if (!sid.ok() || sid.value() == 0) return false;

    lease_session_.store(sid.value(), std::memory_order_release);
    lease_transport_ = std::move(transport);
    lease_listener_ = std::move(on_invalidate);
    lease_on_down_ = std::move(on_channel_down);
    lease_thread_ = std::thread([this] { LeaseCallbackLoop(); });
  }
  // Tie the connections dialed before the subscription (Connect's Ping
  // connection at least) to the session so their writes are already
  // recognizable as ours.
  std::vector<std::shared_ptr<MuxConnection>> conns;
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    conns = pool_;
  }
  for (const auto& conn : conns) AttachLease(*conn);
  return true;
}

void RemoteBackend::LeaseCallbackLoop() {
  // The server originates request-format kInvalidate frames here; each is
  // acked with an ordinary response frame AFTER the listener ran, so a
  // server waiting on the ack knows the cache entry is already gone.
  for (;;) {
    auto frame = lease_transport_->RecvFrame();
    if (!frame.ok()) break;
    Reader reader(frame.value());
    std::uint64_t corr = 0;
    auto rpc = ParseRequestHead(reader, &corr);
    if (!rpc.ok() || rpc.value() != Rpc::kInvalidate) break;
    auto names = DecodeNameList(reader);
    if (!names.ok()) break;
    {
      trace::Span span("cache.invalidate_push", "net.lease");
      span.SetCorrelation(corr);
      if (lease_listener_) lease_listener_(names.value());
    }
    Writer ack = BeginResponse(Status::Ok(), corr);
    if (!lease_transport_->SendFrame(ack.bytes()).ok()) break;
  }
  lease_session_.store(0, std::memory_order_release);
  if (!lease_shutdown_.load(std::memory_order_acquire)) {
    // Real channel loss (not our own destructor): leases are void now.
    if (lease_on_down_) lease_on_down_();
  }
}

NetCounters RemoteBackend::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

// ---- streamed puts ----------------------------------------------------------

// Client half of the streaming RPC: a pipelined stream on its own
// dedicated mux connection — stream handles are per-connection server
// state, so the pooled connections cannot carry them. Only the in-flight
// window's verdict slots stay alive: each segment's request frame is
// written to the socket inside Submit and never retained, so peak client
// memory is one segment plus a window of small verdicts, independent of
// object size. Nothing is kept to replay, so a broken connection is
// FINAL: the stream fails with kIOError and the server, which publishes
// nothing before a Commit it fully received, drops the partial object.
// Whole-object RPCs keep their per-request retries; redundancy for
// streams is the caller's job (the cluster absorbs a lost replica
// through its quorum).
//
// Every append verdict is collected BEFORE the commit frame goes out.
// The server executes per-connection stream ops in FIFO order but
// leaves a failed stream open, so a commit pipelined behind an
// unverified append could publish a truncated object.
class MuxPutStream final : public storage::StorageBackend::PutStream {
 public:
  MuxPutStream(RemoteBackend& backend, std::string name)
      : backend_(backend), name_(std::move(name)) {}

  ~MuxPutStream() override {
    if (!finished_) Abort();
  }

  Status Append(ByteSpan data) override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "append on finished stream: " + name_);
    }
    if (broken_) {
      return Error(ErrorCode::kIOError,
                   "append on broken stream: " + name_);
    }
    if (conn_ == nullptr) NEXUS_RETURN_IF_ERROR(Begin());
    // Retire the oldest appends until the new one fits in the window —
    // this, not Submit's own blocking, is what bounds client memory and
    // surfaces a rejected segment before more bytes chase it.
    while (inflight_.size() >= conn_->window()) {
      NEXUS_RETURN_IF_ERROR(DrainOldest());
    }
    Writer req = BeginRequest(Rpc::kStreamAppend);
    req.U64(handle_);
    req.Var(data);
    auto slot = conn_->Submit(req.bytes());
    if (slot == nullptr) {
      backend_.NoteFailure();
      return FailStream(Error(ErrorCode::kIOError,
                              "stream connection broke mid-append: " + name_));
    }
    inflight_.push_back(std::move(slot));
    return Status::Ok();
  }

  Status Commit() override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "commit on finished stream: " + name_);
    }
    if (broken_) {
      finished_ = true;
      return Error(ErrorCode::kIOError,
                   "commit on broken stream: " + name_);
    }
    if (conn_ == nullptr) {
      // Zero-byte object: open the stream now so Commit has a handle.
      const Status begun = Begin();
      if (!begun.ok()) {
        finished_ = true;
        return begun;
      }
    }
    while (!inflight_.empty()) {
      const Status drained = DrainOldest();
      if (!drained.ok()) {
        finished_ = true;
        return drained;
      }
    }
    Writer req = BeginRequest(Rpc::kStreamCommit);
    req.U64(handle_);
    auto slot = conn_->Submit(req.bytes());
    finished_ = true;
    if (slot == nullptr) {
      backend_.NoteFailure();
      return FailStream(Error(ErrorCode::kIOError,
                              "stream connection broke on commit: " + name_));
    }
    Status verdict = Status::Ok();
    auto payload = WaitResponse(*slot, &verdict);
    conn_.reset();
    if (!payload.ok()) return payload.status();
    return verdict;
  }

  void Abort() override {
    if (finished_) return;
    finished_ = true;
    if (broken_ || conn_ == nullptr) return;
    // Collect outstanding verdicts so the abort lands last in FIFO
    // order, then fire it best effort — disconnect also aborts the
    // server-side stream, so a failure here leaks nothing.
    while (!inflight_.empty()) {
      if (!DrainOldest().ok()) return; // FailStream dropped the connection
    }
    Writer req = BeginRequest(Rpc::kStreamAbort);
    req.U64(handle_);
    auto slot = conn_->Submit(req.bytes());
    if (slot != nullptr) (void)slot->Wait();
    conn_.reset();
  }

 private:
  /// Dial + lease attach + lock-step StreamBegin. Any failure marks the
  /// stream broken — there is no retry budget, because a later retry
  /// could not replay segments already handed to a previous connection.
  Status Begin() {
    auto dialed = backend_.factory_();
    if (!dialed.ok()) {
      backend_.NoteFailure();
      broken_ = true;
      return dialed.status();
    }
    conn_ = backend_.NewConnection(std::move(dialed).value());
    // Same best-effort session tie as pooled connections: the commit
    // must not invalidate the writer's own cache.
    backend_.AttachLease(*conn_);
    Writer begin = BeginRequest(Rpc::kStreamBegin);
    begin.Str(name_);
    auto slot = conn_->Submit(begin.bytes());
    if (slot == nullptr) {
      backend_.NoteFailure();
      return FailStream(Error(ErrorCode::kIOError,
                              "stream connection broke on begin: " + name_));
    }
    Status verdict = Status::Ok();
    auto payload = WaitResponse(*slot, &verdict);
    if (!payload.ok()) return FailStream(payload.status());
    if (!verdict.ok()) return FailStream(verdict);
    Reader reader(payload.value());
    auto handle = reader.U64();
    if (!handle.ok()) {
      return FailStream(
          Error(ErrorCode::kIOError, "malformed stream-begin response"));
    }
    handle_ = handle.value();
    return Status::Ok();
  }

  /// Blocks on one slot. The OUTER result is transport/protocol health;
  /// on outer success `verdict` holds the server's authoritative answer
  /// and the bytes are the payload after the head. Delivery counters are
  /// already handled by the mux delivery hook; this only feeds the
  /// backend's failure streak.
  Result<Bytes> WaitResponse(MuxConnection::Slot& slot, Status* verdict) {
    const std::uint64_t corr = slot.correlation;
    auto delivered = slot.Wait();
    if (!delivered.ok()) {
      backend_.NoteFailure();
      return delivered.status();
    }
    Reader reader(delivered.value());
    Status server = Status::Ok();
    std::uint64_t echoed = 0;
    const Status head = ParseResponseHead(reader, &server, &echoed);
    if (!head.ok() || echoed != corr) {
      // The mux routed this frame here by its correlation id, so a
      // mismatch or unparsable head means the byte stream itself can no
      // longer be trusted for ANY request on the connection.
      conn_->Poison(Error(ErrorCode::kIOError,
                          "malformed response on stream connection"));
      backend_.NoteFailure();
      if (!head.ok()) return head;
      return Error(ErrorCode::kIOError,
                   "correlation mismatch on stream connection");
    }
    backend_.NoteSuccess();
    *verdict = std::move(server);
    return reader.Raw(reader.Remaining());
  }

  /// Retires the oldest in-flight append: waits for its verdict and
  /// fails the stream on either a transport loss or a server rejection.
  Status DrainOldest() {
    auto slot = std::move(inflight_.front());
    inflight_.pop_front();
    Status verdict = Status::Ok();
    auto payload = WaitResponse(*slot, &verdict);
    if (!payload.ok()) return FailStream(payload.status());
    if (!verdict.ok()) return FailStream(verdict);
    return Status::Ok();
  }

  /// A failed stream is final. Drop the connection (disconnect aborts
  /// the server-side stream) and report the loss to the caller.
  Status FailStream(Status reason) {
    broken_ = true;
    inflight_.clear();
    conn_.reset();
    return reason;
  }

  RemoteBackend& backend_;
  std::string name_;
  std::shared_ptr<MuxConnection> conn_;
  std::deque<std::shared_ptr<MuxConnection::Slot>> inflight_;
  std::uint64_t handle_ = 0;
  bool broken_ = false;
  bool finished_ = false;
};

Result<std::unique_ptr<storage::StorageBackend::PutStream>>
RemoteBackend::OpenPutStream(const std::string& name) {
  return std::unique_ptr<PutStream>(new MuxPutStream(*this, name));
}

} // namespace nexus::net
