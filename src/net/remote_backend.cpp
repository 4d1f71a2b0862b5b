#include "net/remote_backend.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iterator>
#include <thread>
#include <utility>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "trace/trace.hpp"

namespace nexus::net {

namespace {

/// A reply ends at its last field. Extra bytes come from a store that
/// speaks some other dialect, so the call fails rather than guess.
Status ExpectEnd(const Reader& reader, const char* reply,
                 const std::string& name) {
  if (reader.AtEnd()) return Status::Ok();
  return Error(ErrorCode::kIntegrityViolation,
               std::string("trailing bytes in ") + reply + " reply: " + name);
}

std::uint64_t Mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

} // namespace

std::size_t DefaultRpcWindow() {
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(EnvUnsigned("NEXUS_RPC_WINDOW", 8), 1, 256));
}

RemoteBackend::RemoteBackend(TransportFactory factory,
                             RemoteBackendOptions options)
    : factory_(std::move(factory)), options_(options),
      rpc_window_(options.rpc_window != 0
                      ? std::clamp<std::size_t>(options.rpc_window, 1, 256)
                      : DefaultRpcWindow()),
      jitter_state_(options.jitter_seed) {}

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
  const std::lock_guard<std::mutex> lock(mu_);
  ++counters_.retries;
}

// ---- connection pool --------------------------------------------------------

std::shared_ptr<MuxConnection> RemoteBackend::NewConnection(
    std::unique_ptr<Transport> transport) {
  // Client rpcs/bytes/latency are counted at DELIVERY time, in the mux's
  // one routing routine — the one place every response passes — so the
  // client's view stays in exact agreement with the server's rpcs_served.
  auto hook = [this](std::size_t request_bytes, std::size_t response_bytes,
                     std::uint64_t start_ns) {
    rpc_latency_.Record(MonotonicNanos() - start_ns);
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rpcs;
    counters_.bytes_sent += request_bytes + 4;
    counters_.bytes_received += response_bytes + 4;
  };
  return std::make_shared<MuxConnection>(std::move(transport), rpc_window_,
                                         std::move(hook));
}

Result<std::shared_ptr<MuxConnection>> RemoteBackend::AcquireConnection(
    bool is_retry) {
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    // Prune broken connections so a retry never lands back on the
    // transport that just failed it.
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
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.reconnects;
  }
  auto conn = NewConnection(std::move(fresh));
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

Result<Bytes> RemoteBackend::Call(const Writer& request) {
  const std::uint64_t corr = RequestCorrelation(request.bytes());
  trace::Span span(RpcName(RequestRpc(request.bytes())), "net.client");
  span.SetCorrelation(corr);

  Status last = Error(ErrorCode::kIOError, "rpc never attempted");
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
      // Whole-connection failure: retry on a fresh connection.
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
    // The server's verdict — success or not — is authoritative.
    NEXUS_RETURN_IF_ERROR(verdict);
    return reader.Raw(reader.Remaining());
  }
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
  Writer req = BeginRequest(Rpc::kGet);
  req.Str(name);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  Reader reader(payload);
  NEXUS_ASSIGN_OR_RETURN(Bytes data, reader.Var(kMaxObjectBytes));
  NEXUS_RETURN_IF_ERROR(ExpectEnd(reader, "get", name));
  return data;
}

Status RemoteBackend::Put(const std::string& name, ByteSpan data) {
  if (data.size() > kMaxObjectBytes) {
    return Error(ErrorCode::kInvalidArgument, "object too large: " + name);
  }
  Writer req = BeginRequest(Rpc::kPut);
  // Sized once: two u32 length prefixes, the name and the payload, so a
  // large payload is copied into the frame exactly once.
  req.Reserve(req.bytes().size() + 4 + name.size() + 4 + data.size());
  req.Str(name);
  req.Var(data);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  Reader reader(payload);
  return ExpectEnd(reader, "put", name);
}

Status RemoteBackend::Delete(const std::string& name) {
  Writer req = BeginRequest(Rpc::kDelete);
  req.Str(name);
  return Call(req).status();
}

bool RemoteBackend::Exists(const std::string& name) {
  // The StorageBackend contract cannot express transport failure here;
  // an unreachable server reports "absent", matching a store that lost
  // the object — callers treat both as a re-fetch/recreate signal.
  return GetHead(name, 0).ok();
}

Result<storage::StorageBackend::Head> RemoteBackend::GetHead(
    const std::string& name, std::size_t max_bytes) {
  const auto max = static_cast<std::uint32_t>(
      std::min<std::size_t>(max_bytes, kMaxObjectBytes));
  Writer req = BeginRequest(Rpc::kGetHead);
  req.Str(name);
  req.U32(max);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  Reader reader(payload);
  Head head;
  NEXUS_ASSIGN_OR_RETURN(head.size, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(head.prefix, reader.Var(max));
  if (head.prefix.size() != std::min<std::uint64_t>(max, head.size)) {
    return Error(ErrorCode::kIntegrityViolation,
                 "head reply prefix does not match its size: " + name);
  }
  NEXUS_RETURN_IF_ERROR(ExpectEnd(reader, "head", name));
  return head;
}

std::vector<std::string> RemoteBackend::List(const std::string& prefix) {
  // One kListPage per kMaxNamesPerFrame names. Every page is checked to
  // move past its cursor, so the loop ends; a page that fails (or is
  // malformed) fails the listing, which then reads as empty.
  std::vector<std::string> names;
  std::string cursor;
  for (;;) {
    auto page = CallListPage(prefix, cursor, kMaxNamesPerFrame);
    if (!page.ok()) return {};
    names.insert(names.end(),
                 std::make_move_iterator(page.value().names.begin()),
                 std::make_move_iterator(page.value().names.end()));
    if (!page.value().more) return names;
    cursor = names.back();
  }
}

storage::StorageBackend::ListPage RemoteBackend::ListSome(
    const std::string& prefix, const std::string& start_after,
    std::size_t limit) {
  if (limit == 0) return {};
  // An unreachable server or a malformed page reads as an empty page
  // with no continuation.
  auto page = CallListPage(prefix, start_after, limit);
  if (!page.ok()) return {};
  return std::move(page).value();
}

Result<storage::StorageBackend::ListPage> RemoteBackend::CallListPage(
    const std::string& prefix, const std::string& start_after,
    std::size_t limit) {
  // The server treats limits above kMaxNamesPerFrame as a protocol error;
  // clamp here so callers can pass any bound they like.
  const auto capped =
      static_cast<std::uint32_t>(std::min(limit, kMaxNamesPerFrame));
  Writer req = BeginRequest(Rpc::kListPage);
  req.Str(prefix);
  req.Str(start_after);
  req.U32(capped);
  NEXUS_ASSIGN_OR_RETURN(Bytes payload, Call(req));
  // The page comes from the untrusted store, and callers page by passing
  // its last name back as the cursor while `more` is set: a page that
  // does not move strictly past the cursor would spin them forever.
  const auto malformed = [&prefix] {
    return Error(ErrorCode::kIntegrityViolation,
                 "malformed list page under: " + prefix);
  };
  Reader reader(payload);
  NEXUS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.U32());
  if (count > capped) return malformed();
  ListPage page;
  page.names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    NEXUS_ASSIGN_OR_RETURN(std::string name, reader.Str());
    const std::string& floor =
        page.names.empty() ? start_after : page.names.back();
    if (!name.starts_with(prefix) || name <= floor) return malformed();
    page.names.push_back(std::move(name));
  }
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t more, reader.U8());
  page.more = more != 0;
  if (!reader.AtEnd() || (page.more && page.names.empty())) return malformed();
  return page;
}

NetCounters RemoteBackend::counters() const {
  NetCounters out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = counters_;
  }
  out.rpc_p50_ms = rpc_latency_.PercentileMs(0.50);
  out.rpc_p99_ms = rpc_latency_.PercentileMs(0.99);
  return out;
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
  /// Dial + lock-step StreamBegin. Any failure marks the
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
