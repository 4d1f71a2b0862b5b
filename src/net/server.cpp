#include "net/server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/clock.hpp"
#include "net/reactor.hpp"
#include "net/wire.hpp"
#include "trace/trace.hpp"

namespace nexus::net {

namespace {

Status Errno(const std::string& what) {
  return Error(ErrorCode::kIOError, what + ": " + std::strerror(errno));
}

/// Get bodies at or below this stay inline in the coalesced response
/// segment; larger bodies ride as their own scatter/gather part, uncopied
/// until the socket write.
constexpr std::size_t kInlineBodyBytes = 4096;

} // namespace

// ---- protocol-engine types --------------------------------------------------

/// Response payload as scatter/gather segments. Small replies are one
/// Writer's bytes; large object bodies ride as their own part so framing
/// never copies them into a contiguous buffer — the send queue keeps them
/// separate all the way to the socket.
struct NexusdServer::WireReply {
  std::vector<Bytes> parts;
  std::size_t payload_bytes = 0;

  WireReply() = default;
  explicit WireReply(Writer&& w) { Add(std::move(w)); }

  void Add(Writer&& w) { Add(std::move(w).Take()); }
  void Add(Bytes&& b) {
    payload_bytes += b.size();
    parts.push_back(std::move(b));
  }
};

/// One decoded request frame, classified for dispatch.
struct NexusdServer::Dispatch {
  enum class Kind {
    kStateless,     // runs on the rpc pool; replies may leave out of order
    kOrdered,       // per-connection FIFO, one at a time (stream ops)
    kImmediate,     // decoded AND executed in arrival order; reply attached
    kProtocolError, // malformed frame: kill the connection
  };
  Kind kind = Kind::kProtocolError;
  std::size_t op = 0;
  std::uint64_t corr = 0;
  const char* name = "";
  std::function<WireReply()> execute; // kStateless / kOrdered
  WireReply response;                 // kImmediate
  // Put, Delete or StreamCommit: while any lease session exists its
  // handler may wait up to lease_break_ms for invalidation acks.
  bool mutation = false;
};

/// Per-connection protocol state.
struct NexusdServer::ConnState {
  /// In-flight put streams, scoped to the connection. Destruction aborts
  /// whatever the client never committed (DiskPutStream removes its temp
  /// file), so a dropped connection leaves the store untouched. The name
  /// rides along so Commit can run the lease-break protocol.
  struct OpenStream {
    std::unique_ptr<storage::StorageBackend::PutStream> stream;
    std::string name;
  };

  std::mutex stream_mu; // ordered handlers vs. connection teardown
  std::map<std::uint64_t, OpenStream> streams; // under stream_mu
  std::uint64_t next_stream_handle = 1;        // under stream_mu

  // Lease state, loop thread only: the lease session this data
  // connection belongs to (kLeaseAttach), and the session this connection
  // BECAME the invalidation channel of (kLeaseSubscribe).
  std::uint64_t attached_session = 0;
  std::shared_ptr<LeaseSession> subscription;
};

/// One served connection.
struct NexusdServer::RConn {
  int fd = -1;

  // ---- loop thread only -----------------------------------------------------
  BufferArena::SlabPtr in;  // input slab; frames parse in place
  std::size_t in_begin = 0; // parse cursor into `in`
  Bytes big;                // oversize-frame bypass buffer (heap)
  std::size_t big_filled = 0;
  std::size_t big_need = 0; // payload bytes expected; 0 = not in big mode
  std::uint32_t interest = Reactor::kRead; // what the reactor is armed for
  bool finalized = false;
  ConnState proto;

  std::mutex mu;
  std::size_t inflight = 0; // handler tasks not yet finished
  struct Ordered {
    Dispatch d;
    std::size_t frame_bytes = 0;
    std::uint64_t start_ns = 0;
  };
  std::deque<Ordered> ordered;  // stream-op FIFO, under mu
  bool ordered_running = false; // under mu: a drainer task exists
  bool paused = false;          // under mu: backpressure, stop reading
  bool maintain_posted = false; // under mu
  bool draining = false; // under mu: EOF / protocol error — finish sends
  bool dead = false;     // under mu: hard failure — drop everything

  std::mutex send_mu;
  bool send_failed = false; // under send_mu
  /// One queued chunk of outgoing bytes: either an arena slab holding any
  /// number of coalesced small frames, or the scatter/gather parts of one
  /// large frame (its length prefix is parts[0]).
  struct OutBuf {
    BufferArena::SlabPtr slab;
    std::vector<Bytes> parts;
    std::size_t size = 0; // total valid bytes
    std::size_t off = 0;  // bytes already written to the socket
  };
  std::deque<OutBuf> outq; // under send_mu
  bool arm_posted = false; // under send_mu: a maintain pass is scheduled

  ~RConn() {
    if (fd >= 0) ::close(fd);
  }
};

// ---- lifecycle --------------------------------------------------------------

NexusdServer::NexusdServer(storage::StorageBackend& backend,
                           NexusdOptions options)
    : backend_(backend), options_(std::move(options)) {}

NexusdServer::~NexusdServer() { Stop(); }

Result<std::unique_ptr<NexusdServer>> NexusdServer::Start(
    storage::StorageBackend& backend, NexusdOptions options) {
  if (options.rpc_workers == 0) {
    return Error(ErrorCode::kInvalidArgument, "rpc_workers must be >= 1");
  }
  if (options.lease_break_ms <= 0) {
    return Error(ErrorCode::kInvalidArgument, "lease_break_ms must be > 0");
  }
  auto server = std::unique_ptr<NexusdServer>(
      new NexusdServer(backend, std::move(options)));

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->options_.port);
  if (::inet_pton(AF_INET, server->options_.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
    ::close(fd);
    return Error(ErrorCode::kInvalidArgument,
                 "bad bind address: " + server->options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status err = Errno("bind");
    ::close(fd);
    return err;
  }
  // A connection storm is the reactor's reason to exist: give the kernel
  // queue room for one before the loop gets around to accepting.
  if (::listen(fd, 1024) != 0) {
    const Status err = Errno("listen");
    ::close(fd);
    return err;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status err = Errno("getsockname");
    ::close(fd);
    return err;
  }

  server->listen_fd_ = fd;
  server->port_ = ntohs(addr.sin_port);
  server->reactor_ = std::make_unique<Reactor>();
  if (!server->reactor_->ok()) {
    return Error(ErrorCode::kIOError,
                 "reactor: cannot create the epoll instance or wake pipe");
  }
  server->rpc_pool_ =
      std::make_unique<parallel::ThreadPool>(server->options_.rpc_workers);
  NexusdServer* s = server.get();
  NEXUS_RETURN_IF_ERROR(server->reactor_->Add(
      fd, Reactor::kRead, [s](std::uint32_t) { s->ReactorAccept(); }));
  server->loop_thread_ = std::thread([s] { s->reactor_->Run(); });
  return server;
}

void NexusdServer::Stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  if (loop_thread_.joinable()) {
    reactor_->Post([this] {
      int lfd;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        lfd = listen_fd_;
        listen_fd_ = -1;
      }
      if (lfd >= 0) {
        reactor_->Remove(lfd);
        ::close(lfd);
      }
      std::vector<std::shared_ptr<RConn>> conns;
      conns.reserve(rconns_.size());
      for (const auto& [cfd, conn] : rconns_) conns.push_back(conn);
      for (const auto& conn : conns) {
        ReactorTeardown(conn, /*drain=*/false);
        ReactorMaintain(conn);
      }
    });
    // Handler tasks never block on connection I/O (replies are
    // nonblocking enqueues), and a lease break ends when its channel is
    // torn down above, so the drain always completes.
    {
      std::unique_lock<std::mutex> lock(mu_);
      drain_cv_.wait(lock, [this] {
        return stats_.active_connections == 0 && reactor_tasks_ == 0;
      });
    }
    reactor_->Stop();
    loop_thread_.join();
  }
  {
    // Start() failed before the loop thread launched.
    const std::lock_guard<std::mutex> lock(mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
}

// ---- stats ------------------------------------------------------------------

NexusdServer::Stats NexusdServer::stats() const {
  Stats out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    out.lease_sessions = sessions_.size();
  }
  return out;
}

ServerStats NexusdServer::WireStats() const {
  ServerStats out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.connections_accepted = stats_.connections_accepted;
    out.active_connections = stats_.active_connections;
    out.rpcs_served = stats_.rpcs_served;
    out.protocol_errors = stats_.protocol_errors;
    out.open_streams = stats_.open_streams;
    out.streams_aborted_on_disconnect = stats_.streams_aborted_on_disconnect;
    out.bytes_received = stats_.bytes_received;
    out.bytes_sent = stats_.bytes_sent;
    out.leases_granted = stats_.leases_granted;
    out.leases_broken = stats_.leases_broken;
    out.invalidations_sent = stats_.invalidations_sent;
    out.lease_break_timeouts = stats_.lease_break_timeouts;
    // Gauge of threads this daemon is resident with: the loop and the rpc
    // pool, whatever the number of connections and lease channels.
    out.resident_threads = 1 + options_.rpc_workers;
    for (std::size_t i = static_cast<std::size_t>(Rpc::kPing); i < kRpcSlots;
         ++i) {
      if (per_op_[i].count == 0) continue;
      RpcOpStats row;
      row.rpc = static_cast<std::uint8_t>(i);
      row.count = per_op_[i].count;
      row.bytes_in = per_op_[i].bytes_in;
      row.bytes_out = per_op_[i].bytes_out;
      out.per_op.push_back(row);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    out.lease_sessions = sessions_.size();
  }
  out.epoll_wakeups = reactor_->stats().wakeups;
  const BufferArena::Stats as = arena_.stats();
  out.arena_slabs_in_use = as.slabs_in_use;
  out.arena_slabs_high_water = as.slabs_high_water;
  out.arena_oversize_frames = as.oversize_frames;
  out.loop_dispatch_p50_ms = reactor_->dispatch_latency().PercentileMs(0.50);
  out.loop_dispatch_p99_ms = reactor_->dispatch_latency().PercentileMs(0.99);
  // Histograms are internally synchronized; read them outside mu_.
  for (RpcOpStats& row : out.per_op) {
    const trace::Histogram& h = op_latency_ns_[row.rpc];
    row.p50_ms = h.PercentileMs(0.50);
    row.p99_ms = h.PercentileMs(0.99);
  }
  return out;
}

void NexusdServer::CountOp(std::size_t op, std::uint64_t bytes_in,
                           std::uint64_t bytes_out) {
  // Count BEFORE sending: a client that has the response in hand (and
  // asks for Stats) must find it already reflected.
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.rpcs_served;
  stats_.bytes_received += bytes_in + kFramePrefixBytes;
  stats_.bytes_sent += bytes_out + kFramePrefixBytes;
  ++per_op_[op].count;
  per_op_[op].bytes_in += bytes_in;
  per_op_[op].bytes_out += bytes_out;
}

// ---- lease machinery --------------------------------------------------------

std::shared_ptr<NexusdServer::LeaseSession> NexusdServer::FindSession(
    std::uint64_t sid) {
  const std::lock_guard<std::mutex> lock(lease_mu_);
  const auto it = sessions_.find(sid);
  return it == sessions_.end() ? nullptr : it->second;
}

bool NexusdServer::PreGrantLease(const std::string& name, std::uint64_t sid,
                                 std::uint64_t* version_before) {
  const std::lock_guard<std::mutex> lock(lease_mu_);
  if (!sessions_.contains(sid)) return false;
  // Register as a holder BEFORE the backend read: a mutation finishing
  // after this point collects (and invalidates) this session, so even a
  // read that returns just-overwritten bytes gets its invalidation.
  *version_before = object_version_[name];
  holders_[name].insert(sid);
  return true;
}

bool NexusdServer::PostGrantLease(const std::string& name, std::uint64_t sid,
                                  std::uint64_t version_before, bool read_ok) {
  bool granted = false;
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    const auto h = holders_.find(name);
    const bool still_held = h != holders_.end() && h->second.contains(sid);
    if (read_ok && still_held && sessions_.contains(sid) &&
        object_version_[name] == version_before) {
      granted = true;
    } else if (still_held) {
      // Denied (version moved, read failed, or session died): withdraw
      // the registration so the holder set stays exact.
      h->second.erase(sid);
      if (h->second.empty()) holders_.erase(h);
    }
  }
  if (granted) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.leases_granted;
  }
  return granted;
}

std::uint64_t NexusdServer::BeginMutation(const std::string& name,
                                          std::uint64_t writer_sid,
                                          bool want_lease) {
  const std::lock_guard<std::mutex> lock(lease_mu_);
  const std::uint64_t version = ++object_version_[name];
  if (want_lease && writer_sid != 0 && sessions_.contains(writer_sid)) {
    // Register the writer as a holder BEFORE the backend write, exactly
    // like PreGrantLease does for reads: any overlapping mutation either
    // bumps the version (denying the grant) or erases this registration
    // through its own FinishMutation — a stale write lease cannot survive.
    holders_[name].insert(writer_sid);
  }
  return version;
}

bool NexusdServer::FinishMutation(const std::string& name,
                                  std::uint64_t writer_sid,
                                  std::uint64_t version_at_begin,
                                  bool want_lease, bool write_ok) {
  std::vector<std::shared_ptr<LeaseSession>> targets;
  bool granted = false;
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    const auto h = holders_.find(name);
    if (h == holders_.end()) return false;
    const bool writer_registered =
        writer_sid != 0 && h->second.contains(writer_sid);
    granted = want_lease && write_ok && writer_registered &&
              sessions_.contains(writer_sid) &&
              object_version_[name] == version_at_begin;
    for (const std::uint64_t sid : h->second) {
      if (sid == writer_sid) continue; // the writer invalidates itself
      const auto s = sessions_.find(sid);
      if (s != sessions_.end()) targets.push_back(s->second);
    }
    if (granted) {
      // The writer keeps its registration: it now holds a write lease
      // and will be invalidated only by OTHER sessions' mutations.
      h->second.clear();
      h->second.insert(writer_sid);
    } else {
      holders_.erase(h);
    }
  }
  if (granted) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.leases_granted;
  }
  if (targets.empty()) return granted;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.leases_broken += targets.size();
  }

  trace::Span span("cache.lease_break", "net.server");
  // Push to every holder first, then collect acks — the ack waits overlap
  // instead of serializing full round trips.
  struct Push {
    std::shared_ptr<LeaseSession> session;
    std::uint64_t corr = 0;
  };
  std::vector<Push> pushes;
  pushes.reserve(targets.size());
  for (const auto& session : targets) {
    Push push{session, NextCorrelationId()};
    Writer frame = BeginRequest(Rpc::kInvalidate, push.corr);
    EncodeNameList(frame, {name});
    bool delivered = false;
    {
      const std::lock_guard<std::mutex> lock(session->mu);
      const std::shared_ptr<RConn> channel = session->channel.lock();
      if (!session->dead && channel != nullptr) {
        // Register the pending ack BEFORE sending: the client's ack can
        // race back faster than this thread resumes.
        session->pending_acks.insert(push.corr);
        delivered = SendReply(channel, WireReply(std::move(frame)));
        if (!delivered) session->pending_acks.erase(push.corr);
      }
    }
    if (delivered) pushes.push_back(std::move(push));
  }
  if (!pushes.empty()) {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.invalidations_sent += pushes.size();
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.lease_break_ms);
  for (const Push& push : pushes) {
    std::unique_lock<std::mutex> lock(push.session->mu);
    const bool acked = push.session->cv.wait_until(lock, deadline, [&] {
      return push.session->dead ||
             !push.session->pending_acks.contains(push.corr);
    });
    if (acked) continue;
    // The holder never answered: kill its session so the break completes
    // in bounded time. The loop sees the shut-down socket, tears the
    // connection down and cleans the session up, and the client's
    // channel-down path demotes every leased entry to TTL — staleness
    // stays bounded either way.
    push.session->dead = true;
    if (const auto channel = push.session->channel.lock()) {
      ::shutdown(channel->fd, SHUT_RDWR);
    }
    lock.unlock();
    push.session->cv.notify_all();
    const std::lock_guard<std::mutex> stats_lock(mu_);
    ++stats_.lease_break_timeouts;
  }
  return granted;
}

void NexusdServer::CleanupSession(
    const std::shared_ptr<LeaseSession>& session) {
  {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    sessions_.erase(session->id);
    for (auto it = holders_.begin(); it != holders_.end();) {
      it->second.erase(session->id);
      if (it->second.empty()) {
        it = holders_.erase(it);
      } else {
        ++it;
      }
    }
  }
  {
    const std::lock_guard<std::mutex> lock(session->mu);
    session->dead = true;
    session->channel.reset();
    session->pending_acks.clear();
  }
  session->cv.notify_all(); // writers waiting on acks see `dead`
}

// ---- the protocol engine ----------------------------------------------------

NexusdServer::Dispatch NexusdServer::DecodeFrame(ByteSpan frame,
                                                 ConnState& state) {
  using Kind = Dispatch::Kind;
  Dispatch d; // defaults to kProtocolError

  Reader reader(frame);
  std::uint64_t corr = 0;
  auto rpc = ParseRequestHead(reader, &corr);
  if (!rpc.ok()) return d; // malformed head, foreign version, unknown rpc
  d.op = static_cast<std::size_t>(rpc.value());
  d.corr = corr;
  d.name = RpcName(rpc.value());

  // Argument decoding stays HERE, in arrival order, so a malformed frame
  // kills the connection at a deterministic point in the stream. The
  // closures own copies of their arguments — the frame bytes (an arena
  // slab) are dead the moment this function returns.
  switch (rpc.value()) {
    case Rpc::kPing: {
      d.kind = Kind::kStateless;
      d.execute = [corr] {
        return WireReply(BeginResponse(Status::Ok(), corr));
      };
      break;
    }
    case Rpc::kGet: {
      auto name = reader.Str();
      if (!name.ok()) break;
      auto want_lease = reader.U8();
      if (!want_lease.ok()) break;
      const bool want = want_lease.value() != 0 && state.attached_session != 0;
      const std::uint64_t sid = state.attached_session;
      d.kind = Kind::kStateless;
      d.execute = [this, corr, sid, want, name = std::move(name).value()] {
        std::uint64_t v0 = 0;
        bool granted = want && PreGrantLease(name, sid, &v0);
        auto data = backend_.Get(name);
        if (granted) granted = PostGrantLease(name, sid, v0, data.ok());
        if (!data.ok()) return WireReply(BeginResponse(data.status(), corr));
        Bytes body = std::move(data).value();
        Writer head = BeginResponse(Status::Ok(), corr);
        head.U32(static_cast<std::uint32_t>(body.size())); // Var(body)...
        if (body.size() <= kInlineBodyBytes) {
          head.Raw(body); // ...small: inline
          head.U8(granted ? 1 : 0);
          return WireReply(std::move(head));
        }
        WireReply reply(std::move(head)); // ...large: own segment, no copy
        reply.Add(std::move(body));
        Writer tail;
        tail.U8(granted ? 1 : 0);
        reply.Add(std::move(tail));
        return reply;
      };
      break;
    }
    case Rpc::kPut: {
      auto name = reader.Str();
      if (!name.ok()) break;
      auto data = reader.Var(kMaxObjectBytes);
      if (!data.ok()) break;
      auto want_lease = reader.U8();
      if (!want_lease.ok()) break;
      const bool want = want_lease.value() != 0 && state.attached_session != 0;
      const std::uint64_t sid = state.attached_session;
      d.kind = Kind::kStateless;
      d.mutation = true;
      d.execute = [this, corr, sid, want, name = std::move(name).value(),
                   data = std::move(data).value()] {
        const std::uint64_t v0 = BeginMutation(name, sid, want);
        const Status verdict = backend_.Put(name, data);
        const bool granted =
            FinishMutation(name, sid, v0, want, verdict.ok());
        Writer r = BeginResponse(verdict, corr);
        if (verdict.ok()) r.U8(granted ? 1 : 0);
        return WireReply(std::move(r));
      };
      break;
    }
    case Rpc::kDelete: {
      auto name = reader.Str();
      if (!name.ok()) break;
      const std::uint64_t sid = state.attached_session;
      d.kind = Kind::kStateless;
      d.mutation = true;
      d.execute = [this, corr, sid, name = std::move(name).value()] {
        BeginMutation(name);
        const Status verdict = backend_.Delete(name);
        FinishMutation(name, sid);
        return WireReply(BeginResponse(verdict, corr));
      };
      break;
    }
    case Rpc::kGetHead: {
      auto name = reader.Str();
      if (!name.ok()) break;
      auto max_bytes = reader.U32();
      if (!max_bytes.ok() || max_bytes.value() > kMaxObjectBytes) break;
      d.kind = Kind::kStateless;
      d.execute = [this, corr, name = std::move(name).value(),
                   max_bytes = max_bytes.value()] {
        auto head = backend_.GetHead(name, max_bytes);
        if (!head.ok()) return WireReply(BeginResponse(head.status(), corr));
        Writer r = BeginResponse(Status::Ok(), corr);
        r.U64(head.value().size);
        r.Var(head.value().prefix);
        return WireReply(std::move(r));
      };
      break;
    }
    case Rpc::kListPage: {
      auto prefix = reader.Str();
      if (!prefix.ok()) break;
      auto start_after = reader.Str();
      if (!start_after.ok()) break;
      auto limit = reader.U32();
      if (!limit.ok()) break;
      if (limit.value() == 0 || limit.value() > kMaxNamesPerFrame) break;
      d.kind = Kind::kStateless;
      d.execute = [this, corr, prefix = std::move(prefix).value(),
                   start_after = std::move(start_after).value(),
                   limit = limit.value()] {
        const storage::StorageBackend::ListPage page =
            backend_.ListSome(prefix, start_after, limit);
        Writer r = BeginResponse(Status::Ok(), corr);
        r.U32(static_cast<std::uint32_t>(page.names.size()));
        for (const auto& n : page.names) r.Str(n);
        r.U8(page.more ? 1 : 0);
        return WireReply(std::move(r));
      };
      break;
    }
    case Rpc::kStats: {
      d.kind = Kind::kStateless;
      d.execute = [this, corr] {
        Writer r = BeginResponse(Status::Ok(), corr);
        EncodeServerStats(r, WireStats());
        return WireReply(std::move(r));
      };
      break;
    }
    case Rpc::kLeaseSubscribe: {
      // This connection becomes the session's invalidation channel: the
      // attached response is the LAST ordinary reply on it; afterwards
      // the connection carries only server pushes and client acks.
      trace::Span span(d.name, "net.server");
      span.SetCorrelation(corr);
      auto session = std::make_shared<LeaseSession>();
      {
        const std::lock_guard<std::mutex> lock(lease_mu_);
        session->id = next_session_id_++;
        sessions_[session->id] = session;
      }
      // The push channel binds once this reply is queued
      // (ReactorHandleFrame), so no push can overtake it.
      state.subscription = session;
      Writer r = BeginResponse(Status::Ok(), corr);
      r.U64(session->id);
      d.response = WireReply(std::move(r));
      d.kind = Kind::kImmediate;
      break;
    }
    case Rpc::kLeaseAttach: {
      trace::Span span(d.name, "net.server");
      span.SetCorrelation(corr);
      auto sid = reader.U64();
      if (!sid.ok()) break;
      // Immediate (not pooled): attachment must order before the Gets
      // and Puts pipelined behind it on this connection.
      const bool known = FindSession(sid.value()) != nullptr;
      if (known) state.attached_session = sid.value();
      d.response = WireReply(BeginResponse(
          known ? Status::Ok()
                : Error(ErrorCode::kNotFound, "unknown lease session"),
          corr));
      d.kind = Kind::kImmediate;
      break;
    }
    case Rpc::kInvalidate: {
      // Server-originated only; a client sending it is desynchronized.
      break;
    }
    case Rpc::kStreamBegin: {
      auto name = reader.Str();
      if (!name.ok()) break;
      ConnState* st = &state;
      d.kind = Kind::kOrdered;
      d.execute = [this, st, corr, name = std::move(name).value()] {
        auto stream = backend_.OpenPutStream(name);
        if (!stream.ok()) {
          return WireReply(BeginResponse(stream.status(), corr));
        }
        std::uint64_t handle;
        {
          const std::lock_guard<std::mutex> lock(st->stream_mu);
          handle = st->next_stream_handle++;
          st->streams[handle] =
              ConnState::OpenStream{std::move(stream).value(), name};
        }
        {
          const std::lock_guard<std::mutex> lock(mu_);
          ++stats_.open_streams;
        }
        Writer r = BeginResponse(Status::Ok(), corr);
        r.U64(handle);
        return WireReply(std::move(r));
      };
      break;
    }
    case Rpc::kStreamAppend: {
      auto handle = reader.U64();
      if (!handle.ok()) break;
      auto segment = reader.Var(kMaxObjectBytes);
      if (!segment.ok()) break;
      ConnState* st = &state;
      d.kind = Kind::kOrdered;
      d.execute = [this, st, corr, handle = handle.value(),
                   segment = std::move(segment).value()] {
        const std::lock_guard<std::mutex> lock(st->stream_mu);
        const auto it = st->streams.find(handle);
        if (it == st->streams.end()) {
          return WireReply(BeginResponse(
              Error(ErrorCode::kInvalidArgument, "unknown stream handle"),
              corr));
        }
        return WireReply(
            BeginResponse(it->second.stream->Append(segment), corr));
      };
      break;
    }
    case Rpc::kStreamCommit: {
      auto handle = reader.U64();
      if (!handle.ok()) break;
      ConnState* st = &state;
      const std::uint64_t sid = state.attached_session;
      d.kind = Kind::kOrdered;
      d.mutation = true;
      d.execute = [this, st, corr, sid, handle = handle.value()] {
        std::unique_lock<std::mutex> lock(st->stream_mu);
        const auto it = st->streams.find(handle);
        if (it == st->streams.end()) {
          return WireReply(BeginResponse(
              Error(ErrorCode::kInvalidArgument, "unknown stream handle"),
              corr));
        }
        const std::string name = it->second.name;
        auto stream = std::move(it->second.stream);
        st->streams.erase(it);
        lock.unlock();
        // Commit publishes a new object atomically: same lease-break
        // protocol as Put, bracketing the backend call.
        BeginMutation(name);
        const Status verdict = stream->Commit();
        FinishMutation(name, sid);
        {
          const std::lock_guard<std::mutex> stats_lock(mu_);
          --stats_.open_streams;
        }
        return WireReply(BeginResponse(verdict, corr));
      };
      break;
    }
    case Rpc::kStreamAbort: {
      auto handle = reader.U64();
      if (!handle.ok()) break;
      ConnState* st = &state;
      d.kind = Kind::kOrdered;
      d.execute = [this, st, corr, handle = handle.value()] {
        std::unique_lock<std::mutex> lock(st->stream_mu);
        const auto it = st->streams.find(handle);
        if (it == st->streams.end()) {
          return WireReply(BeginResponse(
              Error(ErrorCode::kInvalidArgument, "unknown stream handle"),
              corr));
        }
        auto stream = std::move(it->second.stream);
        st->streams.erase(it);
        lock.unlock();
        stream->Abort();
        {
          const std::lock_guard<std::mutex> stats_lock(mu_);
          --stats_.open_streams;
        }
        return WireReply(BeginResponse(Status::Ok(), corr));
      };
      break;
    }
  }
  return d;
}

NexusdServer::WireReply NexusdServer::RunHandler(const Dispatch& d) {
  // One span per served request, tagged with the client's correlation id
  // so client and server spans can be matched up.
  trace::Span span(d.name, "net.server");
  span.SetCorrelation(d.corr);
  return d.execute();
}

// ---- the reactor ------------------------------------------------------------

void NexusdServer::ReactorAccept() {
  for (;;) {
    int listen_fd;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) return;
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return; // EAGAIN: the backlog is drained (or the listener is dying)
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<RConn>();
    conn->fd = fd;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return; // conn's destructor closes the fd
      ++stats_.connections_accepted;
      ++stats_.active_connections;
    }
    rconns_[fd] = conn;
    const Status added = reactor_->Add(
        fd, Reactor::kRead,
        [this, conn](std::uint32_t ready) { ReactorOnEvent(conn, ready); });
    if (!added.ok()) {
      rconns_.erase(fd);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        --stats_.active_connections;
      }
      drain_cv_.notify_all();
      // conn's destructor closes the fd
    }
  }
}

void NexusdServer::ReactorOnEvent(const std::shared_ptr<RConn>& conn,
                                  std::uint32_t ready) {
  if (conn->finalized) return;
  if (ready & Reactor::kError) {
    ReactorTeardown(conn, /*drain=*/false);
  } else {
    if (ready & Reactor::kWrite) {
      const std::lock_guard<std::mutex> lock(conn->send_mu);
      FlushSendQueue(*conn);
    }
    if (ready & Reactor::kRead) ReactorOnReadable(conn);
  }
  ReactorMaintain(conn);
}

void NexusdServer::ReactorOnReadable(const std::shared_ptr<RConn>& conn) {
  RConn& c = *conn;
  // Bounded reads per invocation: a firehose connection cannot starve the
  // rest of the loop. Level-triggered readiness re-reports leftovers.
  for (int budget = 8; budget > 0;) {
    {
      const std::lock_guard<std::mutex> lock(c.mu);
      if (c.dead || c.draining || c.paused) return;
    }

    if (c.big_need > 0) {
      // Oversize frame: its payload streams straight into the dedicated
      // heap buffer, bypassing the arena.
      const std::size_t want = c.big_need - c.big_filled;
      const ssize_t n = ::read(c.fd, c.big.data() + c.big_filled, want);
      --budget;
      if (n == 0) {
        ReactorTeardown(conn, /*drain=*/true);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        ReactorTeardown(conn, /*drain=*/false);
        return;
      }
      c.big_filled += static_cast<std::size_t>(n);
      if (c.big_filled < c.big_need) continue;
      Bytes frame = std::move(c.big);
      c.big = Bytes{};
      c.big_filled = 0;
      c.big_need = 0;
      if (!ReactorHandleFrame(conn, ByteSpan(frame.data(), frame.size()))) {
        return;
      }
      continue;
    }

    // Parse what is already buffered FIRST: resuming after backpressure
    // must re-process leftovers before asking the socket for more.
    ReactorParseBuffered(conn);
    {
      const std::lock_guard<std::mutex> lock(c.mu);
      if (c.dead || c.draining || c.paused) return;
    }
    if (c.big_need > 0) continue; // the parser switched to big mode

    if (c.in == nullptr) {
      c.in = arena_.Acquire();
      c.in_begin = 0;
    }
    if (c.in_begin > 0 && c.in->size == c.in->capacity()) {
      // Slide the partial frame to the slab front to regain room.
      std::memmove(c.in->data(), c.in->data() + c.in_begin,
                   c.in->size - c.in_begin);
      c.in->size -= c.in_begin;
      c.in_begin = 0;
    }
    if (c.in->size == c.in->capacity()) {
      // A full slab with no complete frame and no big-mode switch cannot
      // happen (the parser flips to big mode whenever the pending frame
      // exceeds the slab); treat it as corruption.
      ReactorTeardown(conn, /*drain=*/false);
      return;
    }
    const ssize_t n =
        ::read(c.fd, c.in->data() + c.in->size, c.in->capacity() - c.in->size);
    --budget;
    if (n == 0) {
      ReactorTeardown(conn, /*drain=*/true);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Hand an empty slab back to the arena between events.
        if (c.in != nullptr && c.in->size == c.in_begin) {
          c.in.reset();
          c.in_begin = 0;
        }
        return;
      }
      ReactorTeardown(conn, /*drain=*/false);
      return;
    }
    c.in->size += static_cast<std::size_t>(n);
    // Parse BEFORE the budget check can end the loop. Exiting with a
    // complete frame buffered in the slab would strand it: the socket may
    // now be empty, so level-triggered readiness never fires again and
    // the frame sits unserved until the peer gives up (observed as a
    // rare multi-second stall on lock-step connections whose next
    // request lands exactly on the final budgeted read).
    ReactorParseBuffered(conn);
  }
}

void NexusdServer::ReactorParseBuffered(const std::shared_ptr<RConn>& conn) {
  RConn& c = *conn;
  while (c.in != nullptr) {
    {
      const std::lock_guard<std::mutex> lock(c.mu);
      if (c.dead || c.draining || c.paused) return;
    }
    const std::size_t avail = c.in->size - c.in_begin;
    if (avail < kFramePrefixBytes) break;
    const std::uint32_t len = DecodeFrameLength(c.in->data() + c.in_begin);
    if (len > kMaxFrameBytes) {
      // Same bound (and same silence) as the client transport's
      // RecvFrame: the byte stream is garbage — kill it without a
      // protocol_errors tick.
      ReactorTeardown(conn, /*drain=*/false);
      return;
    }
    const std::size_t total = kFramePrefixBytes + len;
    if (total > c.in->capacity()) {
      // Oversize frame: move the payload bytes gathered so far to a heap
      // buffer and stream the rest into it. Everything buffered belongs
      // to this frame (total > capacity >= buffered).
      arena_.NoteOversize();
      c.big.resize(len);
      const std::size_t have = avail - kFramePrefixBytes;
      std::memcpy(c.big.data(), c.in->data() + c.in_begin + kFramePrefixBytes,
                  have);
      c.big_filled = have;
      c.big_need = len;
      c.in.reset();
      c.in_begin = 0;
      return;
    }
    if (avail < total) break; // partial frame: wait for more bytes
    const ByteSpan frame(c.in->data() + c.in_begin + kFramePrefixBytes, len);
    c.in_begin += total;
    if (!ReactorHandleFrame(conn, frame)) return;
  }
  if (c.in != nullptr && c.in_begin == c.in->size) {
    c.in.reset(); // fully parsed: recycle the slab now
    c.in_begin = 0;
  }
}

bool NexusdServer::ReactorHandleFrame(const std::shared_ptr<RConn>& conn,
                                      ByteSpan frame) {
  RConn& c = *conn;
  const std::uint64_t start_ns = MonotonicNanos();
  const std::size_t frame_bytes = frame.size();
  Dispatch d; // kProtocolError unless decoded
  if (c.proto.subscription == nullptr) {
    d = DecodeFrame(frame, c.proto);
  } else {
    // A lease channel carries only the client's acks of kInvalidate
    // pushes: bare responses echoing the push's correlation id.
    Reader reader(frame);
    Status verdict = Status::Ok();
    std::uint64_t corr = 0;
    if (ParseResponseHead(reader, &verdict, &corr).ok() && reader.AtEnd()) {
      LeaseSession& session = *c.proto.subscription;
      {
        const std::lock_guard<std::mutex> lock(session.mu);
        session.pending_acks.erase(corr);
      }
      session.cv.notify_all();
      return true;
    }
  }

  if (d.kind == Dispatch::Kind::kProtocolError) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.protocol_errors;
    }
    // Soft teardown: in-flight handlers still get their replies out.
    ReactorTeardown(conn, /*drain=*/true);
    return false;
  }

  if (d.kind == Dispatch::Kind::kImmediate) {
    CountOp(d.op, frame_bytes, d.response.payload_bytes);
    SendReply(conn, std::move(d.response));
    op_latency_ns_[d.op].Record(MonotonicNanos() - start_ns);
    if (c.proto.subscription != nullptr) {
      // That was the subscribe reply: pushes may follow it now.
      const std::lock_guard<std::mutex> lock(c.proto.subscription->mu);
      c.proto.subscription->channel = conn;
    }
    return true;
  }

  ReactorDispatch(conn, std::move(d), frame_bytes, start_ns);
  const std::lock_guard<std::mutex> lock(c.mu);
  return !c.paused;
}

void NexusdServer::ReactorDispatch(const std::shared_ptr<RConn>& conn,
                                   Dispatch d, std::size_t frame_bytes,
                                   std::uint64_t start_ns) {
  RConn& c = *conn;
  // A handler runs on the loop thread when nothing in it can wait: over a
  // backend that never waits, except a mutation while any lease session
  // exists — its lease break waits for acks that only this thread reads.
  // Sessions are created and finalized on this thread, so none can appear
  // while an inline mutation runs. An ordered op decides only when it
  // starts a runner.
  bool on_loop = backend_.NeverWaits();
  if (on_loop && d.mutation) {
    const std::lock_guard<std::mutex> lock(lease_mu_);
    on_loop = sessions_.empty();
  }
  if (d.kind == Dispatch::Kind::kOrdered) {
    bool start_runner = false;
    {
      const std::lock_guard<std::mutex> lock(c.mu);
      ++c.inflight;
      if (c.inflight >= options_.max_inflight_per_connection) c.paused = true;
      c.ordered.push_back(RConn::Ordered{std::move(d), frame_bytes, start_ns});
      if (!c.ordered_running) {
        c.ordered_running = true;
        start_runner = true;
      }
    }
    if (start_runner) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++reactor_tasks_;
      }
      // A runner started on the pool keeps the queue until it drains, so
      // later ops queue behind it in FIFO order wherever they would run.
      if (on_loop) {
        ReactorRunOrdered(conn);
        OnTaskExit();
      } else {
        rpc_pool_->Post([this, conn](parallel::WorkerContext&) {
          ReactorRunOrdered(conn);
          OnTaskExit();
        });
      }
    }
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(c.mu);
    ++c.inflight;
    // Backpressure decision rides the SAME critical section as the
    // increment: a handler finishing in between still observes `paused`
    // and schedules the resume.
    if (c.inflight >= options_.max_inflight_per_connection) c.paused = true;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++reactor_tasks_;
  }
  auto task = [this, conn, d = std::move(d), frame_bytes, start_ns] {
    ReactorExecute(conn, d, frame_bytes, start_ns);
    OnHandlerDone(conn);
    OnTaskExit();
  };
  if (on_loop) {
    // Inline on the loop thread: the reply leaves in arrival order.
    task();
  } else {
    rpc_pool_->Post([task = std::move(task)](parallel::WorkerContext&) {
      task();
    });
  }
}

void NexusdServer::ReactorRunOrdered(const std::shared_ptr<RConn>& conn) {
  RConn& c = *conn;
  for (;;) {
    RConn::Ordered item;
    {
      const std::lock_guard<std::mutex> lock(c.mu);
      if (c.ordered.empty()) {
        c.ordered_running = false;
        return;
      }
      item = std::move(c.ordered.front());
      c.ordered.pop_front();
    }
    ReactorExecute(conn, item.d, item.frame_bytes, item.start_ns);
    OnHandlerDone(conn);
  }
}

void NexusdServer::ReactorExecute(const std::shared_ptr<RConn>& conn,
                                  const Dispatch& d, std::size_t frame_bytes,
                                  std::uint64_t start_ns) {
  WireReply reply = RunHandler(d);
  CountOp(d.op, frame_bytes, reply.payload_bytes);
  SendReply(conn, std::move(reply));
  op_latency_ns_[d.op].Record(MonotonicNanos() - start_ns);
}

void NexusdServer::OnHandlerDone(const std::shared_ptr<RConn>& conn) {
  RConn& c = *conn;
  bool post = false;
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    --c.inflight;
    const bool idle = c.inflight == 0 && c.ordered.empty();
    const bool resumable = c.paused && !c.dead && !c.draining &&
                           c.inflight < options_.max_inflight_per_connection;
    const bool settled = idle && (c.dead || c.draining);
    if ((resumable || settled) && !c.maintain_posted) {
      c.maintain_posted = true;
      post = true;
    }
  }
  if (post) PostMaintain(conn);
}

void NexusdServer::OnTaskExit() {
  const std::lock_guard<std::mutex> lock(mu_);
  --reactor_tasks_;
  if (reactor_tasks_ == 0) drain_cv_.notify_all();
}

void NexusdServer::PostMaintain(const std::shared_ptr<RConn>& conn) {
  reactor_->Post([this, conn] { ReactorMaintain(conn); });
}

bool NexusdServer::SendReply(const std::shared_ptr<RConn>& conn,
                             WireReply reply) {
  RConn& c = *conn;
  const std::size_t frame_total = kFramePrefixBytes + reply.payload_bytes;
  bool want_maintain = false;
  {
    const std::lock_guard<std::mutex> lock(c.send_mu);
    if (c.send_failed) return false;
    if (frame_total <= arena_.slab_bytes()) {
      // Small frame: coalesce into the tail slab so bursts of replies
      // leave in one sendmsg.
      BufferArena::Slab* tail = nullptr;
      if (!c.outq.empty() && c.outq.back().slab != nullptr &&
          c.outq.back().slab->size + frame_total <=
              c.outq.back().slab->capacity()) {
        tail = c.outq.back().slab.get();
      } else {
        RConn::OutBuf buf;
        buf.slab = arena_.Acquire();
        c.outq.push_back(std::move(buf));
        tail = c.outq.back().slab.get();
      }
      EncodeFrameLength(static_cast<std::uint32_t>(reply.payload_bytes),
                        tail->data() + tail->size);
      tail->size += kFramePrefixBytes;
      for (const Bytes& part : reply.parts) {
        std::memcpy(tail->data() + tail->size, part.data(), part.size());
        tail->size += part.size();
      }
      c.outq.back().size = tail->size;
    } else {
      // Large frame: the prefix and every segment ride as-is; sendmsg
      // gathers them with no coalescing copy.
      RConn::OutBuf buf;
      Bytes prefix(kFramePrefixBytes);
      EncodeFrameLength(static_cast<std::uint32_t>(reply.payload_bytes),
                        prefix.data());
      buf.parts.reserve(reply.parts.size() + 1);
      buf.parts.push_back(std::move(prefix));
      for (Bytes& part : reply.parts) {
        if (!part.empty()) buf.parts.push_back(std::move(part));
      }
      buf.size = frame_total;
      c.outq.push_back(std::move(buf));
    }
    // Opportunistic flush: most replies leave right here, on the handler
    // thread, with no loop round trip.
    FlushSendQueue(c);
    want_maintain = (!c.outq.empty() || c.send_failed) && !c.arm_posted;
    if (want_maintain) c.arm_posted = true;
  }
  if (want_maintain) PostMaintain(conn);
  return true;
}

bool NexusdServer::FlushSendQueue(RConn& c) {
  while (!c.outq.empty()) {
    if (c.send_failed) {
      c.outq.clear();
      return true;
    }
    // Gather up to 64 segments across the queued buffers.
    iovec iov[64];
    int iovcnt = 0;
    for (auto it = c.outq.begin(); it != c.outq.end() && iovcnt < 64; ++it) {
      std::size_t skip = it->off;
      if (it->slab != nullptr) {
        iov[iovcnt].iov_base = it->slab->data() + skip;
        iov[iovcnt].iov_len = it->slab->size - skip;
        ++iovcnt;
      } else {
        for (const Bytes& part : it->parts) {
          if (iovcnt >= 64) break;
          if (skip >= part.size()) {
            skip -= part.size();
            continue;
          }
          iov[iovcnt].iov_base =
              const_cast<std::uint8_t*>(part.data()) + skip;
          iov[iovcnt].iov_len = part.size() - skip;
          skip = 0;
          ++iovcnt;
        }
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      c.send_failed = true; // peer is gone; the maintain pass tears down
      c.outq.clear();
      return true;
    }
    std::size_t advanced = static_cast<std::size_t>(n);
    while (advanced > 0 && !c.outq.empty()) {
      RConn::OutBuf& front = c.outq.front();
      const std::size_t remaining = front.size - front.off;
      if (advanced >= remaining) {
        advanced -= remaining;
        c.outq.pop_front(); // releases the slab back to the arena
      } else {
        front.off += advanced;
        advanced = 0;
      }
    }
  }
  return true;
}

void NexusdServer::ReactorMaintain(const std::shared_ptr<RConn>& conn) {
  RConn& c = *conn;
  // Two passes: the first may resume a paused connection (which parses
  // and reads), the second settles interest afterwards. A connection that
  // pauses again schedules its own next maintain via OnHandlerDone.
  for (int pass = 0; pass < 2; ++pass) {
    if (c.finalized) return;

    bool failed, flushed, pending;
    {
      const std::lock_guard<std::mutex> lock(c.send_mu);
      c.arm_posted = false;
      if (!c.send_failed) FlushSendQueue(c);
      failed = c.send_failed;
      pending = !c.outq.empty();
      flushed = !failed && !pending;
    }
    if (failed) ReactorTeardown(conn, /*drain=*/false);

    bool finish = false, resume = false, reads_off;
    {
      const std::lock_guard<std::mutex> lock(c.mu);
      c.maintain_posted = false;
      if (c.paused && !c.dead && !c.draining &&
          c.inflight < options_.max_inflight_per_connection) {
        c.paused = false;
        resume = true;
      }
      reads_off = c.paused || c.dead || c.draining;
      const bool idle = c.inflight == 0 && c.ordered.empty();
      finish = idle && (c.dead || (c.draining && flushed));
    }
    if (finish) {
      ReactorFinalize(conn);
      return;
    }

    std::uint32_t interest = 0;
    if (!reads_off) interest |= Reactor::kRead;
    if (pending) interest |= Reactor::kWrite;
    if (interest != c.interest) {
      c.interest = interest;
      if (!reactor_->Modify(c.fd, interest).ok()) {
        // Registry refused the update: the connection can never be woken
        // for the interest it needs, so it cannot make progress.
        ReactorTeardown(conn, /*drain=*/false);
        continue; // let the finalize check run with the new dead flag
      }
    }

    if (!resume) return;
    ReactorOnReadable(conn); // re-parse leftovers, then pull fresh bytes
  }
}

void NexusdServer::ReactorTeardown(const std::shared_ptr<RConn>& conn,
                                   bool drain) {
  RConn& c = *conn;
  if (c.finalized) return;
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    if (drain) {
      c.draining = true; // stop reading; queued replies still go out
    } else {
      c.dead = true;
    }
  }
  if (!drain) {
    {
      const std::lock_guard<std::mutex> lock(c.send_mu);
      c.send_failed = true;
      c.outq.clear();
    }
    ::shutdown(c.fd, SHUT_RDWR);
  }
  // Input buffers are dead weight from here.
  c.in.reset();
  c.in_begin = 0;
  c.big = Bytes{};
  c.big_filled = 0;
  c.big_need = 0;
}

void NexusdServer::ReactorFinalize(const std::shared_ptr<RConn>& conn) {
  RConn& c = *conn;
  if (c.finalized) return;
  c.finalized = true;
  reactor_->Remove(c.fd);
  rconns_.erase(c.fd);
  ::shutdown(c.fd, SHUT_RDWR);
  std::map<std::uint64_t, ConnState::OpenStream> streams;
  {
    const std::lock_guard<std::mutex> lock(c.proto.stream_mu);
    streams.swap(c.proto.streams);
  }
  const std::size_t aborted = streams.size();
  streams.clear(); // destructors abort anything uncommitted
  if (c.proto.subscription != nullptr) {
    CleanupSession(c.proto.subscription); // the lease channel is gone
    c.proto.subscription.reset();
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.streams_aborted_on_disconnect += aborted;
    stats_.open_streams -= aborted;
    --stats_.active_connections;
  }
  drain_cv_.notify_all();
  // The fd closes when the last shared_ptr reference drops (RConn dtor).
}

} // namespace nexus::net
