// nexusd server library: serves any StorageBackend over the wire protocol.
//
// One event-driven serve loop. A single loop thread owns an epoll Reactor
// over the nonblocking listener and every connection, lease channels
// included. Request bytes land in pooled BufferArena slabs and frames are
// parsed in place; handlers stage their responses into a per-connection
// scatter/gather send queue (small replies coalesce into arena slabs,
// large Get bodies stay zero-copy), flushed with sendmsg and drained
// by EPOLLOUT when a socket pushes back. Idle connections cost one
// registration, not a thread, so the daemon holds thousands of clients at
// a flat resident thread count: the loop plus the rpc pool (the CI
// high-connection smoke holds 512). A daemon whose Reactor cannot start
// fails Start().
//
// Where a handler runs. Over a backend whose calls never wait
// (StorageBackend::NeverWaits: MemBackend), handlers run inline on the
// loop thread that parsed the frame, so a lock-step RPC wakes one server
// thread, not two. Everything that may wait runs on the shared rpc pool:
// every handler of any other backend, and over a never-waiting one every
// mutation (Put, Delete, StreamCommit) while any lease session exists —
// it may wait up to lease_break_ms for acks that only the loop reads.
// Sessions are created and finalized on the loop thread, so the rule is
// exact at dispatch time.
//
// Within one connection, requests are pipelined: frames are parsed in
// arrival order (framing errors must kill the connection
// deterministically) and each finished handler sends its own response —
// so responses from pool handlers can leave out of order, matched back by
// correlation id on the client. The stream RPCs (Begin/Append/Commit/
// Abort) are connection state that the in-order byte stream defines: they
// funnel through a per-connection ordered queue (one in flight at a time,
// FIFO); a runner started on the pool keeps that queue until it drains.
// A frame whose head carries any version other than kProtocolVersion is a
// protocol error like any malformed frame: the connection dies and
// protocol_errors ticks.
//
// Lease-based cache coherence. A client turns one connection into its
// invalidation channel with kLeaseSubscribe (the response names a session
// id; from then on the SERVER originates kInvalidate frames on it and the
// client acks each with a response frame), and ties its data connections
// to the session with kLeaseAttach. The channel stays on the loop: pushes
// go through its send queue like any reply, and the loop reads the acks;
// any frame on it that is not a response ends the session. A Get asking
// for a lease registers the session as a holder of that object BEFORE the
// backend read and re-validates the object's version after it — a
// concurrent mutation between the two denies the lease, so a granted
// lease always covers the exact bytes returned. Mutations bump the
// version first, apply, then break every holder except the writer's own
// session: push the invalidation, wait for the ack up to lease_break_ms,
// and shut the channel's socket down on timeout, which ends the session
// through the ordinary teardown — an unresponsive client can delay a
// writer only briefly and can never hold stale data past its TTL.
//
// The daemon is the paper's untrusted storage service: it sees only
// ciphertext and opaque names, so it does no authentication and keeps no
// per-client state beyond in-flight put streams and lease sessions. Those
// streams are scoped to their connection and aborted when it dies — a
// client crash or mid-stream reset can never leave a partially visible
// object (the backend's PutStream publishes atomically at Commit).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "net/buffer_arena.hpp"
#include "net/wire.hpp"
#include "parallel/thread_pool.hpp"
#include "storage/backend.hpp"
#include "trace/histogram.hpp"

namespace nexus::net {

class Reactor;

struct NexusdOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read the actual one from port().
  std::uint16_t port = 0;
  /// Workers on the shared pool for handlers that may wait (all
  /// connections; see "Where a handler runs" above). At least 1.
  std::size_t rpc_workers = 4;
  /// Most handler tasks one connection may have outstanding before the
  /// loop stops reading its frames (per-connection backpressure).
  std::size_t max_inflight_per_connection = 64;
  /// How long a mutation waits for a lease holder's invalidation ack
  /// before killing the holder's session. Must be positive.
  int lease_break_ms = 1000;
};

class NexusdServer {
 public:
  /// Binds, listens and starts serving. `backend` must outlive the server
  /// and obey the StorageBackend thread-safety contract.
  static Result<std::unique_ptr<NexusdServer>> Start(
      storage::StorageBackend& backend, NexusdOptions options = {});

  ~NexusdServer();

  NexusdServer(const NexusdServer&) = delete;
  NexusdServer& operator=(const NexusdServer&) = delete;

  /// Stops accepting, unblocks and drains every in-flight connection,
  /// joins all threads. Idempotent.
  void Stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t rpcs_served = 0;
    std::uint64_t protocol_errors = 0; // malformed frames / bad rpc ids
    std::uint64_t streams_aborted_on_disconnect = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t active_connections = 0; // gauge
    std::uint64_t open_streams = 0;       // gauge
    // Lease coherence.
    std::uint64_t lease_sessions = 0; // gauge
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_broken = 0;
    std::uint64_t invalidations_sent = 0;
    std::uint64_t lease_break_timeouts = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Snapshot served over Rpc::kStats: stats() plus one row per RPC id
  /// actually served, with p50/p99 service latency from the per-op
  /// histograms.
  [[nodiscard]] ServerStats WireStats() const;

 private:
  /// Dense per-RPC slot array; index = static_cast<std::size_t>(Rpc).
  static constexpr std::size_t kRpcSlots =
      static_cast<std::size_t>(kLastRpc) + 1;

  struct PerOpCounters {
    std::uint64_t count = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
  };

  // Protocol-engine types; defined in server.cpp (they drag in
  // reactor internals).
  struct ConnState; // per-connection protocol state (streams, session)
  struct WireReply; // response payload as scatter/gather segments
  struct Dispatch;  // one decoded request frame + its handler closure
  struct RConn;     // one served connection

  /// One subscribed client. `channel` is the subscription connection;
  /// pushes queue on its send queue under `mu`, and the loop erases acked
  /// correlation ids from `pending_acks` as the acks arrive.
  struct LeaseSession {
    std::uint64_t id = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::weak_ptr<RConn> channel;         // under mu
    std::set<std::uint64_t> pending_acks; // under mu
    bool dead = false;                    // under mu
  };

  NexusdServer(storage::StorageBackend& backend, NexusdOptions options);

  /// Decodes one request frame against `state` and classifies it for
  /// dispatch.
  Dispatch DecodeFrame(ByteSpan frame, ConnState& state);
  /// Runs a dispatch's handler under its server span.
  WireReply RunHandler(const Dispatch& d);
  /// Counters a response must bump BEFORE it is sent (net_e2e contract).
  void CountOp(std::size_t op, std::uint64_t bytes_in,
               std::uint64_t bytes_out);

  // The serve loop (all loop-thread-only unless noted).
  void ReactorAccept();
  void ReactorOnEvent(const std::shared_ptr<RConn>& conn, std::uint32_t ready);
  void ReactorOnReadable(const std::shared_ptr<RConn>& conn);
  void ReactorParseBuffered(const std::shared_ptr<RConn>& conn);
  bool ReactorHandleFrame(const std::shared_ptr<RConn>& conn, ByteSpan frame);
  void ReactorDispatch(const std::shared_ptr<RConn>& conn, Dispatch d,
                       std::size_t frame_bytes, std::uint64_t start_ns);
  void ReactorRunOrdered(const std::shared_ptr<RConn>& conn); // any thread
  void ReactorExecute(const std::shared_ptr<RConn>& conn, const Dispatch& d,
                      std::size_t frame_bytes,
                      std::uint64_t start_ns);               // any thread
  void OnHandlerDone(const std::shared_ptr<RConn>& conn);    // any thread
  void OnTaskExit(); // any thread: one rpc-pool task retired
  bool SendReply(const std::shared_ptr<RConn>& conn,
                 WireReply reply);  // any thread
  bool FlushSendQueue(RConn& conn); // any thread; callers hold send_mu
  void PostMaintain(const std::shared_ptr<RConn>& conn); // any thread
  void ReactorMaintain(const std::shared_ptr<RConn>& conn);
  void ReactorTeardown(const std::shared_ptr<RConn>& conn, bool drain);
  void ReactorFinalize(const std::shared_ptr<RConn>& conn);

  // Lease machinery (registry under lease_mu_; never hold lease_mu_
  // while touching a session's channel).
  [[nodiscard]] std::shared_ptr<LeaseSession> FindSession(std::uint64_t sid);
  /// Registers `sid` as a holder of `name` before the backend read;
  /// reports the object version the grant is conditioned on.
  bool PreGrantLease(const std::string& name, std::uint64_t sid,
                     std::uint64_t* version_before);
  /// Confirms the grant after the read: the object version must be
  /// unchanged and the holder still registered (a concurrent mutation
  /// clears both). Deregisters on denial or failed reads.
  bool PostGrantLease(const std::string& name, std::uint64_t sid,
                      std::uint64_t version_before, bool read_ok);
  /// Bumps the object's version BEFORE the backend mutation so any read
  /// racing the mutation fails its PostGrant validation. When the writer
  /// wants a WRITE lease (Put), it is registered as a holder here —
  /// mirroring PreGrantLease — and the bumped version is returned so
  /// FinishMutation can confirm the grant only if no other mutation
  /// interleaved.
  std::uint64_t BeginMutation(const std::string& name,
                              std::uint64_t writer_sid = 0,
                              bool want_lease = false);
  /// Breaks every holder except the writer's own session: pushes the
  /// invalidation, waits for acks up to lease_break_ms, and shuts down the
  /// channel of every session that never answers. Returns whether the
  /// writer's WRITE lease (asked for at BeginMutation) was confirmed: the
  /// write must have succeeded and the object version must still equal
  /// `version_at_begin` with the writer still registered — any
  /// overlapping mutation denies the grant.
  bool FinishMutation(const std::string& name, std::uint64_t writer_sid,
                      std::uint64_t version_at_begin = 0,
                      bool want_lease = false, bool write_ok = false);
  /// Tears a session out of the registry and wakes any waiting writers.
  void CleanupSession(const std::shared_ptr<LeaseSession>& session);

  storage::StorageBackend& backend_;
  NexusdOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::unique_ptr<parallel::ThreadPool> rpc_pool_;

  std::unique_ptr<Reactor> reactor_;
  std::thread loop_thread_;
  BufferArena arena_;
  std::map<int, std::shared_ptr<RConn>> rconns_; // loop thread only
  std::size_t reactor_tasks_ = 0; // under mu_: handler tasks in flight
  // With mu_; Stop() waits for zero tasks and zero active connections.
  std::condition_variable drain_cv_;

  mutable std::mutex mu_;
  bool stopping_ = false;
  Stats stats_; // lease_sessions derived, the rest maintained under mu_
  PerOpCounters per_op_[kRpcSlots]; // under mu_
  trace::Histogram op_latency_ns_[kRpcSlots]; // internally synchronized

  // Lease registry. Lock order: lease_mu_ before mu_ (counter updates),
  // never after a session's mu; a session's mu before its channel's
  // send_mu (pushes).
  mutable std::mutex lease_mu_;
  std::uint64_t next_session_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<LeaseSession>> sessions_;
  std::map<std::string, std::set<std::uint64_t>> holders_;
  /// Monotonic per-object mutation counter; entries persist for the
  /// server's lifetime (names are few and short at this repo's scale).
  std::map<std::string, std::uint64_t> object_version_;
};

} // namespace nexus::net
