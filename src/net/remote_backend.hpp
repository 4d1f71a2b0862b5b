// RemoteBackend: a StorageBackend whose objects live behind a nexusd
// daemon on a real socket.
//
// This is the client half of the first genuine network boundary in the
// repo: NexusClient, the journal and the streaming data path all keep
// talking to a StorageBackend, unaware that every call now crosses a wire
// to an untrusted — and unreliable — server. Reliability policy lives
// entirely here:
//
//   * pipelined multiplexing — every pooled connection is a MuxConnection
//     keeping up to `rpc_window` RPCs in flight, matched to their
//     responses by correlation id (mux.hpp). Callers on different threads
//     share connections instead of queueing behind each other,
//   * per-REQUEST retries with exponential backoff + deterministic jitter
//     — a transport failure fails every request on that connection at
//     once, and each affected request independently retries on a fresh
//     connection up to max_attempts. The backoff delay derives from a
//     shared consecutive-failure streak that RESETS on any success, so
//     one transient blip early in a connection's life doesn't inflate
//     every later retry. Server VERDICTS inside a well-formed response
//     are authoritative and never retried,
//   * ambiguity resolution — every retried RPC is idempotent (Put is
//     last-writer-wins), so blind re-execution is safe. The
//     one wrinkle is Delete: if an earlier attempt's outcome is unknown
//     and the retry says kNotFound, the delete DID happen — report Ok,
//   * one wire version — every connection runs the full window from its
//     first RPC and MultiGet/MultiExists coalesce name fan-outs into one
//     frame each way. Nothing is negotiated: a response head carrying any
//     other version drops the connection like any malformed head, and a
//     reply missing a required field (a lease byte) fails its call —
//     those bytes come from the untrusted store,
//   * chunk readahead — Prefetch(name) speculatively issues a Get through
//     any spare window slot (never blocking, never retrying, never
//     dialing) and delivers the parsed object to the registered
//     PrefetchSink on whichever thread reads the reply: the connection's
//     demux thread, or a caller waiting on the same connection. The cache
//     layer (cache/cached_backend.hpp) owns buffering, budgets and
//     eviction; this backend holds no prefetched bytes of its own,
//   * lease coherence — SubscribeInvalidations dials a dedicated
//     callback connection, registers a lease session, and pumps
//     server-pushed kInvalidate frames to the listener, acking each.
//     GetLeased asks the server for a read lease on the fetched object;
//     pooled data connections (and stream connections) attach themselves
//     to the session so the server can skip invalidating the writer's own
//     cache.
//
// Streamed puts are pipelined, not replayed: OpenPutStream opens a
// dedicated mux connection, keeps up to a window of segments in flight
// and retains none once it hits the socket. A transport failure at any
// point fails the stream with kIOError; the server publishes nothing
// until a Commit it fully received, so a broken stream never leaves a
// partial object. Whole-object RPCs keep the per-request retries above;
// a stream's redundancy is its caller's job (the cluster's quorum).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/mux.hpp"
#include "net/net_counters.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"

namespace nexus::net {

/// Dials one fresh connection to the server (called for the initial
/// connections and every reconnect). Tests wrap the returned transport in
/// a FaultyTransport.
using TransportFactory =
    std::function<Result<std::unique_ptr<Transport>>()>;

/// Window size from NEXUS_RPC_WINDOW (default 8, clamped to [1, 256]).
std::size_t DefaultRpcWindow();
/// Readahead budget from NEXUS_READAHEAD_BUDGET (bytes; default 32 MiB).
std::size_t DefaultReadaheadBudgetBytes();

struct RemoteBackendOptions {
  int rpc_deadline_ms = 5000;
  int connect_deadline_ms = 5000;
  /// Total tries per RPC (1 = no retries).
  int max_attempts = 4;
  int backoff_base_ms = 5;
  int backoff_cap_ms = 100;
  /// Seed for the backoff jitter (deterministic given the call sequence).
  std::uint64_t jitter_seed = 0x6e657875736e6574ull; // "nexusnet"
  /// Connections kept in the pool. 0 = never pool: every RPC dials its
  /// own connection (tests that need one fault schedule per RPC).
  std::size_t max_pooled_connections = 4;
  /// Injectable sleep so fault tests record backoff instead of waiting.
  std::function<void(int ms)> sleep_ms; // null => real sleep
  /// Max in-flight RPCs per connection. 0 = DefaultRpcWindow()
  /// (NEXUS_RPC_WINDOW).
  std::size_t rpc_window = 0;
  /// Readahead gate: 0 = default (NEXUS_READAHEAD_BUDGET, 32 MiB) and an
  /// EXPLICIT NEXUS_READAHEAD_BUDGET=0 disables speculation entirely. The
  /// byte budget itself is enforced by the cache tier that consumes the
  /// deliveries; prefetch is also off with a window of 1 (nothing to
  /// overlap with).
  std::size_t readahead_budget_bytes = 0;
  /// Most speculative Gets in flight at once.
  std::size_t max_inflight_prefetches = 8;
  /// Dials the dedicated lease-callback connection. Null uses the main
  /// factory — fine for tests; Connect() installs a deadline-free dialer
  /// here because the callback channel blocks in RecvFrame indefinitely
  /// between pushes. Fault tests substitute a dropping transport to
  /// exercise lost invalidations.
  TransportFactory lease_transport_factory;
};

class RemoteBackend final : public storage::StorageBackend {
 public:
  RemoteBackend(TransportFactory factory, RemoteBackendOptions options = {});
  ~RemoteBackend() override;

  /// TCP convenience: dials host:port eagerly once (a Ping) so a dead
  /// server fails fast at construction instead of on the first Get.
  static Result<std::unique_ptr<RemoteBackend>> Connect(
      const std::string& host, std::uint16_t port,
      RemoteBackendOptions options = {});

  Result<Bytes> Get(const std::string& name) override;
  Result<Bytes> GetLeased(const std::string& name,
                          bool* lease_granted) override;
  Status Put(const std::string& name, ByteSpan data) override;
  Status PutLeased(const std::string& name, ByteSpan data,
                   bool* lease_granted) override;
  Status Delete(const std::string& name) override;
  bool Exists(const std::string& name) override;
  std::vector<std::string> List(const std::string& prefix) override;
  /// One kListPage round trip.
  ListPage ListSome(const std::string& prefix, const std::string& start_after,
                    std::size_t limit) override;
  /// Pipelined multi-append stream on a dedicated mux connection: client
  /// memory is O(window), not O(object), and a transport failure fails
  /// the stream permanently (see the header comment).
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override;
  std::vector<Result<Bytes>> MultiGet(
      const std::vector<std::string>& names) override;
  std::vector<Result<Bytes>> MultiGetLeased(
      const std::vector<std::string>& names,
      std::vector<bool>* leased) override;
  std::vector<bool> MultiExists(const std::vector<std::string>& names) override;
  void Prefetch(const std::string& name) override;
  void SetPrefetchSink(PrefetchSink sink) override;
  bool SubscribeInvalidations(InvalidationListener on_invalidate,
                              ChannelDownHandler on_channel_down) override;

  /// Liveness probe through the full RPC machinery (retries included).
  Status Ping();

  /// Fetches the server's lifetime counters and per-op latency summary
  /// (Rpc::kStats), through the same retry machinery as every other RPC.
  Result<ServerStats> Stats();

  [[nodiscard]] NetCounters counters() const;
  /// Lease session id on the server (0 = not subscribed / channel down).
  [[nodiscard]] std::uint64_t lease_session() const noexcept;

 private:
  friend class MuxPutStream;

  /// One RPC through the mux with per-request retry/reconnect/backoff.
  /// On a well-formed response returns the payload after the verified
  /// head; the server's verdict is authoritative. `ambiguous` (optional)
  /// reports whether any FAILED attempt may have reached the server.
  Result<Bytes> Call(const Writer& request, bool* ambiguous = nullptr);

  /// Returns a connection with window room, dialing a fresh one when the
  /// pool has none to give. Counts a reconnect when `is_retry` dials.
  Result<std::shared_ptr<MuxConnection>> AcquireConnection(bool is_retry);
  std::shared_ptr<MuxConnection> NewConnection(
      std::unique_ptr<Transport> transport);
  /// Best-effort kLeaseAttach on a fresh data connection (no-op when no
  /// session is live).
  void AttachLease(MuxConnection& conn);

  /// Consecutive-failure streak driving the backoff delay.
  void NoteFailure();
  void NoteSuccess();
  void Backoff();
  void CountRetry();

  /// Demux-thread landing of a speculative Get: parses the response and
  /// hands the object to the sink.
  void OnPrefetchDone(const std::string& name, const PrefetchSink& sink,
                      std::uint64_t correlation, const Status& failure,
                      const Bytes& response);
  /// Pumps server-pushed kInvalidate frames until the channel dies.
  void LeaseCallbackLoop();

  TransportFactory factory_;
  RemoteBackendOptions options_;
  std::size_t rpc_window_;
  std::size_t readahead_budget_;

  std::atomic<int> failure_streak_{0};

  mutable std::mutex mu_;
  std::uint64_t jitter_state_;
  NetCounters counters_;

  /// One speculative Get in flight. A demand read for the same name JOINS
  /// the speculation (waits on `cv`) instead of issuing a duplicate RPC —
  /// the duplicate would race the prefetch delivery into the cache tier
  /// and could evict a surviving entry with its second insert. The result
  /// bytes are copied in only when a joiner is actually waiting.
  struct PrefetchFlight {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t waiters = 0;  // under mu
    bool done = false;        // under mu
    Status verdict = Status::Ok(); // under mu, valid once done
    // A joiner that registered too late to be seen at delivery finds
    // has_data false (despite an ok verdict) and falls back to a demand
    // fetch — which the sink delivery has already made a cache hit.
    bool has_data = false; // under mu
    Bytes data;            // under mu, valid when done && has_data
  };
  /// Completes a flight and wakes its joiners (never under prefetch_mu_).
  static void FinishFlight(const std::shared_ptr<PrefetchFlight>& flight,
                           Status verdict);

  mutable std::mutex prefetch_mu_;
  PrefetchSink sink_;                          // under prefetch_mu_
  std::map<std::string, std::shared_ptr<PrefetchFlight>>
      prefetch_inflight_;                      // names being speculated

  // Lease-callback channel. The listener/handler are written once under
  // lease_mu_ before the thread starts and read by it without locking.
  std::mutex lease_mu_;
  std::unique_ptr<Transport> lease_transport_;
  std::thread lease_thread_;
  InvalidationListener lease_listener_;
  ChannelDownHandler lease_on_down_;
  std::atomic<std::uint64_t> lease_session_{0};
  std::atomic<bool> lease_shutdown_{false};

  // Declared LAST: connections (and their demux threads, which may still
  // run delivery hooks touching the members above) die first.
  mutable std::mutex pool_mu_;
  std::vector<std::shared_ptr<MuxConnection>> pool_;
};

} // namespace nexus::net
