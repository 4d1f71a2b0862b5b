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
//     last-writer-wins, a Delete of a missing name is Ok), so blind
//     re-execution of an attempt with unknown outcome is safe,
//   * one wire version — every connection runs the full window from its
//     first RPC. Nothing is negotiated: a response head carrying any
//     other version drops the connection like any malformed head, and a
//     reply missing a field or carrying trailing bytes fails its call —
//     those bytes come from the untrusted store.
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
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/mux.hpp"
#include "net/net_counters.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"
#include "trace/histogram.hpp"

namespace nexus::net {

/// Dials one fresh connection to the server (called for the initial
/// connections and every reconnect). Tests wrap the returned transport in
/// a FaultyTransport.
using TransportFactory =
    std::function<Result<std::unique_ptr<Transport>>()>;

/// Window size from NEXUS_RPC_WINDOW (default 8, clamped to [1, 256]).
std::size_t DefaultRpcWindow();

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
  /// Inert: nothing reads it; nexus_bench sets it (ROADMAP item 2).
  std::size_t readahead_budget_bytes = 0;
};

class RemoteBackend final : public storage::StorageBackend {
 public:
  RemoteBackend(TransportFactory factory, RemoteBackendOptions options = {});

  /// TCP convenience: dials host:port eagerly once (a Ping) so a dead
  /// server fails fast at construction instead of on the first Get.
  static Result<std::unique_ptr<RemoteBackend>> Connect(
      const std::string& host, std::uint16_t port,
      RemoteBackendOptions options = {});

  /// One kGet round trip; a reply with bytes after the object fails
  /// the call.
  Result<Bytes> Get(const std::string& name) override;
  /// One kPut round trip; an OK reply carries nothing, so any result
  /// bytes fail the call.
  Status Put(const std::string& name, ByteSpan data) override;
  Status Delete(const std::string& name) override;
  /// One zero-byte kGetHead round trip; a failed call reads as absent.
  bool Exists(const std::string& name) override;
  /// kListPage pages of kMaxNamesPerFrame names until one is the last; a
  /// page that fails or is malformed fails the listing, which reads as
  /// empty.
  std::vector<std::string> List(const std::string& prefix) override;
  /// One kGetHead round trip. `max_bytes` is clamped to kMaxObjectBytes;
  /// a reply whose prefix is not exactly min(max, size) bytes, or that
  /// carries bytes after the prefix, fails the call, since those bytes
  /// come from the untrusted store.
  Result<Head> GetHead(const std::string& name, std::size_t max_bytes) override;
  /// One kListPage round trip; a page that fails or is malformed (see
  /// CallListPage) reads as empty with no continuation.
  ListPage ListSome(const std::string& prefix, const std::string& start_after,
                    std::size_t limit) override;
  /// Pipelined multi-append stream on a dedicated mux connection: client
  /// memory is O(window), not O(object), and a transport failure fails
  /// the stream permanently (see the header comment).
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override;

  /// Liveness probe through the full RPC machinery (retries included).
  Status Ping();

  /// Fetches the server's lifetime counters and per-op latency summary
  /// (Rpc::kStats), through the same retry machinery as every other RPC.
  Result<ServerStats> Stats();

  [[nodiscard]] NetCounters counters() const;

 private:
  friend class MuxPutStream;

  /// One RPC through the mux with per-request retry/reconnect/backoff.
  /// On a well-formed response returns the payload after the verified
  /// head; the server's verdict is authoritative.
  Result<Bytes> Call(const Writer& request);
  /// One kListPage round trip. The reply is malformed, and the call
  /// fails, when it holds more names than asked for, a name without
  /// `prefix`, names not strictly ascending from `start_after`, `more`
  /// on an empty page, or bytes missing or trailing after `more`.
  Result<ListPage> CallListPage(const std::string& prefix,
                                const std::string& start_after,
                                std::size_t limit);

  /// Returns a connection with window room, dialing a fresh one when the
  /// pool has none to give. Counts a reconnect when `is_retry` dials.
  Result<std::shared_ptr<MuxConnection>> AcquireConnection(bool is_retry);
  std::shared_ptr<MuxConnection> NewConnection(
      std::unique_ptr<Transport> transport);

  /// Consecutive-failure streak driving the backoff delay.
  void NoteFailure();
  void NoteSuccess();
  void Backoff();
  void CountRetry();

  TransportFactory factory_;
  RemoteBackendOptions options_;
  std::size_t rpc_window_;

  std::atomic<int> failure_streak_{0};

  mutable std::mutex mu_;
  std::uint64_t jitter_state_;
  NetCounters counters_; // percentiles come from rpc_latency_
  trace::Histogram rpc_latency_; // successful RPCs; records lock-free

  mutable std::mutex pool_mu_;
  std::vector<std::shared_ptr<MuxConnection>> pool_;
};

} // namespace nexus::net
