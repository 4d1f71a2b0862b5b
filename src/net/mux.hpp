// Pipelined RPC multiplexing over one transport connection.
//
// A MuxConnection owns a Transport plus one demux thread and keeps up to
// `window` RPCs in flight at once. Submitters serialize their request
// frames onto the socket; the demux thread receives response frames and
// routes each one to its waiting submitter by the correlation id already
// stamped on every frame — so a server that replies out of order
// (nexusd's shared handler pool) is handled for free, and a server that
// replies in order just degenerates to a pipeline.
//
// Failure semantics are whole-connection: a transport error, a response
// carrying an unknown correlation id, or a malformed frame means the byte
// stream can no longer be trusted, so every in-flight request on the
// connection fails at once (each marked ambiguous iff its frame hit the
// wire). The requests are NOT orphaned — each caller holds its own slot,
// observes the failure independently, and retries on a fresh connection
// through RemoteBackend's per-request retry discipline.
//
// The demux thread only blocks in RecvFrame while at least one sent
// request is outstanding; otherwise it parks on a condition variable.
// This keeps idle pooled connections alive (no deadline expiry while
// nothing is owed) and preserves FaultyTransport's send-then-recv
// schedule under fault injection.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/transport.hpp"

namespace nexus::net {

class MuxConnection {
 public:
  /// One in-flight RPC. Created by Submit/TrySubmit, completed exactly
  /// once by the demux thread (delivery or connection failure) or by the
  /// submitter itself (send failure).
  struct Slot {
    std::uint64_t correlation = 0;
    std::uint64_t start_ns = 0;
    std::size_t request_bytes = 0;
    /// True once the request frame was fully written to the socket — a
    /// later failure leaves the RPC's outcome unknown (ambiguous).
    std::atomic<bool> sent{false};
    /// Invoked on the completing thread after the outcome is decided and
    /// strictly before any waiter wakes: `failure` is Ok on delivery (and
    /// `response` the delivered frame, empty on failure). Prefetch parses
    /// the frame right here so a consumer that observes the slot done also
    /// observes the object already in the cache.
    std::function<void(const Status& failure, const Bytes& response)> on_done;

    /// Blocks until the slot completes; returns the full response payload
    /// or the transport failure.
    Result<Bytes> Wait();

   private:
    friend class MuxConnection;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool counted = false; // contributes to sent_inflight_; under mux mu_
    Status failure = Status::Ok();
    Bytes response;
  };

  /// Called on the demux thread for every response DELIVERED to a slot,
  /// before the slot completes. RemoteBackend counts client rpcs/bytes/
  /// latency here so delivered-but-unconsumed prefetches still mirror the
  /// server's own counters exactly.
  using DeliveryHook = std::function<void(
      std::size_t request_bytes, std::size_t response_bytes,
      std::uint64_t start_ns)>;

  /// Takes ownership of a connected transport. `window` bounds the number
  /// of simultaneously in-flight RPCs (>= 1).
  MuxConnection(std::unique_ptr<Transport> transport, std::size_t window,
                DeliveryHook on_delivery = nullptr);
  ~MuxConnection();

  MuxConnection(const MuxConnection&) = delete;
  MuxConnection& operator=(const MuxConnection&) = delete;

  using CompletionHook =
      std::function<void(const Status& failure, const Bytes& response)>;

  /// Sends `request` (a complete request frame) and returns its slot.
  /// Blocks while the window is full; returns nullptr if the connection
  /// is (or becomes) broken — the caller acquires a fresh connection.
  std::shared_ptr<Slot> Submit(ByteSpan request,
                               CompletionHook on_done = nullptr);

  /// Non-blocking Submit for speculative traffic: returns nullptr instead
  /// of waiting when the window is full or the connection is broken.
  std::shared_ptr<Slot> TrySubmit(ByteSpan request,
                                  CompletionHook on_done = nullptr);

  /// Marks the connection unusable and fails every in-flight request
  /// (used when a delivered response turns out to be malformed).
  void Poison(const Status& reason);

  [[nodiscard]] bool broken() const;
  /// In-flight request count (registered, not yet completed).
  [[nodiscard]] std::size_t inflight() const;
  [[nodiscard]] std::size_t window() const noexcept { return window_; }

 private:
  std::shared_ptr<Slot> DoSubmit(ByteSpan request, bool blocking,
                                 CompletionHook on_done);
  void DemuxLoop();
  /// Breaks the connection: fails all pending slots with `reason`.
  void Fail(const Status& reason);
  static void Complete(Slot& slot, Status failure, Bytes response);

  std::unique_ptr<Transport> transport_;
  DeliveryHook on_delivery_;
  const std::size_t window_;

  mutable std::mutex mu_;
  std::condition_variable window_cv_; // submitters waiting for a free slot
  std::condition_variable demux_cv_;  // demux parked while nothing is owed
  std::map<std::uint64_t, std::shared_ptr<Slot>> pending_;
  std::size_t sent_inflight_ = 0; // pending slots whose frame hit the wire
  bool broken_ = false;
  bool closing_ = false;

  std::mutex send_mu_; // serializes whole frames onto the socket
  std::thread demux_;
};

} // namespace nexus::net
