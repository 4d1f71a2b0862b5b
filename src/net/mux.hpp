// Pipelined RPC multiplexing over one transport connection.
//
// A MuxConnection owns a Transport and keeps up to `window` RPCs in
// flight at once. Submitters serialize their request frames onto the
// socket; every response frame is routed to its slot by the correlation
// id already stamped on every frame — so a server that replies out of
// order (nexusd's handler pool) is handled for free, and a server that
// replies in order just degenerates to a pipeline.
//
// Who reads. The transport allows one reader at a time, and that is a
// role taken under the connection mutex. A caller waiting on its slot
// takes the role when nobody holds it and reads frames itself, routing
// each one by correlation id, until its own slot completes; it then hands
// the role to the next parked waiter. A lock-step RPC therefore blocks
// once, on the caller's own thread, instead of waking a second thread
// that wakes the caller. A waiter that finds the role taken parks until
// its slot completes or the role is handed to it. Only waiters read, so
// the connection starts no thread of its own.
//
// Failure semantics are whole-connection: a transport error, a response
// carrying an unknown correlation id, or a malformed frame means the byte
// stream can no longer be trusted, so every in-flight request on the
// connection fails at once. The requests are NOT orphaned — each caller
// holds its own slot, observes the failure independently, and retries on
// a fresh connection through RemoteBackend's per-request retry
// discipline. A reader whose RecvFrame fails breaks the connection,
// which completes every slot, parked waiters included.
//
// Nobody blocks in RecvFrame unless a sent request is owed to it: a
// waiter reads only while its own slot is pending. This keeps idle pooled
// connections alive (no deadline expiry while nothing is owed) and
// preserves FaultyTransport's send-then-recv schedule under fault
// injection.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/transport.hpp"

namespace nexus::net {

class MuxConnection {
 public:
  /// One in-flight RPC. Created by Submit, completed exactly once by
  /// whichever thread holds the reader role (delivery), by a connection
  /// failure, or by the submitter itself (send failure).
  struct Slot {
    std::uint64_t correlation = 0;
    std::uint64_t start_ns = 0;
    std::size_t request_bytes = 0;

    /// Blocks until the slot completes, reading the connection itself
    /// while nobody else does; returns the full response payload or the
    /// transport failure. The caller keeps the connection alive until an
    /// unfinished slot's Wait returns.
    Result<Bytes> Wait();

   private:
    friend class MuxConnection;
    MuxConnection* mux = nullptr; // set before the slot is published
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool may_read = false; // under mu: the reader role was handed to us
    Status failure = Status::Ok();
    Bytes response;
  };

  /// Called on the reading thread for every response DELIVERED to a slot,
  /// before the slot completes. RemoteBackend counts client rpcs/bytes/
  /// latency here, so they mirror the server's own counters exactly.
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

  /// Sends `request` (a complete request frame) and returns its slot.
  /// Blocks while the window is full; returns nullptr if the connection
  /// is (or becomes) broken — the caller acquires a fresh connection.
  std::shared_ptr<Slot> Submit(ByteSpan request);

  /// Marks the connection unusable and fails every in-flight request
  /// (used when a delivered response turns out to be malformed).
  void Poison(const Status& reason);

  [[nodiscard]] bool broken() const;
  /// In-flight request count (registered, not yet completed).
  [[nodiscard]] std::size_t inflight() const;
  [[nodiscard]] std::size_t window() const noexcept { return window_; }

 private:
  /// Slot::Wait's first half: returns once `slot` has left pending_,
  /// reading frames itself whenever the reader role is free.
  void AwaitReply(Slot& slot);
  /// Holds the reader role: receives and routes frames until `mine` is
  /// routed or the connection fails.
  void ReadFrames(const Slot& mine);
  /// The one routing routine: hands `frame` to its pending slot, or fails
  /// the connection when no slot owns its correlation id (returns null).
  std::shared_ptr<Slot> Route(Bytes frame);
  /// With mu_ held: if the reader role is free, hands it to the first
  /// parked waiter.
  void HandOffLocked();
  /// With mu_ held: whether `slot` still awaits its response.
  [[nodiscard]] bool OwedLocked(const Slot& slot) const;
  /// Breaks the connection: fails all pending slots with `reason`.
  void Fail(const Status& reason);
  static void Complete(Slot& slot, Status failure, Bytes response);

  std::unique_ptr<Transport> transport_;
  DeliveryHook on_delivery_;
  const std::size_t window_;

  mutable std::mutex mu_;
  std::condition_variable window_cv_; // submitters waiting for a free slot
  std::map<std::uint64_t, std::shared_ptr<Slot>> pending_;
  bool reader_busy_ = false;  // someone holds the reader role
  std::vector<Slot*> parked_; // waiters parked for the role, FIFO
  bool broken_ = false;

  std::mutex send_mu_; // serializes whole frames onto the socket
};

} // namespace nexus::net
