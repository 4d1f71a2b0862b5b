// Framed byte-stream transports for the nexusd wire protocol.
//
// A Transport moves whole frames (wire.hpp framing) between one client
// and one server connection. Errors are all kIOError at this layer —
// RemoteBackend treats any transport failure as "the connection is dead,
// the RPC outcome is unknown" and decides retry policy above; server
// verdicts travel inside well-formed response frames instead.
//
// TcpTransport is the real thing: a connected socket with an I/O deadline
// on every blocking wait. Each frame leaves in one gathered write (length
// prefix and payload together, so the peer's reactor wakes once per
// frame), and frames arrive through a per-connection receive buffer, so a
// small frame costs one read. FaultyTransport (fault.hpp) wraps it
// for deterministic failure injection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace nexus::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one length-prefixed frame.
  virtual Status SendFrame(ByteSpan payload) = 0;
  /// Receives the next frame's payload, blocking up to the I/O deadline.
  /// One reader at a time; it may run concurrently with one sender.
  virtual Result<Bytes> RecvFrame() = 0;
  /// Hard-closes the connection; subsequent calls fail.
  virtual void Close() = 0;
  /// Breaks the connection WITHOUT releasing the descriptor: any thread
  /// blocked in SendFrame/RecvFrame fails promptly, later calls fail
  /// (RecvFrame returns no frame it had already buffered), and the fd
  /// stays allocated until Close()/destruction. This is the only member
  /// safe to call concurrently with in-flight I/O — the multiplexer uses
  /// it to unblock whichever caller holds the reader role when the
  /// connection fails (a concurrent Close would race fd reuse).
  virtual void Shutdown() { Close(); }
};

class TcpTransport final : public Transport {
 public:
  /// Receive buffer per connection. A frame that fits (prefix included)
  /// is assembled here; a longer one reads its remainder straight into
  /// the payload.
  static constexpr std::size_t kRecvBufferBytes = 64u << 10;

  /// Connects to host:port. `io_deadline_ms` bounds every subsequent
  /// frame send/receive; <= 0 means block forever (server side).
  static Result<std::unique_ptr<TcpTransport>> Dial(const std::string& host,
                                                    std::uint16_t port,
                                                    int connect_deadline_ms,
                                                    int io_deadline_ms);

  /// Adopts an already-connected socket (accepted server side).
  TcpTransport(int fd, int io_deadline_ms);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status SendFrame(ByteSpan payload) override;
  Result<Bytes> RecvFrame() override;
  void Close() override;
  void Shutdown() override;

  /// Sends one frame whose payload is the concatenation of `parts`,
  /// scatter/gather (sendmsg) — the length prefix and every segment leave
  /// in one syscall batch with no coalescing copy. SendFrame is its
  /// one-part case.
  Status SendFrameParts(std::span<const ByteSpan> parts);

  /// Fault-injection seam: writes the frame's length prefix but only the
  /// first `keep` payload bytes, then shuts the socket down — the peer
  /// observes a torn frame followed by EOF, exactly like a crash mid-write.
  Status SendTruncated(ByteSpan payload, std::size_t keep);

 private:
  /// Writes a prefix declaring `frame_len` bytes, then `parts`, with as
  /// few sendmsg calls as the socket buffer allows.
  Status SendGathered(std::size_t frame_len, std::span<const ByteSpan> parts);
  /// Reads at least one byte (at most `len`), waiting up to the deadline.
  Result<std::size_t> ReadSome(int fd, std::uint8_t* data, std::size_t len);
  /// Reads until at least `need` (<= kRecvBufferBytes) bytes are buffered.
  Status Fill(int fd, std::size_t need);

  // Atomic so Shutdown() can read it while another thread is mid-I/O;
  // only Close() writes it (to -1), exactly once.
  std::atomic<int> fd_{-1};
  std::atomic<bool> shut_down_{false};

  // Bytes read from the socket but not yet returned: [rbuf_begin_,
  // rbuf_end_) of rbuf_. Only RecvFrame touches them.
  std::unique_ptr<std::uint8_t[]> rbuf_;
  std::size_t rbuf_begin_ = 0;
  std::size_t rbuf_end_ = 0;
};

} // namespace nexus::net
