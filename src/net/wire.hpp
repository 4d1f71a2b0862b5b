// NEXUS remote-store wire protocol (nexusd <-> RemoteBackend).
//
// Every message is one length-prefixed binary frame on a byte stream:
//
//   [u32 LE payload length][payload]
//
// Request payload:   u8 version, u8 rpc id, u64 correlation id, arguments
//                    (serial.hpp format)
// Response payload:  u8 version, u64 correlation id, u8 error code,
//                    Str message, results
//
// The correlation id is drawn by the client per request and echoed
// verbatim by the server. It serves two jobs: the client verifies the echo
// to detect a desynchronized byte stream (a mismatch means the response
// belongs to some other request — the connection is dropped, the call
// treated as ambiguous), and both sides stamp it on their trace spans so a
// client span can be matched to the server span that served it. Because
// every response names its request, the server may answer the requests of
// one connection in any order and the client keeps a whole window of them
// in flight.
//
// There is exactly one protocol version, kProtocolVersion. Client and
// daemon build from the same tree, so nothing is negotiated: a head with
// any other version byte is a protocol violation on either side, the same
// as a malformed head. Ping is a plain liveness RPC with no arguments and
// no results.
//
// Beyond the single-object StorageBackend calls the protocol carries:
//
//   * header reads — kGetHead returns an object's size and its first
//     bytes, so a caller that needs only a header (the cluster's replica
//     envelope, a stat) never downloads the payload;
//   * paged listing — kListPage enumerates a prefix one bounded, sorted
//     page at a time (prefix, exclusive start-after cursor, limit), so
//     listing a huge shard costs O(page) memory on both sides.
//
// Every message ends at its last field: a request or a reply with
// trailing bytes is malformed. The server never pushes anything; every
// frame it sends answers a request. Client caches bound their staleness
// by a TTL (DESIGN.md §9), so the protocol carries no coherence traffic.
//
// The server is untrusted in the NEXUS threat model, so nothing here is
// authenticated — the protocol only moves ciphertext and opaque object
// names, and the enclave's MACs catch any tampering above this layer. What
// the framing DOES defend against is resource abuse and desync: lengths
// are bounded before allocation, every decode is bounds-checked (the
// decoder also runs client-side on attacker-controlled response bytes),
// and a malformed frame kills the connection rather than resynchronizing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/serial.hpp"

namespace nexus::net {

/// The one wire version; heads carrying any other byte are rejected.
inline constexpr std::uint8_t kProtocolVersion = 10;

/// Largest object the protocol moves (bulk data chunks are ≤1 MiB today;
/// journal anchors and streamed segments stay far below this).
inline constexpr std::size_t kMaxObjectBytes = 64u << 20;
/// Frame-size sanity bound: one max object plus framing/name slack. A
/// length prefix above this is a protocol violation, not an allocation.
inline constexpr std::size_t kMaxFrameBytes = kMaxObjectBytes + (1u << 16);

/// Wire length prefix: 4 bytes, little-endian. Shared by the blocking
/// transport and the reactor's in-slab frame parser.
inline constexpr std::size_t kFramePrefixBytes = 4;

inline void EncodeFrameLength(std::uint32_t len, std::uint8_t out[4]) noexcept {
  out[0] = static_cast<std::uint8_t>(len);
  out[1] = static_cast<std::uint8_t>(len >> 8);
  out[2] = static_cast<std::uint8_t>(len >> 16);
  out[3] = static_cast<std::uint8_t>(len >> 24);
}

inline std::uint32_t DecodeFrameLength(const std::uint8_t in[4]) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

/// RPC surface: the StorageBackend interface verbatim, plus the segmented
/// OpenPutStream as a four-message streaming RPC, a Ping for liveness, and
/// a Stats introspection call (nexus-stat).
enum class Rpc : std::uint8_t {
  kPing = 1,
  kGet = 2,
  kPut = 3,
  kDelete = 4,
  kStreamBegin = 5,   // name -> u64 stream handle
  kStreamAppend = 6,  // handle, segment bytes
  kStreamCommit = 7,  // handle; object becomes visible atomically
  kStreamAbort = 8,   // handle; store untouched
  kStats = 9,         // -> ServerStats (counters, per-op latency)
  kListPage = 10,     // prefix, start-after cursor, u32 limit -> one
                      //    sorted page of names + u8 truncated flag
  kGetHead = 11,      // name, u32 max -> u64 size + Var prefix of the
                      //    first min(max, size) bytes
};

/// The highest RPC id: ids run densely from Rpc::kPing to here. Head
/// parsing, the Stats decoder and nexusd's per-op table all size from it,
/// so a new RPC moves this constant and no range check.
inline constexpr Rpc kLastRpc = Rpc::kGetHead;

/// Stable lowercase name for an RPC id ("get", "stream_begin", ...). Used
/// as span names and in nexus-stat output.
const char* RpcName(Rpc rpc) noexcept;

/// Offset of the correlation id within a request payload (after version
/// and rpc bytes) — lets middle layers read it from raw frame bytes.
inline constexpr std::size_t kRequestCorrelationOffset = 2;

/// Process-unique correlation ids, starting at 1 (0 means "none").
std::uint64_t NextCorrelationId() noexcept;

/// Starts a request: version + rpc id + fresh correlation id. Callers
/// append arguments and hand the bytes to Transport::SendFrame.
Writer BeginRequest(Rpc rpc);
/// Same, with an explicit correlation id (tests, retransmissions).
Writer BeginRequest(Rpc rpc, std::uint64_t correlation);

/// Reads the rpc id out of raw request bytes (0 if too short).
Rpc RequestRpc(ByteSpan request) noexcept;
/// Reads the correlation id out of raw request bytes (0 if too short).
std::uint64_t RequestCorrelation(ByteSpan request) noexcept;
/// Reads the correlation id out of raw RESPONSE bytes without validating
/// the rest of the head (0 if too short — real ids start at 1). The mux's
/// reader uses this to route a frame before anyone decodes it.
std::uint64_t ResponseCorrelation(ByteSpan response) noexcept;

/// Parses (and validates) a request head; the reader is left at the first
/// argument. A version byte other than kProtocolVersion or an unknown rpc
/// id rejects the head. When `correlation` is non-null it receives the
/// request's correlation id.
Result<Rpc> ParseRequestHead(Reader& reader,
                             std::uint64_t* correlation = nullptr);

/// Starts a response carrying `status`, echoing the request's correlation
/// id (OK responses append results).
Writer BeginResponse(const Status& status, std::uint64_t correlation);

/// Parses a response head. The RETURNED Status is a protocol violation
/// (malformed frame or a version other than kProtocolVersion — treat the
/// connection as broken); on success,
/// `verdict` receives the server's verdict for the RPC, which is
/// authoritative and final (never retried), and `correlation` (when
/// non-null) the echoed correlation id for the caller to verify.
Status ParseResponseHead(Reader& reader, Status* verdict,
                         std::uint64_t* correlation = nullptr);

/// ErrorCode <-> wire byte. Unknown bytes decode to kInternal so a rogue
/// server cannot smuggle an out-of-range enum into client code.
std::uint8_t CodeToWire(ErrorCode code) noexcept;
ErrorCode CodeFromWire(std::uint8_t wire) noexcept;

// ---- Stats RPC payload ------------------------------------------------------

/// Per-RPC slice of a nexusd's lifetime counters.
struct RpcOpStats {
  std::uint8_t rpc = 0; // Rpc id this row describes
  std::uint64_t count = 0;
  std::uint64_t bytes_in = 0;  // request payload bytes
  std::uint64_t bytes_out = 0; // response payload bytes
  double p50_ms = 0;           // server-side service latency
  double p99_ms = 0;

  bool operator==(const RpcOpStats&) const = default;
};

/// Everything a nexusd reports through Rpc::kStats.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t active_connections = 0; // gauge
  std::uint64_t rpcs_served = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t open_streams = 0; // gauge
  std::uint64_t streams_aborted_on_disconnect = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  // Event-loop / buffer-arena health.
  std::uint64_t epoll_wakeups = 0;
  std::uint64_t arena_slabs_in_use = 0;    // gauge
  std::uint64_t arena_slabs_high_water = 0;
  std::uint64_t arena_oversize_frames = 0; // frames that bypassed the arena
  std::uint64_t resident_threads = 0;      // gauge: loop + rpc pool
  double loop_dispatch_p50_ms = 0; // per-wakeup dispatch latency
  double loop_dispatch_p99_ms = 0;
  std::vector<RpcOpStats> per_op; // ascending rpc id, served ops only

  bool operator==(const ServerStats&) const = default;
};

/// Upper bound on per_op rows a decoder accepts — there are only that many
/// RPC ids, so anything larger is malformed.
inline constexpr std::size_t kMaxStatsEntries =
    static_cast<std::size_t>(kLastRpc);

void EncodeServerStats(Writer& writer, const ServerStats& stats);
Result<ServerStats> DecodeServerStats(Reader& reader);

/// Most names one kListPage reply carries. Small enough that a hostile
/// count cannot force a large allocation.
inline constexpr std::size_t kMaxNamesPerFrame = 4096;

} // namespace nexus::net
