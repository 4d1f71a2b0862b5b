#include "net/wire.hpp"

#include <atomic>

namespace nexus::net {

const char* RpcName(Rpc rpc) noexcept {
  switch (rpc) {
    case Rpc::kPing: return "ping";
    case Rpc::kGet: return "get";
    case Rpc::kPut: return "put";
    case Rpc::kDelete: return "delete";
    case Rpc::kStreamBegin: return "stream_begin";
    case Rpc::kStreamAppend: return "stream_append";
    case Rpc::kStreamCommit: return "stream_commit";
    case Rpc::kStreamAbort: return "stream_abort";
    case Rpc::kStats: return "stats";
    case Rpc::kListPage: return "list_page";
    case Rpc::kGetHead: return "get_head";
  }
  return "unknown";
}

std::uint64_t NextCorrelationId() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Writer BeginRequest(Rpc rpc) { return BeginRequest(rpc, NextCorrelationId()); }

Writer BeginRequest(Rpc rpc, std::uint64_t correlation) {
  Writer w;
  w.U8(kProtocolVersion);
  w.U8(static_cast<std::uint8_t>(rpc));
  w.U64(correlation);
  return w;
}

Rpc RequestRpc(ByteSpan request) noexcept {
  if (request.size() < 2) return static_cast<Rpc>(0);
  return static_cast<Rpc>(request[1]);
}

std::uint64_t RequestCorrelation(ByteSpan request) noexcept {
  if (request.size() < kRequestCorrelationOffset + 8) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) |
        request[kRequestCorrelationOffset + static_cast<std::size_t>(i)];
  }
  return v;
}

std::uint64_t ResponseCorrelation(ByteSpan response) noexcept {
  if (response.size() < 1 + 8) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | response[1 + static_cast<std::size_t>(i)];
  }
  return v;
}

namespace {

bool KnownRpc(std::uint8_t rpc) {
  return rpc >= static_cast<std::uint8_t>(Rpc::kPing) &&
         rpc <= static_cast<std::uint8_t>(kLastRpc);
}

Status CheckVersion(std::uint8_t version) {
  if (version == kProtocolVersion) return Status::Ok();
  return Error(ErrorCode::kInvalidArgument,
               "unsupported protocol version " + std::to_string(version));
}

} // namespace

Result<Rpc> ParseRequestHead(Reader& reader, std::uint64_t* correlation) {
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t version, reader.U8());
  NEXUS_RETURN_IF_ERROR(CheckVersion(version));
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t rpc, reader.U8());
  if (!KnownRpc(rpc)) {
    return Error(ErrorCode::kInvalidArgument,
                 "unknown rpc id " + std::to_string(rpc));
  }
  NEXUS_ASSIGN_OR_RETURN(const std::uint64_t corr, reader.U64());
  if (correlation != nullptr) *correlation = corr;
  return static_cast<Rpc>(rpc);
}

Writer BeginResponse(const Status& status, std::uint64_t correlation) {
  Writer w;
  w.U8(kProtocolVersion);
  w.U64(correlation);
  w.U8(CodeToWire(status.code()));
  w.Str(status.message());
  return w;
}

Status ParseResponseHead(Reader& reader, Status* verdict,
                         std::uint64_t* correlation) {
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t version, reader.U8());
  NEXUS_RETURN_IF_ERROR(CheckVersion(version));
  NEXUS_ASSIGN_OR_RETURN(const std::uint64_t corr, reader.U64());
  if (correlation != nullptr) *correlation = corr;
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t code, reader.U8());
  NEXUS_ASSIGN_OR_RETURN(std::string message, reader.Str());
  const ErrorCode decoded = CodeFromWire(code);
  *verdict = decoded == ErrorCode::kOk ? Status::Ok()
                                       : Status(decoded, std::move(message));
  return Status::Ok();
}

std::uint8_t CodeToWire(ErrorCode code) noexcept {
  return static_cast<std::uint8_t>(code);
}

ErrorCode CodeFromWire(std::uint8_t wire) noexcept {
  if (wire > static_cast<std::uint8_t>(ErrorCode::kInternal)) {
    return ErrorCode::kInternal;
  }
  return static_cast<ErrorCode>(wire);
}

void EncodeServerStats(Writer& writer, const ServerStats& stats) {
  writer.U64(stats.connections_accepted);
  writer.U64(stats.active_connections);
  writer.U64(stats.rpcs_served);
  writer.U64(stats.protocol_errors);
  writer.U64(stats.open_streams);
  writer.U64(stats.streams_aborted_on_disconnect);
  writer.U64(stats.bytes_received);
  writer.U64(stats.bytes_sent);
  writer.U64(stats.epoll_wakeups);
  writer.U64(stats.arena_slabs_in_use);
  writer.U64(stats.arena_slabs_high_water);
  writer.U64(stats.arena_oversize_frames);
  writer.U64(stats.resident_threads);
  writer.F64(stats.loop_dispatch_p50_ms);
  writer.F64(stats.loop_dispatch_p99_ms);
  writer.U32(static_cast<std::uint32_t>(stats.per_op.size()));
  for (const RpcOpStats& op : stats.per_op) {
    writer.U8(op.rpc);
    writer.U64(op.count);
    writer.U64(op.bytes_in);
    writer.U64(op.bytes_out);
    writer.F64(op.p50_ms);
    writer.F64(op.p99_ms);
  }
}

Result<ServerStats> DecodeServerStats(Reader& reader) {
  ServerStats stats;
  NEXUS_ASSIGN_OR_RETURN(stats.connections_accepted, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.active_connections, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.rpcs_served, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.protocol_errors, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.open_streams, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.streams_aborted_on_disconnect, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.bytes_received, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.bytes_sent, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.epoll_wakeups, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.arena_slabs_in_use, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.arena_slabs_high_water, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.arena_oversize_frames, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.resident_threads, reader.U64());
  NEXUS_ASSIGN_OR_RETURN(stats.loop_dispatch_p50_ms, reader.F64());
  NEXUS_ASSIGN_OR_RETURN(stats.loop_dispatch_p99_ms, reader.F64());
  NEXUS_ASSIGN_OR_RETURN(const std::uint32_t n, reader.U32());
  if (n > kMaxStatsEntries) {
    return Error(ErrorCode::kOutOfRange,
                 "stats entry count " + std::to_string(n) + " exceeds limit");
  }
  stats.per_op.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RpcOpStats op;
    NEXUS_ASSIGN_OR_RETURN(op.rpc, reader.U8());
    if (!KnownRpc(op.rpc)) {
      return Error(ErrorCode::kInvalidArgument,
                   "stats entry with unknown rpc id " + std::to_string(op.rpc));
    }
    NEXUS_ASSIGN_OR_RETURN(op.count, reader.U64());
    NEXUS_ASSIGN_OR_RETURN(op.bytes_in, reader.U64());
    NEXUS_ASSIGN_OR_RETURN(op.bytes_out, reader.U64());
    NEXUS_ASSIGN_OR_RETURN(op.p50_ms, reader.F64());
    NEXUS_ASSIGN_OR_RETURN(op.p99_ms, reader.F64());
    stats.per_op.push_back(op);
  }
  return stats;
}

} // namespace nexus::net
