// Wire-protocol codec tests: request/response heads, correlation ids,
// error-code mapping, the Stats payload codec, and rejection of malformed
// or hostile frames.
#include <gtest/gtest.h>

#include "net/wire.hpp"

namespace nexus::net {
namespace {

constexpr Rpc kAllRpcs[] = {
    Rpc::kPing,         Rpc::kGet,          Rpc::kPut,
    Rpc::kDelete,       Rpc::kStreamBegin,  Rpc::kStreamAppend,
    Rpc::kStreamCommit, Rpc::kStreamAbort,  Rpc::kStats,
};

TEST(WireRequest, HeadRoundTripsEveryRpc) {
  for (const Rpc rpc : kAllRpcs) {
    Writer w = BeginRequest(rpc);
    w.Str("arg");
    Reader r(w.bytes());
    std::uint64_t corr = 0;
    auto parsed = ParseRequestHead(r, &corr);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), rpc);
    EXPECT_NE(corr, 0u); // BeginRequest draws a fresh nonzero id
    EXPECT_EQ(r.Str().value(), "arg"); // reader left at first argument
  }
}

TEST(WireRequest, CorrelationIdRoundTripsAndIsUnique) {
  Writer a = BeginRequest(Rpc::kPing);
  Writer b = BeginRequest(Rpc::kPing);
  // Readable straight off the raw frame without parsing...
  const std::uint64_t corr_a = RequestCorrelation(a.bytes());
  const std::uint64_t corr_b = RequestCorrelation(b.bytes());
  EXPECT_NE(corr_a, 0u);
  EXPECT_NE(corr_a, corr_b); // each request draws a fresh id
  // ...and through the parser, identically.
  Reader r(a.bytes());
  std::uint64_t parsed_corr = 0;
  ASSERT_TRUE(ParseRequestHead(r, &parsed_corr).ok());
  EXPECT_EQ(parsed_corr, corr_a);
}

TEST(WireRequest, ExplicitCorrelationIsPreserved) {
  Writer w = BeginRequest(Rpc::kGet, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(RequestCorrelation(w.bytes()), 0xdeadbeefcafe1234ull);
  EXPECT_EQ(RequestRpc(w.bytes()), Rpc::kGet);
}

TEST(WireRequest, RawAccessorsToleratetShortFrames) {
  // RequestCorrelation on anything shorter than a full head returns 0
  // rather than reading out of bounds.
  Writer w = BeginRequest(Rpc::kPing);
  for (std::size_t keep = 0; keep < kRequestCorrelationOffset + 8; ++keep) {
    EXPECT_EQ(RequestCorrelation(ByteSpan(w.bytes().data(), keep)), 0u)
        << keep;
  }
}

TEST(WireRequest, RejectsWrongVersion) {
  Writer w;
  w.U8(kProtocolVersion + 1);
  w.U8(static_cast<std::uint8_t>(Rpc::kPing));
  w.U64(1);
  Reader r(w.bytes());
  EXPECT_FALSE(ParseRequestHead(r).ok());
}

TEST(WireRequest, RejectsLegacyV1Frames) {
  // Protocol v1 had no correlation id; its frames must not parse as v2.
  Writer w;
  w.U8(1);
  w.U8(static_cast<std::uint8_t>(Rpc::kGet));
  w.Str("path");
  Reader r(w.bytes());
  EXPECT_FALSE(ParseRequestHead(r).ok());
}

TEST(WireRequest, RejectsUnknownRpcId) {
  // kLastRpc + 1 is the first id past the table, whatever its size.
  const auto past_end = static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(kLastRpc) + 1);
  for (const std::uint8_t id : {std::uint8_t{0}, past_end,
                                std::uint8_t{200}}) {
    Writer w;
    w.U8(kProtocolVersion);
    w.U8(id);
    w.U64(1);
    Reader r(w.bytes());
    EXPECT_FALSE(ParseRequestHead(r).ok()) << unsigned{id};
  }
}

// One wire version: both neighbours of kProtocolVersion, and the oldest
// version ever deployed (2), are foreign heads.
constexpr std::uint8_t kForeignVersions[] = {
    static_cast<std::uint8_t>(kProtocolVersion - 1),
    static_cast<std::uint8_t>(kProtocolVersion + 1), 2};

TEST(WireRequest, RejectsEveryOtherVersion) {
  for (const std::uint8_t version : kForeignVersions) {
    for (const Rpc rpc : {Rpc::kPing, Rpc::kGet, Rpc::kListPage}) {
      Writer w;
      w.U8(version);
      w.U8(static_cast<std::uint8_t>(rpc));
      w.U64(7);
      Reader r(w.bytes());
      EXPECT_FALSE(ParseRequestHead(r).ok())
          << unsigned{version} << " " << RpcName(rpc);
    }
  }
}

TEST(WireRequest, RejectsEmptyFrame) {
  Reader r(ByteSpan{});
  EXPECT_FALSE(ParseRequestHead(r).ok());
}

TEST(WireRequest, TruncatedHeadIsProtocolViolation) {
  Writer w = BeginRequest(Rpc::kPut);
  for (std::size_t keep = 0; keep < kRequestCorrelationOffset + 8; ++keep) {
    Reader r(ByteSpan(w.bytes().data(), keep));
    EXPECT_FALSE(ParseRequestHead(r).ok()) << keep;
  }
}

TEST(WireRequest, RpcNameCoversEveryRpc) {
  for (const Rpc rpc : kAllRpcs) {
    EXPECT_STRNE(RpcName(rpc), "unknown");
  }
  // Every id up to kLastRpc is named, not just the ones listed above.
  for (auto id = static_cast<std::uint8_t>(Rpc::kPing);
       id <= static_cast<std::uint8_t>(kLastRpc); ++id) {
    EXPECT_STRNE(RpcName(static_cast<Rpc>(id)), "unknown") << unsigned{id};
  }
  EXPECT_STREQ(RpcName(Rpc::kStats), "stats");
  EXPECT_STREQ(RpcName(Rpc::kGetHead), "get_head");
  EXPECT_STREQ(RpcName(static_cast<Rpc>(250)), "unknown");
}

TEST(WireResponse, OkHeadRoundTripsWithCorrelation) {
  Writer w = BeginResponse(Status::Ok(), 77);
  w.U64(42);
  Reader r(w.bytes());
  Status verdict = Error(ErrorCode::kInternal, "sentinel");
  std::uint64_t corr = 0;
  ASSERT_TRUE(ParseResponseHead(r, &verdict, &corr).ok());
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(corr, 77u); // server echoes the request's id
  EXPECT_EQ(r.U64().value(), 42u); // results follow the head
}

TEST(WireResponse, ErrorVerdictCarriesCodeAndMessage) {
  Writer w = BeginResponse(Error(ErrorCode::kNotFound, "no such object"), 1);
  Reader r(w.bytes());
  Status verdict = Status::Ok();
  ASSERT_TRUE(ParseResponseHead(r, &verdict).ok());
  EXPECT_EQ(verdict.code(), ErrorCode::kNotFound);
  EXPECT_EQ(verdict.message(), "no such object");
}

TEST(WireResponse, EveryErrorCodeRoundTrips) {
  for (const ErrorCode code :
       {ErrorCode::kInvalidArgument, ErrorCode::kNotFound,
        ErrorCode::kAlreadyExists, ErrorCode::kPermissionDenied,
        ErrorCode::kIntegrityViolation, ErrorCode::kCryptoFailure,
        ErrorCode::kIOError, ErrorCode::kConflict, ErrorCode::kOutOfRange,
        ErrorCode::kUnimplemented, ErrorCode::kInternal}) {
    Writer w = BeginResponse(Error(code, "m"), 5);
    Reader r(w.bytes());
    Status verdict = Status::Ok();
    ASSERT_TRUE(ParseResponseHead(r, &verdict).ok());
    EXPECT_EQ(verdict.code(), code);
  }
}

TEST(WireResponse, TruncatedHeadIsProtocolViolation) {
  Writer w = BeginResponse(Error(ErrorCode::kIOError, "message"), 9);
  for (std::size_t keep = 0; keep + 1 < w.bytes().size(); ++keep) {
    Reader r(ByteSpan(w.bytes().data(), keep));
    Status verdict = Status::Ok();
    EXPECT_FALSE(ParseResponseHead(r, &verdict).ok()) << keep;
  }
}

TEST(WireResponse, RejectsEveryOtherVersion) {
  for (const std::uint8_t version : kForeignVersions) {
    Writer w = BeginResponse(Status::Ok(), 3);
    Bytes frame = w.bytes();
    frame[0] = version;
    Reader r(frame);
    Status verdict = Status::Ok();
    EXPECT_FALSE(ParseResponseHead(r, &verdict).ok()) << unsigned{version};
  }
}

TEST(WireResponse, WrongVersionIsProtocolViolation) {
  Writer w;
  w.U8(kProtocolVersion + 7);
  w.U64(0);
  w.U8(0);
  w.Str("");
  Reader r(w.bytes());
  Status verdict = Status::Ok();
  EXPECT_FALSE(ParseResponseHead(r, &verdict).ok());
}

// A rogue server cannot smuggle an out-of-range enum value into client
// branches: unknown code bytes decode as kInternal.
TEST(WireCodes, UnknownWireByteDecodesAsInternal) {
  EXPECT_EQ(CodeFromWire(255), ErrorCode::kInternal);
  EXPECT_EQ(CodeFromWire(static_cast<std::uint8_t>(ErrorCode::kInternal) + 1),
            ErrorCode::kInternal);
  EXPECT_EQ(CodeFromWire(CodeToWire(ErrorCode::kConflict)),
            ErrorCode::kConflict);
  EXPECT_EQ(CodeFromWire(0), ErrorCode::kOk);
}

TEST(WireBounds, FrameBoundAdmitsMaxObjectPlusSlack) {
  EXPECT_GT(kMaxFrameBytes, kMaxObjectBytes);
  EXPECT_LE(kMaxFrameBytes - kMaxObjectBytes, std::size_t{1} << 20);
}

// ---- ServerStats codec ------------------------------------------------------

ServerStats SampleStats() {
  ServerStats s;
  s.connections_accepted = 12;
  s.active_connections = 3;
  s.rpcs_served = 345;
  s.protocol_errors = 2;
  s.open_streams = 1;
  s.streams_aborted_on_disconnect = 4;
  s.bytes_received = 1 << 20;
  s.bytes_sent = 9999;
  s.per_op.push_back(RpcOpStats{static_cast<std::uint8_t>(Rpc::kGet), 100,
                                50000, 900000, 0.125, 7.5});
  s.per_op.push_back(RpcOpStats{static_cast<std::uint8_t>(Rpc::kPut), 40,
                                800000, 4000, 1.0 / 3.0, 42.0});
  s.per_op.push_back(RpcOpStats{static_cast<std::uint8_t>(Rpc::kStats), 1,
                                10, 200, 0.0, 0.0});
  return s;
}

TEST(WireStats, EncodeDecodeRoundTripsBitExactly) {
  const ServerStats want = SampleStats();
  Writer w;
  EncodeServerStats(w, want);
  Reader r(w.bytes());
  auto got = DecodeServerStats(r);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // operator== is defaulted: doubles (p50/p99) must survive bit-exactly
  // through the F64 codec, 1/3 included.
  EXPECT_EQ(got.value(), want);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireStats, EmptyPerOpTableRoundTrips) {
  ServerStats want;
  want.rpcs_served = 1;
  Writer w;
  EncodeServerStats(w, want);
  Reader r(w.bytes());
  auto got = DecodeServerStats(r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), want);
  EXPECT_TRUE(got.value().per_op.empty());
}

TEST(WireStats, TruncatedPayloadIsRejectedAtEveryPrefix) {
  Writer w;
  EncodeServerStats(w, SampleStats());
  for (std::size_t keep = 0; keep + 1 < w.bytes().size(); ++keep) {
    Reader r(ByteSpan(w.bytes().data(), keep));
    EXPECT_FALSE(DecodeServerStats(r).ok()) << keep;
  }
}

TEST(WireStats, HostileEntryCountIsRejected) {
  // A rogue server cannot force a huge vector reserve: entry counts above
  // the number of defined RPCs are rejected before any allocation.
  ServerStats empty;
  Writer w;
  EncodeServerStats(w, empty);
  // Patch the per-op entry count (last 4 bytes written as U32 by the
  // codec would be wrong to assume — rebuild by hand instead).
  Writer hostile;
  hostile.U64(0); // connections_accepted
  hostile.U64(0); // active_connections
  hostile.U64(0); // rpcs_served
  hostile.U64(0); // protocol_errors
  hostile.U64(0); // open_streams
  hostile.U64(0); // streams_aborted_on_disconnect
  hostile.U64(0); // bytes_received
  hostile.U64(0); // bytes_sent
  hostile.U32(1u << 30); // absurd per-op entry count
  Reader r(hostile.bytes());
  EXPECT_FALSE(DecodeServerStats(r).ok());
}

TEST(WireStats, EntryWithInvalidRpcIdIsRejected) {
  ServerStats s;
  s.per_op.push_back(RpcOpStats{200, 1, 2, 3, 0.5, 0.9});
  Writer w;
  EncodeServerStats(w, s);
  Reader r(w.bytes());
  EXPECT_FALSE(DecodeServerStats(r).ok());
}

TEST(WireStats, StatsRequestFrameIsWellFormed) {
  Writer w = BeginRequest(Rpc::kStats);
  EXPECT_EQ(RequestRpc(w.bytes()), Rpc::kStats);
  Reader r(w.bytes());
  auto rpc = ParseRequestHead(r);
  ASSERT_TRUE(rpc.ok());
  EXPECT_EQ(rpc.value(), Rpc::kStats);
  EXPECT_TRUE(r.AtEnd()); // stats takes no arguments
}

} // namespace
} // namespace nexus::net
