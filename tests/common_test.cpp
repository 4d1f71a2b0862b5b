// Tests for Result, hex, UUID, the bounds-checked serializer and the
// numeric environment parser.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/base64.hpp"
#include "common/env.hpp"
#include "common/hex.hpp"
#include "common/result.hpp"
#include "common/serial.hpp"
#include "common/uuid.hpp"

namespace nexus {
namespace {

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Error(ErrorCode::kNotFound, "missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Error(ErrorCode::kInvalidArgument, "odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  NEXUS_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(Result, PropagationMacros) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok()); // 6/2 = 3 is odd
  EXPECT_EQ(Quarter(6).status().code(), ErrorCode::kInvalidArgument);
}

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  const std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001deadbeefff");
  EXPECT_EQ(HexDecode(hex).value(), data);
}

TEST(Hex, AppendExtendsTheString) {
  std::string out = "nx/";
  HexAppend(Bytes{0x0a, 0xf0}, out);
  EXPECT_EQ(out, "nx/0af0");
  HexAppend(ByteSpan{}, out);
  EXPECT_EQ(out, "nx/0af0");
}

TEST(Hex, RejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").ok());  // odd length
  EXPECT_FALSE(HexDecode("zz").ok());   // non-hex
  EXPECT_TRUE(HexDecode("").value().empty());
}

TEST(Uuid, NilAndRoundTrip) {
  EXPECT_TRUE(Uuid().IsNil());
  ByteArray<16> raw{};
  raw[0] = 0xab;
  raw[15] = 0xcd;
  const Uuid u(raw);
  EXPECT_FALSE(u.IsNil());
  EXPECT_EQ(u.ToString().size(), 32u);
  EXPECT_EQ(Uuid::Parse(u.ToString()).value(), u);
}

TEST(Uuid, FromBytesValidatesLength) {
  EXPECT_FALSE(Uuid::FromBytes(Bytes(15)).ok());
  EXPECT_FALSE(Uuid::FromBytes(Bytes(17)).ok());
  EXPECT_TRUE(Uuid::FromBytes(Bytes(16)).ok());
}

TEST(Serial, PrimitivesRoundTrip) {
  Writer w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.Str("hello");
  w.Var(Bytes{1, 2, 3});
  ByteArray<16> raw{};
  raw[7] = 9;
  w.Id(Uuid(raw));

  Reader r(w.bytes());
  EXPECT_EQ(r.U8().value(), 0xab);
  EXPECT_EQ(r.U16().value(), 0x1234);
  EXPECT_EQ(r.U32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.U64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.Str().value(), "hello");
  EXPECT_EQ(r.Var().value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.Id().value(), Uuid(raw));
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serial, TruncationDetected) {
  Writer w;
  w.U32(42);
  Reader r(ByteSpan(w.bytes().data(), 3)); // cut short
  EXPECT_FALSE(r.U32().ok());
  EXPECT_EQ(r.U32().status().code(), ErrorCode::kOutOfRange);
}

TEST(Serial, CorruptLengthPrefixRejected) {
  // A hostile length prefix must not cause a huge allocation.
  Writer w;
  w.U32(0xffffffff);
  Reader r(w.bytes());
  EXPECT_FALSE(r.Var().ok());
}

TEST(Serial, VarLengthLimitEnforced) {
  Writer w;
  w.Var(Bytes(100, 7));
  Reader r(w.bytes());
  EXPECT_FALSE(r.Var(/*max_len=*/50).ok());
}

// A frame reserved at its final size is written into one buffer: a
// large Var followed by a trailing byte does not regrow it.
TEST(Serial, ReservedWriterWritesIntoOneBuffer) {
  Writer w;
  w.U8(1);
  const Bytes payload(1 << 20, 7);
  w.Reserve(w.bytes().size() + 4 + payload.size() + 1);
  const std::uint8_t* buffer = w.bytes().data();
  w.Var(payload);
  w.U8(9);
  EXPECT_EQ(w.bytes().data(), buffer);
  EXPECT_EQ(w.bytes().size(), 1 + 4 + payload.size() + 1);
  Reader r(w.bytes());
  EXPECT_EQ(r.U8().value(), 1);
  EXPECT_EQ(r.Var(payload.size()).value(), payload);
  EXPECT_EQ(r.U8().value(), 9);
  EXPECT_TRUE(r.AtEnd());
}


TEST(Base64, Rfc4648Vectors) {
  EXPECT_EQ(Base64Encode(AsBytes("")), "");
  EXPECT_EQ(Base64Encode(AsBytes("f")), "Zg==");
  EXPECT_EQ(Base64Encode(AsBytes("fo")), "Zm8=");
  EXPECT_EQ(Base64Encode(AsBytes("foo")), "Zm9v");
  EXPECT_EQ(Base64Encode(AsBytes("foob")), "Zm9vYg==");
  EXPECT_EQ(Base64Encode(AsBytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(Base64Encode(AsBytes("foobar")), "Zm9vYmFy");
}

TEST(Base64, RoundTripAllLengths) {
  Bytes data;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Base64Decode(Base64Encode(data)).value(), data) << i;
    data.push_back(static_cast<std::uint8_t>(i * 37 + 5));
  }
}

TEST(Base64, StrictDecoder) {
  EXPECT_FALSE(Base64Decode("Zg=").ok());    // bad length
  EXPECT_FALSE(Base64Decode("Zg!=").ok());   // bad character
  EXPECT_FALSE(Base64Decode("=Zg=").ok());   // misplaced padding
  EXPECT_FALSE(Base64Decode("Z===").ok());   // too much padding
  EXPECT_FALSE(Base64Decode("Zg==Zm8=").ok()); // padding mid-stream
  EXPECT_TRUE(Base64Decode("").value().empty());
}

TEST(Bytes, ConcatAndHelpers) {
  const Bytes a = {1, 2};
  const Bytes b = {3};
  EXPECT_EQ(Concat(a, b), (Bytes{1, 2, 3}));
  EXPECT_EQ(ToString(AsBytes("xyz")), "xyz");

  Bytes z = {9, 9, 9};
  SecureZero(z);
  EXPECT_EQ(z, (Bytes{0, 0, 0}));
}

TEST(Env, ParsesOnlyCompleteUnsignedDecimals) {
  EXPECT_EQ(ParseUnsigned("0"), 0u);
  EXPECT_EQ(ParseUnsigned("67108864"), 67108864u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615"), ~0ull);
  for (const char* junk : {"", "64MiB", "2x", "-1", "+5", " 5", "5 ", "0x10",
                           "1e3", "18446744073709551616"}) {
    EXPECT_EQ(ParseUnsigned(junk), std::nullopt) << '"' << junk << '"';
  }
}

TEST(Env, JunkValuesFallBackToTheDefault) {
  const char* kName = "NEXUS_ENV_PARSER_TEST";
  ::unsetenv(kName);
  EXPECT_EQ(EnvUnsigned(kName, 7), 7u);
  for (const char* junk : {"", "64MiB", "2x", "-1", "+2", "12 "}) {
    ::setenv(kName, junk, 1);
    EXPECT_EQ(EnvUnsigned(kName, 7), 7u) << '"' << junk << '"';
  }
  ::setenv(kName, "0", 1);
  EXPECT_EQ(EnvUnsigned(kName, 7), 0u); // an explicit zero is a value
  ::setenv(kName, "4096", 1);
  EXPECT_EQ(EnvUnsigned(kName, 7), 4096u);
  ::unsetenv(kName);
}

} // namespace
} // namespace nexus
