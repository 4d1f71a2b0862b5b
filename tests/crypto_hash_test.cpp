// Known-answer and property tests for SHA-256, SHA-512, HMAC and HKDF,
// and the SHA-NI dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "common/hex.hpp"
#include "crypto/aesni.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace nexus::crypto {
namespace {

std::string HexOf(ByteSpan b) { return HexEncode(b); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(HexOf(Sha256::Hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HexOf(Sha256::Hash(AsBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HexOf(Sha256::Hash(AsBytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(AsBytes(chunk));
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<uint8_t>(i * 7));
  // Split at awkward boundaries.
  for (std::size_t split : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                            std::size_t{65}, std::size_t{500}}) {
    Sha256 h;
    h.Update(ByteSpan(data.data(), split));
    h.Update(ByteSpan(data.data() + split, data.size() - split));
    EXPECT_EQ(HexOf(h.Finish()), HexOf(Sha256::Hash(data))) << split;
  }
}

// ---- SHA-NI dispatch --------------------------------------------------------

Bytes Pattern(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return out;
}

// Hashes `msg` through Update calls split at seeded random points.
std::string SplitDigest(const Bytes& msg, std::mt19937& gen) {
  Sha256 h;
  std::size_t pos = 0;
  while (pos < msg.size()) {
    // Up to about three blocks per call: partial fills, whole blocks and
    // multi-block runs all occur, as do empty updates.
    std::uniform_int_distribution<std::size_t> step(
        0, std::min<std::size_t>(msg.size() - pos, 200));
    const std::size_t n = step(gen);
    h.Update(ByteSpan(msg.data() + pos, n));
    pos += n;
  }
  return HexOf(h.Finish());
}

// Every length from 0 to 1,100 bytes, split into Update calls at the same
// seeded points on both paths: the dispatched kernel (SHA-NI where the
// host has it) must agree with the forced portable rounds, and each split
// with the one-shot digest.
TEST(Sha256Dispatch, HardwareMatchesScalarEveryLength) {
  for (std::size_t len = 0; len <= 1100; ++len) {
    const Bytes msg = Pattern(len);
    std::mt19937 hw_gen(static_cast<std::uint32_t>(len));
    const std::string hw_split = SplitDigest(msg, hw_gen);
    const std::string hw_whole = HexOf(Sha256::Hash(msg));

    ForceAesFallbackForTesting(true);
    std::mt19937 scalar_gen(static_cast<std::uint32_t>(len));
    const std::string scalar_split = SplitDigest(msg, scalar_gen);
    const std::string scalar_whole = HexOf(Sha256::Hash(msg));
    ForceAesFallbackForTesting(false);

    ASSERT_EQ(hw_whole, scalar_whole) << len;
    ASSERT_EQ(hw_split, scalar_split) << len;
    ASSERT_EQ(hw_split, hw_whole) << len;
  }
}

// The lengths where one-shot padding changes shape: 55 leaves room for
// the length in the last block, 56 and 63 spill into a second pad block,
// 64 pads a whole block, and 119/120 repeat the 55/56 edge one block on.
// Expected digests are from an independent SHA-256 (Python hashlib).
TEST(Sha256Dispatch, PaddingBoundaryLengths) {
  const std::pair<std::size_t, const char*> kCases[] = {
      {55, "2900465fcb533e05a158fd2b3be0e5e3b03740d83060aa3580e0d98a96bf2384"},
      {56, "31454ff48ef36af2f08fd511bdc37d9d5855ac23e992e5ff5445cb6b7674a674"},
      {63, "5f6401b96532c36de4e65beec0409b69b1d181864c8009b7a04f43e5d56350d1"},
      {64, "94eb5de4943613fd048dc93393ab06877405faa39c11f53e9386083339833e7e"},
      {119, "b0dc41b1a384e2f1203f0351b38fbeaafceef577ce1191d5bfc25da39f721eae"},
      {120, "5df24dd802ac26132ce608dcb5f09841eef039ee0f152acf98d26d17fe4e88e6"},
  };
  for (const bool forced : {false, true}) {
    ForceAesFallbackForTesting(forced);
    for (const auto& [len, want] : kCases) {
      EXPECT_EQ(HexOf(Sha256::Hash(Pattern(len))), want)
          << len << (forced ? " (forced scalar)" : "");
    }
  }
  ForceAesFallbackForTesting(false);
}

bool CpuidReportsSha() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (ebx & bit_SHA) != 0;
#else
  return false;
#endif
}

TEST(Sha256Dispatch, SelfTestPassesWhenCpuidReportsSha) {
  if (!CpuidReportsSha()) GTEST_SKIP() << "CPUID reports no SHA extensions";
  EXPECT_TRUE(ShaNiSelfTest());
}

// Under NEXUS_NO_AESNI (the CI forced-scalar step) the SHA dispatch must
// report scalar, so that step provably tests the portable rounds.
TEST(Sha256Dispatch, ScalarWhenNexusNoAesniSet) {
  const char* v = std::getenv("NEXUS_NO_AESNI");
  if (v == nullptr || v[0] == '\0' || std::string(v) == "0") {
    GTEST_SKIP() << "NEXUS_NO_AESNI not set";
  }
  EXPECT_FALSE(HasShaHardware());
  EXPECT_FALSE(HasAesHardware());
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(HexOf(Sha512::Hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(HexOf(Sha512::Hash(AsBytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      HexOf(Sha512::Hash(AsBytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionA) {
  Sha512 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(AsBytes(chunk));
  EXPECT_EQ(HexOf(h.Finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

// An empty span carries a null data pointer; feeding one after a partial
// block (and as a whole message) must leave the digest untouched.
TEST(Sha512, EmptyUpdatesAreNoOps) {
  Sha512 partial;
  partial.Update(AsBytes("ab"));
  partial.Update(ByteSpan{});
  partial.Update(AsBytes("c"));
  partial.Update(ByteSpan{});
  EXPECT_EQ(HexOf(partial.Finish()), HexOf(Sha512::Hash(AsBytes("abc"))));

  Sha512 empty;
  empty.Update(ByteSpan{});
  EXPECT_EQ(HexOf(empty.Finish()), HexOf(Sha512::Hash({})));
}

// RFC 4231 HMAC-SHA256 test cases.
TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(HexOf(HmacSha256(key, AsBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(HexOf(HmacSha256(AsBytes("Jefe"),
                             AsBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(HexOf(HmacSha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      HexOf(HmacSha256(
          key, AsBytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, StreamMatchesOneShot) {
  const Bytes key(32, 0x42);
  HmacSha256Stream mac(key);
  mac.Update(AsBytes("hello "));
  mac.Update(AsBytes("world"));
  EXPECT_EQ(HexOf(mac.Finish()), HexOf(HmacSha256(key, AsBytes("hello world"))));
}

// RFC 5869 HKDF test case 1.
TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = HexDecode("000102030405060708090a0b0c").value();
  const Bytes info = HexDecode("f0f1f2f3f4f5f6f7f8f9").value();
  const auto prk = HkdfExtract(salt, ikm);
  EXPECT_EQ(HexOf(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = HkdfExpand(prk, info, 42);
  EXPECT_EQ(HexOf(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3 (zero-length salt and info).
TEST(Hkdf, Rfc5869Case3) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = Hkdf({}, ikm, {}, 42);
  EXPECT_EQ(HexOf(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandLengths) {
  const Bytes prk(32, 0x07);
  for (std::size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(HkdfExpand(prk, AsBytes("ctx"), len).size(), len);
  }
  // Prefix property: a longer expansion starts with the shorter one.
  const Bytes a = HkdfExpand(prk, AsBytes("ctx"), 16);
  const Bytes b = HkdfExpand(prk, AsBytes("ctx"), 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

} // namespace
} // namespace nexus::crypto
