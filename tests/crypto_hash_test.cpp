// Known-answer and property tests for SHA-256, SHA-512, HMAC and HKDF.
#include <gtest/gtest.h>

#include "common/hex.hpp"
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
