// AES, AES-GCM and AES-GCM-SIV known-answer + property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/hex.hpp"
#include "crypto/aes.hpp"
#include "crypto/aesni.hpp"
#include "crypto/gcm.hpp"
#include "crypto/gcm_siv.hpp"
#include "crypto/rng.hpp"

namespace nexus::crypto {
namespace {

Bytes FromHex(std::string_view h) { return HexDecode(h).value(); }
std::string HexOf(ByteSpan b) { return HexEncode(b); }

// FIPS-197 Appendix C known-answer tests.
TEST(Aes, Fips197Aes128) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexOf(ByteSpan(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes256) {
  const Bytes key =
      FromHex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexOf(ByteSpan(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_FALSE(Aes::Create(Bytes(15)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(24)).ok()); // AES-192 unsupported by design
  EXPECT_FALSE(Aes::Create(Bytes(0)).ok());
}

TEST(Aes, CtrRoundTrip) {
  auto aes = Aes::Create(Bytes(16, 0x55)).value();
  HmacDrbg rng(AsBytes("ctr"));
  const Bytes pt = rng.Generate(1000);
  uint8_t ctr[16] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 0, 0, 1};
  Bytes ct(pt.size()), back(pt.size());
  AesCtrXor(aes, ctr, pt, ct);
  EXPECT_NE(pt, ct);
  AesCtrXor(aes, ctr, ct, back);
  EXPECT_EQ(pt, back);
}

// NIST GCM test vectors (the canonical set from the GCM spec).
TEST(Gcm, NistCase1EmptyPlaintext) {
  auto aes = Aes::Create(Bytes(16, 0)).value();
  const Bytes iv(12, 0);
  auto sealed = GcmSeal(aes, iv, {}, {});
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexOf(*sealed), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(Gcm, NistCase2SingleBlock) {
  auto aes = Aes::Create(Bytes(16, 0)).value();
  const Bytes iv(12, 0);
  const Bytes pt(16, 0);
  auto sealed = GcmSeal(aes, iv, {}, pt);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexOf(*sealed),
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Gcm, NistCase3FourBlocks) {
  auto aes = Aes::Create(FromHex("feffe9928665731c6d6a8f9467308308")).value();
  const Bytes iv = FromHex("cafebabefacedbaddecaf888");
  const Bytes pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  auto sealed = GcmSeal(aes, iv, {}, pt);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexOf(*sealed),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(Gcm, NistCase4WithAad) {
  auto aes = Aes::Create(FromHex("feffe9928665731c6d6a8f9467308308")).value();
  const Bytes iv = FromHex("cafebabefacedbaddecaf888");
  const Bytes pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  auto sealed = GcmSeal(aes, iv, aad, pt);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexOf(*sealed),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(Gcm, RoundTripAndTamperDetection) {
  HmacDrbg rng(AsBytes("gcm"));
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    auto aes = Aes::Create(rng.Generate(16)).value();
    const Bytes iv = rng.Generate(12);
    const Bytes aad = rng.Generate(32);
    const Bytes pt = rng.Generate(len);

    auto sealed = GcmSeal(aes, iv, aad, pt).value();
    auto open = GcmOpen(aes, iv, aad, sealed);
    ASSERT_TRUE(open.ok()) << len;
    EXPECT_EQ(*open, pt);

    // Flipping any single byte must be detected.
    Bytes bad = sealed;
    bad[rng.Below(bad.size())] ^= 0x01;
    auto fail = GcmOpen(aes, iv, aad, bad);
    EXPECT_FALSE(fail.ok()) << len;
    EXPECT_EQ(fail.status().code(), ErrorCode::kIntegrityViolation);

    // Wrong AAD must be detected.
    Bytes bad_aad = aad;
    bad_aad[0] ^= 0xff;
    EXPECT_FALSE(GcmOpen(aes, iv, bad_aad, sealed).ok());
  }
}

// ---- bulk AES-GCM dispatch --------------------------------------------------
// The dispatched path (the AES-NI/PCLMUL bulk kernel where the host has
// it) against the forced portable code. Lengths cross the kernel's
// 4-block (64-byte) groups and its partial tails in both GCM sections.

Bytes Pattern(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 31 + seed);
  }
  return out;
}

// Every plaintext length from 0 to 1,100 bytes, AAD lengths cycling
// 0-80: both paths seal identically, and each opens the other's output.
TEST(GcmDispatch, HardwareMatchesScalarEveryLength) {
  const auto aes = Aes::Create(Pattern(16, 7)).value();
  const Bytes iv = Pattern(12, 3);
  for (std::size_t len = 0; len <= 1100; ++len) {
    const Bytes pt = Pattern(len, static_cast<std::uint8_t>(len));
    const Bytes aad = Pattern(len % 81, 99);
    const Bytes hw = GcmSeal(aes, iv, aad, pt).value();
    ForceAesFallbackForTesting(true);
    const Bytes scalar = GcmSeal(aes, iv, aad, pt).value();
    const auto scalar_open = GcmOpen(aes, iv, aad, hw);
    ForceAesFallbackForTesting(false);
    ASSERT_EQ(hw, scalar) << len;
    ASSERT_TRUE(scalar_open.ok()) << len;
    ASSERT_EQ(*scalar_open, pt) << len;
    ASSERT_EQ(GcmOpen(aes, iv, aad, scalar).value(), pt) << len;
  }
}

// Hashes `data` through Update calls split at seeded random points: empty
// updates, partial blocks, whole blocks and runs past one 4-block group.
ByteArray<16> SplitGhash(const std::uint8_t h[16], bool force_portable,
                         const Bytes& data, std::mt19937& gen) {
  Ghash g(h, force_portable);
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::uniform_int_distribution<std::size_t> step(
        0, std::min<std::size_t>(data.size() - pos, 90));
    const std::size_t n = step(gen);
    g.Update(ByteSpan(data.data() + pos, n));
    pos += n;
  }
  return g.State();
}

TEST(GcmDispatch, GhashSplitUpdatesMatchOneShot) {
  const Bytes h = Pattern(16, 41);
  for (std::size_t len = 0; len <= 600; ++len) {
    const Bytes data = Pattern(len, static_cast<std::uint8_t>(len * 3));
    Ghash whole(h.data());
    whole.Update(data);
    const ByteArray<16> want = whole.State();
    for (const bool portable : {false, true}) {
      std::mt19937 gen(static_cast<std::uint32_t>(len));
      ASSERT_EQ(SplitGhash(h.data(), portable, data, gen), want)
          << len << (portable ? " (portable)" : "");
    }
  }
}

// The counter starts three blocks below the 32-bit wrap, so the wrap
// lands inside the first 4-block group; inc32 must not carry into byte 11.
TEST(GcmDispatch, CtrCounterWrapMatchesScalar) {
  const auto aes = Aes::Create(Pattern(32, 5)).value();
  const std::uint8_t ctr[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                0xff, 0xff, 0xff, 0xfd};
  for (std::size_t len = 0; len <= 200; ++len) {
    const Bytes in = Pattern(len, 17);
    Bytes hw(len), scalar(len);
    AesCtrXor(aes, ctr, in, hw);
    ForceAesFallbackForTesting(true);
    AesCtrXor(aes, ctr, in, scalar);
    ForceAesFallbackForTesting(false);
    ASSERT_EQ(hw, scalar) << len;
  }
}

// The AESKEYGENASSIST schedule gives the portable schedule's round keys,
// and a forced fallback makes Create use the portable one.
TEST(AesDispatch, KeyScheduleMatchesPortable) {
  HmacDrbg rng(AsBytes("schedule"));
  for (int i = 0; i < 200; ++i) {
    const Bytes key = rng.Generate(i % 2 == 0 ? 16 : 32);
    const Aes portable = Aes::CreatePortable(key).value();
    const std::size_t n = 16 * static_cast<std::size_t>(portable.rounds() + 1);
    const ByteSpan want(portable.round_key_bytes(), n);
    const Aes dispatched = Aes::Create(key).value();
    ASSERT_TRUE(std::ranges::equal(
        ByteSpan(dispatched.round_key_bytes(), n), want)) << i;
    ForceAesFallbackForTesting(true);
    const Aes scalar = Aes::Create(key).value();
    ForceAesFallbackForTesting(false);
    ASSERT_TRUE(std::ranges::equal(ByteSpan(scalar.round_key_bytes(), n),
                                   want)) << i;
  }
}

// AesEncryptBlocks is EncryptBlock per block on both paths, for batch
// remainders 0-3 and in place.
TEST(AesDispatch, EncryptBlocksMatchesEncryptBlock) {
  for (const std::size_t key_size : {std::size_t{16}, std::size_t{32}}) {
    const auto aes = Aes::Create(Pattern(key_size, 11)).value();
    for (std::size_t n = 0; n <= 9; ++n) {
      const Bytes in = Pattern(16 * n, static_cast<std::uint8_t>(n));
      Bytes want(in.size());
      for (std::size_t i = 0; i < n; ++i) {
        aes.EncryptBlock(in.data() + 16 * i, want.data() + 16 * i);
      }
      Bytes hw = in;
      AesEncryptBlocks(aes, hw.data(), hw.data(), n);
      ForceAesFallbackForTesting(true);
      Bytes scalar(in.size());
      AesEncryptBlocks(aes, in.data(), scalar.data(), n);
      ForceAesFallbackForTesting(false);
      ASSERT_EQ(hw, want) << key_size << " " << n;
      ASSERT_EQ(scalar, want) << key_size << " " << n;
    }
  }
}

// GCM-SIV seals identically on both paths, across the keystream's
// 8-block batches, and each path opens the other's output.
TEST(GcmSivDispatch, HardwareMatchesScalar) {
  for (const std::size_t key_size : {std::size_t{16}, std::size_t{32}}) {
    const Bytes key = Pattern(key_size, 13);
    const Bytes nonce = Pattern(12, 19);
    for (std::size_t len = 0; len <= 300; ++len) {
      const Bytes pt = Pattern(len, static_cast<std::uint8_t>(len));
      const Bytes aad = Pattern(len % 37, 43);
      const Bytes hw = GcmSivSeal(key, nonce, aad, pt).value();
      ForceAesFallbackForTesting(true);
      const Bytes scalar = GcmSivSeal(key, nonce, aad, pt).value();
      const auto scalar_open = GcmSivOpen(key, nonce, aad, hw);
      ForceAesFallbackForTesting(false);
      ASSERT_EQ(hw, scalar) << key_size << " " << len;
      ASSERT_TRUE(scalar_open.ok()) << key_size << " " << len;
      ASSERT_EQ(*scalar_open, pt) << key_size << " " << len;
      ASSERT_EQ(GcmSivOpen(key, nonce, aad, scalar).value(), pt)
          << key_size << " " << len;
    }
  }
}

// Every single-bit flip of a 200-byte message's ciphertext and tag fails
// the open with kIntegrityViolation and leaves no plaintext in `out`.
TEST(GcmDispatch, EveryBitFlipIsRejected) {
  const auto aes = Aes::Create(Pattern(16, 23)).value();
  const Bytes iv = Pattern(12, 29);
  const Bytes aad = Pattern(20, 31);
  const Bytes sealed = GcmSeal(aes, iv, aad, Pattern(200, 37)).value();
  Bytes out(200);
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    Bytes bad = sealed;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    std::fill(out.begin(), out.end(), std::uint8_t{0xa5});
    const Status s = GcmOpenInto(aes, iv, aad, bad, out);
    ASSERT_EQ(s.code(), ErrorCode::kIntegrityViolation) << bit;
    ASSERT_EQ(out, Bytes(200, 0)) << bit;
  }
}

// RFC 8452 Appendix A POLYVAL vector.
TEST(GcmSiv, PolyvalVector) {
  const auto h = ToArray<16>(FromHex("25629347589242761d31f826ba4b757b"));
  const Bytes x = FromHex(
      "4f4f95668c83dfb6401762bb2d01a262"
      "d1a24ddd2721d006bbe45f20d3c9f362");
  EXPECT_EQ(HexOf(Polyval(h, x)), "f7a3b47b846119fae5b7866cf5e5b77e");
}

// RFC 8452 Appendix C.1 AES-128-GCM-SIV vectors.
TEST(GcmSiv, Rfc8452EmptyPlaintext) {
  const Bytes key = FromHex("01000000000000000000000000000000");
  const Bytes nonce = FromHex("030000000000000000000000");
  auto sealed = GcmSivSeal(key, nonce, {}, {});
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexOf(*sealed), "dc20e2d83f25705bb49e439eca56de25");
}

TEST(GcmSiv, Rfc8452EightBytePlaintext) {
  const Bytes key = FromHex("01000000000000000000000000000000");
  const Bytes nonce = FromHex("030000000000000000000000");
  const Bytes pt = FromHex("0100000000000000");
  auto sealed = GcmSivSeal(key, nonce, {}, pt);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexOf(*sealed),
            "b5d839330ac7b786578782fff6013b815b287c22493a364c");
}

// RFC 8452 Appendix C.2 AES-256-GCM-SIV vectors: six derivation blocks
// instead of four.
TEST(GcmSiv, Rfc8452Aes256Vectors) {
  const Bytes key = FromHex(
      "0100000000000000000000000000000000000000000000000000000000000000");
  const Bytes nonce = FromHex("030000000000000000000000");
  EXPECT_EQ(HexOf(GcmSivSeal(key, nonce, {}, {}).value()),
            "07f5f4169bbf55a8400cd47ea6fd400f");
  EXPECT_EQ(HexOf(GcmSivSeal(key, nonce, {}, FromHex("0100000000000000"))
                      .value()),
            "c2ef328e5c71c83b843122130f7364b761e0b97427e3df28");
}

TEST(GcmSiv, AadIsBoundIntoTheTag) {
  const Bytes key = FromHex("01000000000000000000000000000000");
  const Bytes nonce = FromHex("030000000000000000000000");
  const Bytes pt = FromHex("02000000");
  const Bytes aad = FromHex("01");
  auto sealed = GcmSivSeal(key, nonce, aad, pt).value();
  // Opens only under the exact AAD it was sealed with.
  EXPECT_TRUE(GcmSivOpen(key, nonce, aad, sealed).ok());
  EXPECT_FALSE(GcmSivOpen(key, nonce, {}, sealed).ok());
  EXPECT_FALSE(GcmSivOpen(key, nonce, FromHex("02"), sealed).ok());
  // And a different AAD changes the ciphertext (tag feeds the keystream).
  auto other = GcmSivSeal(key, nonce, FromHex("02"), pt).value();
  EXPECT_NE(sealed, other);
}

TEST(GcmSiv, RoundTripBothKeySizes) {
  HmacDrbg rng(AsBytes("siv"));
  for (std::size_t key_len : {16u, 32u}) {
    for (std::size_t len : {0u, 1u, 16u, 33u, 500u}) {
      const Bytes key = rng.Generate(key_len);
      const Bytes nonce = rng.Generate(12);
      const Bytes aad = rng.Generate(7);
      const Bytes pt = rng.Generate(len);

      auto sealed = GcmSivSeal(key, nonce, aad, pt).value();
      auto open = GcmSivOpen(key, nonce, aad, sealed);
      ASSERT_TRUE(open.ok());
      EXPECT_EQ(*open, pt);

      Bytes bad = sealed;
      bad[rng.Below(bad.size())] ^= 0x80;
      EXPECT_FALSE(GcmSivOpen(key, nonce, aad, bad).ok());
    }
  }
}

TEST(GcmSiv, NonceMisuseKeepsKeyWrapDeterministic) {
  // GCM-SIV is deterministic for a fixed (key, nonce, aad, pt): the wrapped
  // key bytes are stable, which NEXUS relies on for idempotent re-encodes.
  const Bytes key(16, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes pt(16, 0x33);
  auto a = GcmSivSeal(key, nonce, {}, pt).value();
  auto b = GcmSivSeal(key, nonce, {}, pt).value();
  EXPECT_EQ(a, b);
}

} // namespace
} // namespace nexus::crypto
