// HMAC-DRBG determinism and distribution sanity tests.
#include <gtest/gtest.h>

#include <set>

#include "common/hex.hpp"
#include "crypto/aesni.hpp"
#include "crypto/rng.hpp"

namespace nexus::crypto {
namespace {

TEST(HmacDrbg, DeterministicFromSeed) {
  HmacDrbg a(AsBytes("seed"));
  HmacDrbg b(AsBytes("seed"));
  EXPECT_EQ(a.Generate(64), b.Generate(64));
  EXPECT_EQ(a.Generate(13), b.Generate(13));
}

// Pins the stream: every key, IV and UUID the enclave draws comes from it,
// so any change to HMAC-DRBG or SHA-256 that moves it fails here, on the
// dispatched and the forced portable SHA-256 alike.
TEST(HmacDrbg, KnownAnswerFirst64Bytes) {
  const std::string kWant =
      "da2e5b8e6af39cdce0a42247b47f7cda71fc7c09cf19526f962d95257b60dd30"
      "a9ba9fb48a6fea6ab0eb463ba1624cef4530ffe895e44b903cea572f309dfada";
  for (const bool forced : {false, true}) {
    ForceAesFallbackForTesting(forced);
    HmacDrbg rng(AsBytes("nexus-drbg-kat"));
    EXPECT_EQ(HexEncode(rng.Generate(64)), kWant)
        << (forced ? "forced scalar" : "dispatched");
  }
  ForceAesFallbackForTesting(false);
}

TEST(HmacDrbg, DifferentSeedsDiverge) {
  HmacDrbg a(AsBytes("seed-1"));
  HmacDrbg b(AsBytes("seed-2"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(HmacDrbg, ReseedChangesStream) {
  HmacDrbg a(AsBytes("seed"));
  HmacDrbg b(AsBytes("seed"));
  (void)a.Generate(16);
  (void)b.Generate(16);
  b.Reseed(AsBytes("extra"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(HmacDrbg, SuccessiveOutputsDiffer) {
  HmacDrbg rng(AsBytes("x"));
  EXPECT_NE(rng.Generate(32), rng.Generate(32));
}

TEST(HmacDrbg, UuidsAreUnique) {
  HmacDrbg rng(AsBytes("uuid"));
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(rng.NewUuid().ToString()).second);
  }
}

TEST(HmacDrbg, BelowStaysInRange) {
  HmacDrbg rng(AsBytes("range"));
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(HmacDrbg, BelowCoversRange) {
  HmacDrbg rng(AsBytes("cover"));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(SystemRng, ProducesOutput) {
  auto& rng = SystemRng();
  EXPECT_NE(rng.Generate(32), rng.Generate(32));
}

} // namespace
} // namespace nexus::crypto
