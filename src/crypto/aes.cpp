#include "crypto/aes.hpp"

#include <cstring>

#include "crypto/aesni.hpp"

namespace nexus::crypto {
namespace {

// ---- table generation -----------------------------------------------------
// The S-box is the GF(2^8) multiplicative inverse (poly 0x11b) followed by
// the FIPS-197 affine transform. Computing it once at startup avoids any
// chance of a typo in a 256-entry literal table.

std::uint8_t GfMul(std::uint8_t a, std::uint8_t b) noexcept {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    const bool hi = a & 0x80;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

struct Tables {
  std::uint8_t sbox[256];
  std::uint32_t te[4][256]; // te[j] = rotr32(te0, 8*j)

  Tables() noexcept {
    // Multiplicative inverses by brute force; 64K multiplies at startup.
    std::uint8_t inv[256] = {};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (GfMul(static_cast<std::uint8_t>(a),
                  static_cast<std::uint8_t>(b)) == 1) {
          inv[a] = static_cast<std::uint8_t>(b);
          break;
        }
      }
    }
    for (int x = 0; x < 256; ++x) {
      const std::uint8_t y = inv[x];
      auto rol = [](std::uint8_t v, int n) {
        return static_cast<std::uint8_t>((v << n) | (v >> (8 - n)));
      };
      sbox[x] = static_cast<std::uint8_t>(y ^ rol(y, 1) ^ rol(y, 2) ^
                                          rol(y, 3) ^ rol(y, 4) ^ 0x63);
    }
    for (int x = 0; x < 256; ++x) {
      const std::uint8_t s = sbox[x];
      const std::uint8_t s2 = GfMul(s, 2);
      const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
      const std::uint32_t t0 = (static_cast<std::uint32_t>(s2) << 24) |
                               (static_cast<std::uint32_t>(s) << 16) |
                               (static_cast<std::uint32_t>(s) << 8) | s3;
      te[0][x] = t0;
      te[1][x] = (t0 >> 8) | (t0 << 24);
      te[2][x] = (t0 >> 16) | (t0 << 16);
      te[3][x] = (t0 >> 24) | (t0 << 8);
    }
  }
};

const Tables& T() noexcept {
  static const Tables tables;
  return tables;
}

std::uint32_t LoadBe32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

void StoreBe32(std::uint32_t v, std::uint8_t* p) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t SubWord(const std::uint8_t (&s)[256], std::uint32_t w) noexcept {
  return (static_cast<std::uint32_t>(s[(w >> 24) & 0xff]) << 24) |
         (static_cast<std::uint32_t>(s[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(s[(w >> 8) & 0xff]) << 8) |
         s[w & 0xff];
}

} // namespace

Result<Aes> Aes::Create(ByteSpan key) { return Make(key, HasAesHardware()); }

Result<Aes> Aes::CreatePortable(ByteSpan key) { return Make(key, false); }

Result<Aes> Aes::Make(ByteSpan key, bool hardware) {
  if (key.size() != 16 && key.size() != 32) {
    return Error(ErrorCode::kCryptoFailure, "AES key must be 16 or 32 bytes");
  }
  Aes aes;
  aes.key_size_ = key.size();
  aes.rounds_ = key.size() == 16 ? 10 : 14;
  if (hardware) {
    AesNiExpandKey(key, aes.round_keys_);
  } else {
    aes.ExpandKey(key);
  }
  return aes;
}

void Aes::ExpandKey(ByteSpan key) noexcept {
  const int nk = static_cast<int>(key.size() / 4);
  const int total = 4 * (rounds_ + 1);
  const auto& sbox = T().sbox;
  std::uint32_t w[60];
  std::memcpy(round_keys_, key.data(), key.size());
  for (int i = 0; i < nk; ++i) {
    w[i] = LoadBe32(key.data() + 4 * i);
  }
  std::uint32_t rcon = 0x01000000;
  for (int i = nk; i < total; ++i) {
    std::uint32_t temp = w[i - 1];
    if (i % nk == 0) {
      temp = SubWord(sbox, (temp << 8) | (temp >> 24)) ^ rcon;
      rcon = static_cast<std::uint32_t>(GfMul(
                 static_cast<std::uint8_t>(rcon >> 24), 2))
             << 24;
    } else if (nk == 8 && i % nk == 4) {
      temp = SubWord(sbox, temp);
    }
    w[i] = w[i - nk] ^ temp;
    StoreBe32(w[i], round_keys_ + 4 * i);
  }
}

void Aes::EncryptBlock(const std::uint8_t in[16],
                       std::uint8_t out[16]) const noexcept {
  const auto& t = T();
  // Round key word j of round r, as the schedule computed it.
  auto rk = [this](int r, int j) noexcept {
    return LoadBe32(round_keys_ + 16 * r + 4 * j);
  };
  std::uint32_t s0 = LoadBe32(in) ^ rk(0, 0);
  std::uint32_t s1 = LoadBe32(in + 4) ^ rk(0, 1);
  std::uint32_t s2 = LoadBe32(in + 8) ^ rk(0, 2);
  std::uint32_t s3 = LoadBe32(in + 12) ^ rk(0, 3);

  for (int r = 1; r < rounds_; ++r) {
    const std::uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                             t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^
                             rk(r, 0);
    const std::uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                             t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^
                             rk(r, 1);
    const std::uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                             t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^
                             rk(r, 2);
    const std::uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                             t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^
                             rk(r, 3);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  const auto& s = t.sbox;
  const std::uint32_t o0 =
      ((static_cast<std::uint32_t>(s[s0 >> 24]) << 24) |
       (static_cast<std::uint32_t>(s[(s1 >> 16) & 0xff]) << 16) |
       (static_cast<std::uint32_t>(s[(s2 >> 8) & 0xff]) << 8) |
       s[s3 & 0xff]) ^
      rk(rounds_, 0);
  const std::uint32_t o1 =
      ((static_cast<std::uint32_t>(s[s1 >> 24]) << 24) |
       (static_cast<std::uint32_t>(s[(s2 >> 16) & 0xff]) << 16) |
       (static_cast<std::uint32_t>(s[(s3 >> 8) & 0xff]) << 8) |
       s[s0 & 0xff]) ^
      rk(rounds_, 1);
  const std::uint32_t o2 =
      ((static_cast<std::uint32_t>(s[s2 >> 24]) << 24) |
       (static_cast<std::uint32_t>(s[(s3 >> 16) & 0xff]) << 16) |
       (static_cast<std::uint32_t>(s[(s0 >> 8) & 0xff]) << 8) |
       s[s1 & 0xff]) ^
      rk(rounds_, 2);
  const std::uint32_t o3 =
      ((static_cast<std::uint32_t>(s[s3 >> 24]) << 24) |
       (static_cast<std::uint32_t>(s[(s0 >> 16) & 0xff]) << 16) |
       (static_cast<std::uint32_t>(s[(s1 >> 8) & 0xff]) << 8) |
       s[s2 & 0xff]) ^
      rk(rounds_, 3);

  StoreBe32(o0, out);
  StoreBe32(o1, out + 4);
  StoreBe32(o2, out + 8);
  StoreBe32(o3, out + 12);
}

void AesCtrXor(const Aes& aes, const std::uint8_t counter_block[16],
               ByteSpan in, MutableByteSpan out) noexcept {
  if (HasAesHardware()) {
    AesNiCtrXor(aes, counter_block, in, out);
    return;
  }
  std::uint8_t ctr[16];
  std::memcpy(ctr, counter_block, 16);
  std::uint8_t keystream[16];
  std::size_t pos = 0;
  while (pos < in.size()) {
    aes.EncryptBlock(ctr, keystream);
    const std::size_t n = std::min<std::size_t>(16, in.size() - pos);
    for (std::size_t i = 0; i < n; ++i) {
      out[pos + i] = in[pos + i] ^ keystream[i];
    }
    pos += n;
    // Increment the final 32 bits big-endian (GCM convention).
    for (int i = 15; i >= 12; --i) {
      if (++ctr[i] != 0) break;
    }
  }
}

void AesEncryptBlocks(const Aes& aes, const std::uint8_t* in,
                      std::uint8_t* out, std::size_t n) noexcept {
  if (HasAesHardware()) {
    AesNiEncryptBlocks(aes, in, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    aes.EncryptBlock(in + 16 * i, out + 16 * i);
  }
}

} // namespace nexus::crypto
