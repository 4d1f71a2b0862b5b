#include "crypto/gcm.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/aesni.hpp"
#include "crypto/ct.hpp"

namespace nexus::crypto {
namespace {

// Reduction constants for the 4-bit table method: last4[r] = r * x^-4 high
// bits folded through the GCM polynomial (Shoup's method, as in mbedTLS).
constexpr std::uint64_t kLast4[16] = {
    0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
    0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
};

std::uint64_t LoadBe64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void StoreBe64(std::uint64_t v, std::uint8_t* p) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

} // namespace

Ghash::Ghash(const std::uint8_t h[16], bool force_portable) noexcept {
  // force_portable is checked FIRST: the AES-NI dispatch self-test builds
  // its reference with a forced-portable Ghash while HasAesHardware()'s
  // own initialization is in flight — short-circuiting here keeps that
  // from recursing into the in-progress static.
  use_pclmul_ = !force_portable && HasAesHardware();
  if (use_pclmul_) {
    PclmulGhashInit(h, powers_);
    return;
  }

  std::uint64_t vh = LoadBe64(h);
  std::uint64_t vl = LoadBe64(h + 8);

  hh_[8] = vh;
  hl_[8] = vl;
  hh_[0] = 0;
  hl_[0] = 0;

  for (int i = 4; i > 0; i >>= 1) {
    // Divide by x (shift right one bit) with reduction.
    const std::uint32_t t = static_cast<std::uint32_t>(vl & 1) * 0xe1000000U;
    vl = (vh << 63) | (vl >> 1);
    vh = (vh >> 1) ^ (static_cast<std::uint64_t>(t) << 32);
    hh_[i] = vh;
    hl_[i] = vl;
  }
  for (int i = 2; i <= 8; i *= 2) {
    for (int j = 1; j < i; ++j) {
      hh_[i + j] = hh_[i] ^ hh_[j];
      hl_[i + j] = hl_[i] ^ hl_[j];
    }
  }
}

void Ghash::MulY() noexcept {
  std::uint8_t lo = y_[15] & 0xf;
  std::uint64_t zh = hh_[lo];
  std::uint64_t zl = hl_[lo];

  for (int i = 15; i >= 0; --i) {
    lo = y_[i] & 0xf;
    const std::uint8_t hi = (y_[i] >> 4) & 0xf;
    if (i != 15) {
      const std::uint8_t rem = static_cast<std::uint8_t>(zl & 0xf);
      zl = (zh << 60) | (zl >> 4);
      zh = zh >> 4;
      zh ^= kLast4[rem] << 48;
      zh ^= hh_[lo];
      zl ^= hl_[lo];
    }
    const std::uint8_t rem = static_cast<std::uint8_t>(zl & 0xf);
    zl = (zh << 60) | (zl >> 4);
    zh = zh >> 4;
    zh ^= kLast4[rem] << 48;
    zh ^= hh_[hi];
    zl ^= hl_[hi];
  }
  StoreBe64(zh, y_);
  StoreBe64(zl, y_ + 8);
}

void Ghash::Absorb(const std::uint8_t* blocks, std::size_t n) noexcept {
  if (use_pclmul_) {
    if (n > 0) PclmulGhashBlocks(y_, powers_, blocks, n);
    return;
  }
  for (; n > 0; --n, blocks += 16) {
    for (int i = 0; i < 16; ++i) y_[i] ^= blocks[i];
    MulY();
  }
}

void Ghash::Update(ByteSpan data) noexcept {
  if (data.empty()) return; // also avoids memcpy(_, nullptr, 0) UB
  std::size_t pos = 0;
  if (pending_len_ > 0) {
    pos = std::min<std::size_t>(16 - pending_len_, data.size());
    std::memcpy(pending_ + pending_len_, data.data(), pos);
    pending_len_ += pos;
    if (pending_len_ < 16) return;
    Absorb(pending_, 1);
    pending_len_ = 0;
  }
  const std::size_t whole = (data.size() - pos) / 16;
  Absorb(data.data() + pos, whole);
  pos += 16 * whole;
  pending_len_ = data.size() - pos;
  std::memcpy(pending_, data.data() + pos, pending_len_);
}

void Ghash::FlushBlock() noexcept {
  if (pending_len_ > 0) {
    std::memset(pending_ + pending_len_, 0, 16 - pending_len_);
    Absorb(pending_, 1);
    pending_len_ = 0;
  }
}

void Ghash::FinishLengths(std::uint64_t aad_bytes, std::uint64_t ct_bytes,
                          std::uint8_t out[16]) noexcept {
  FlushBlock();
  std::uint8_t len_block[16];
  StoreBe64(aad_bytes * 8, len_block);
  StoreBe64(ct_bytes * 8, len_block + 8);
  Absorb(len_block, 1);
  std::memcpy(out, y_, 16);
}

ByteArray<16> Ghash::State() noexcept {
  FlushBlock();
  ByteArray<16> out;
  std::memcpy(out.data(), y_, 16);
  return out;
}

namespace {

// Seals (`encrypt`) or opens `in` into `out` and writes the GCM tag over
// the ciphertext side; open compares it. The portable path runs T-table
// CTR from J0 + 1, then GHASH, then E_K(J0).
void GcmCrypt(const Aes& aes, ByteSpan iv, ByteSpan aad, ByteSpan in,
              MutableByteSpan out, bool encrypt,
              std::uint8_t tag[16]) noexcept {
  if (HasAesHardware()) {
    AesNiGcm(aes, iv.data(), aad, in, out, encrypt, tag);
    return;
  }
  std::uint8_t j0[16] = {};
  std::memcpy(j0, iv.data(), kGcmIvSize);
  j0[15] = 2;
  AesCtrXor(aes, j0, in, out);

  std::uint8_t h[16] = {};
  aes.EncryptBlock(h, h);
  Ghash ghash(h);
  ghash.Update(aad);
  ghash.FlushBlock();
  ghash.Update(encrypt ? ByteSpan(out) : in);
  std::uint8_t s[16];
  ghash.FinishLengths(aad.size(), in.size(), s);

  j0[15] = 1;
  std::uint8_t ekj0[16];
  aes.EncryptBlock(j0, ekj0);
  for (int i = 0; i < 16; ++i) tag[i] = s[i] ^ ekj0[i];
}

} // namespace

Status GcmSealInto(const Aes& aes, ByteSpan iv, ByteSpan aad,
                   ByteSpan plaintext, MutableByteSpan out) {
  if (iv.size() != kGcmIvSize) {
    return Error(ErrorCode::kCryptoFailure, "GCM IV must be 12 bytes");
  }
  if (out.size() != plaintext.size() + kGcmTagSize) {
    return Error(ErrorCode::kCryptoFailure, "GCM output buffer size mismatch");
  }
  GcmCrypt(aes, iv, aad, plaintext, out.first(plaintext.size()),
           /*encrypt=*/true, out.data() + plaintext.size());
  return Status::Ok();
}

Result<Bytes> GcmSeal(const Aes& aes, ByteSpan iv, ByteSpan aad,
                      ByteSpan plaintext) {
  Bytes out(plaintext.size() + kGcmTagSize);
  NEXUS_RETURN_IF_ERROR(GcmSealInto(aes, iv, aad, plaintext, out));
  return out;
}

Status GcmOpenInto(const Aes& aes, ByteSpan iv, ByteSpan aad, ByteSpan sealed,
                   MutableByteSpan out) {
  if (iv.size() != kGcmIvSize) {
    return Error(ErrorCode::kCryptoFailure, "GCM IV must be 12 bytes");
  }
  if (sealed.size() < kGcmTagSize) {
    return Error(ErrorCode::kIntegrityViolation, "GCM ciphertext too short");
  }
  const ByteSpan ct = sealed.first(sealed.size() - kGcmTagSize);
  const ByteSpan tag = sealed.last(kGcmTagSize);
  if (out.size() != ct.size()) {
    return Error(ErrorCode::kCryptoFailure, "GCM output buffer size mismatch");
  }

  std::uint8_t expected[16];
  GcmCrypt(aes, iv, aad, ct, out, /*encrypt=*/false, expected);
  if (!ConstantTimeEqual(ByteSpan(expected, 16), tag)) {
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    return Error(ErrorCode::kIntegrityViolation, "GCM tag mismatch");
  }
  return Status::Ok();
}

Result<Bytes> GcmOpen(const Aes& aes, ByteSpan iv, ByteSpan aad,
                      ByteSpan sealed) {
  if (sealed.size() < kGcmTagSize) {
    return Error(ErrorCode::kIntegrityViolation, "GCM ciphertext too short");
  }
  Bytes out(sealed.size() - kGcmTagSize);
  NEXUS_RETURN_IF_ERROR(GcmOpenInto(aes, iv, aad, sealed, out));
  return out;
}

} // namespace nexus::crypto
