#include "crypto/gcm_siv.hpp"

#include <cstring>

#include "crypto/aes.hpp"
#include "crypto/ct.hpp"
#include "crypto/gcm.hpp"

namespace nexus::crypto {
namespace {

ByteArray<16> ByteReverse(ByteSpan b) noexcept {
  ByteArray<16> out;
  for (int i = 0; i < 16; ++i) out[i] = b[15 - i];
  return out;
}

// Multiply by x in the GHASH field: one-bit right shift of the 128-bit
// string (MSB of byte 0 first) with the 0xe1 reduction.
ByteArray<16> MulXGhash(const ByteArray<16>& v) noexcept {
  ByteArray<16> out;
  const bool carry = v[15] & 1;
  std::uint8_t prev = 0;
  for (int i = 0; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>((v[i] >> 1) | (prev << 7));
    prev = v[i] & 1;
  }
  if (carry) out[0] ^= 0xe1;
  return out;
}

// Derives the per-nonce message-authentication and message-encryption keys
// (RFC 8452 §4).
struct DerivedKeys {
  ByteArray<16> auth_key;
  Bytes enc_key; // 16 or 32 bytes
};

Result<DerivedKeys> DeriveKeys(ByteSpan key, ByteSpan nonce) {
  NEXUS_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  // Block i is LE32(i) || nonce; the first 8 bytes of each encryption
  // are the next 8 key bytes. All 4 (AES-128) or 6 (AES-256) blocks go
  // through the cipher in one batch.
  const std::size_t count = key.size() == 32 ? 6 : 4;
  std::uint8_t blocks[6 * 16] = {};
  for (std::size_t i = 0; i < count; ++i) {
    blocks[16 * i] = static_cast<std::uint8_t>(i);
    std::memcpy(blocks + 16 * i + 4, nonce.data(), kGcmSivNonceSize);
  }
  AesEncryptBlocks(aes, blocks, blocks, count);

  DerivedKeys keys;
  std::memcpy(keys.auth_key.data(), blocks, 8);
  std::memcpy(keys.auth_key.data() + 8, blocks + 16, 8);
  keys.enc_key.resize(key.size());
  for (std::size_t i = 2; i < count; ++i) {
    std::memcpy(keys.enc_key.data() + 8 * (i - 2), blocks + 16 * i, 8);
  }
  return keys;
}

// The SIV tag: POLYVAL over padded AAD || padded PT || length block, XORed
// with the nonce, masked, then encrypted.
ByteArray<16> ComputeTag(const Aes& enc, const ByteArray<16>& auth_key,
                         ByteSpan nonce, ByteSpan aad,
                         ByteSpan plaintext) noexcept {
  Bytes input;
  input.reserve(((aad.size() + 15) & ~15ULL) +
                ((plaintext.size() + 15) & ~15ULL) + 16);
  Append(input, aad);
  input.resize((input.size() + 15) & ~15ULL, 0);
  Append(input, plaintext);
  input.resize((input.size() + 15) & ~15ULL, 0);
  std::uint8_t len_block[16];
  const std::uint64_t aad_bits = aad.size() * 8;
  const std::uint64_t pt_bits = plaintext.size() * 8;
  for (int i = 0; i < 8; ++i) {
    len_block[i] = static_cast<std::uint8_t>(aad_bits >> (8 * i));
    len_block[8 + i] = static_cast<std::uint8_t>(pt_bits >> (8 * i));
  }
  Append(input, ByteSpan(len_block, 16));

  ByteArray<16> s = Polyval(auth_key, input);
  for (std::size_t i = 0; i < kGcmSivNonceSize; ++i) s[i] ^= nonce[i];
  s[15] &= 0x7f;

  ByteArray<16> tag;
  AesEncryptBlocks(enc, s.data(), tag.data(), 1);
  return tag;
}

// GCM-SIV CTR mode: 32-bit little-endian counter in the first 4 bytes,
// initial block = tag with the top bit of the last byte forced on.
void SivCtrXor(const Aes& enc, const ByteArray<16>& tag, ByteSpan in,
               MutableByteSpan out) noexcept {
  constexpr std::size_t kBatch = 8; // counter blocks per AES call
  ByteArray<16> ctr = tag;
  ctr[15] |= 0x80;
  std::uint8_t keystream[kBatch * 16];
  std::size_t pos = 0;
  while (pos < in.size()) {
    const std::size_t n = std::min<std::size_t>(kBatch * 16, in.size() - pos);
    const std::size_t blocks = (n + 15) / 16;
    for (std::size_t b = 0; b < blocks; ++b) {
      std::memcpy(keystream + 16 * b, ctr.data(), 16);
      for (int i = 0; i < 4; ++i) {
        if (++ctr[i] != 0) break;
      }
    }
    AesEncryptBlocks(enc, keystream, keystream, blocks);
    for (std::size_t i = 0; i < n; ++i) out[pos + i] = in[pos + i] ^ keystream[i];
    pos += n;
  }
}

} // namespace

ByteArray<16> Polyval(const ByteArray<16>& h, ByteSpan data) {
  const ByteArray<16> ghash_key = MulXGhash(ByteReverse(h));
  Ghash ghash(ghash_key.data());
  ByteArray<16> block{};
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t n = std::min<std::size_t>(16, data.size() - pos);
    block.fill(0);
    std::memcpy(block.data(), data.data() + pos, n);
    ghash.Update(ByteReverse(block));
    pos += n;
  }
  // Extract the raw GHASH state: FinishLengths would append a length block,
  // so instead absorb nothing further and read Y via a zero-length trick.
  ByteArray<16> y = ghash.State();
  return ByteReverse(y);
}

Result<Bytes> GcmSivSeal(ByteSpan key, ByteSpan nonce, ByteSpan aad,
                         ByteSpan plaintext) {
  if (nonce.size() != kGcmSivNonceSize) {
    return Error(ErrorCode::kCryptoFailure, "GCM-SIV nonce must be 12 bytes");
  }
  NEXUS_ASSIGN_OR_RETURN(DerivedKeys keys, DeriveKeys(key, nonce));
  NEXUS_ASSIGN_OR_RETURN(Aes enc, Aes::Create(keys.enc_key));

  const ByteArray<16> tag =
      ComputeTag(enc, keys.auth_key, nonce, aad, plaintext);

  Bytes out(plaintext.size() + kGcmSivTagSize);
  SivCtrXor(enc, tag, plaintext, MutableByteSpan(out.data(), plaintext.size()));
  std::memcpy(out.data() + plaintext.size(), tag.data(), kGcmSivTagSize);
  return out;
}

Result<Bytes> GcmSivOpen(ByteSpan key, ByteSpan nonce, ByteSpan aad,
                         ByteSpan sealed) {
  if (nonce.size() != kGcmSivNonceSize) {
    return Error(ErrorCode::kCryptoFailure, "GCM-SIV nonce must be 12 bytes");
  }
  if (sealed.size() < kGcmSivTagSize) {
    return Error(ErrorCode::kIntegrityViolation, "GCM-SIV ciphertext too short");
  }
  NEXUS_ASSIGN_OR_RETURN(DerivedKeys keys, DeriveKeys(key, nonce));
  NEXUS_ASSIGN_OR_RETURN(Aes enc, Aes::Create(keys.enc_key));

  const ByteSpan ct = sealed.first(sealed.size() - kGcmSivTagSize);
  const ByteSpan tag = sealed.last(kGcmSivTagSize);

  Bytes plaintext(ct.size());
  SivCtrXor(enc, ToArray<16>(tag), ct, plaintext);

  const ByteArray<16> expected =
      ComputeTag(enc, keys.auth_key, nonce, aad, plaintext);
  if (!ConstantTimeEqual(expected, tag)) {
    SecureZero(plaintext);
    return Error(ErrorCode::kIntegrityViolation, "GCM-SIV tag mismatch");
  }
  return plaintext;
}

} // namespace nexus::crypto
