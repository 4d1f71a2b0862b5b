// AES-128/256 block cipher (FIPS 197), encryption direction only.
//
// Every mode NEXUS uses (CTR, GCM, GCM-SIV) is built from the forward
// transform, so the inverse cipher is deliberately not implemented. The
// S-box is generated from the GF(2^8) inverse + affine map at first use,
// eliminating table-transcription errors; NIST known-answer tests pin the
// result. When HasAesHardware(), the key schedule and the multi-block
// helpers run on AES-NI (crypto/aesni.hpp); EncryptBlock is always the
// portable T-table reference.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace nexus::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Key must be 16 (AES-128) or 32 (AES-256) bytes. Expands the key
  /// with AESKEYGENASSIST when HasAesHardware(), else with the portable
  /// schedule; both produce the same round keys.
  static Result<Aes> Create(ByteSpan key);
  /// Create with the portable schedule only. The AES-NI self-test builds
  /// its reference with it, because it runs while HasAesHardware() is
  /// still being decided.
  static Result<Aes> CreatePortable(ByteSpan key);

  /// Encrypts exactly one 16-byte block, in != out allowed to alias.
  void EncryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const
      noexcept;

  [[nodiscard]] std::size_t key_size() const noexcept { return key_size_; }
  [[nodiscard]] int rounds() const noexcept { return rounds_; }

  /// The round keys, (rounds+1)*16 bytes: the FIPS 197 schedule words
  /// stored big-endian, which is the byte order AES-NI loads.
  [[nodiscard]] const std::uint8_t* round_key_bytes() const noexcept {
    return round_keys_;
  }

 private:
  Aes() = default;
  static Result<Aes> Make(ByteSpan key, bool hardware);
  void ExpandKey(ByteSpan key) noexcept;

  // Up to 15 round keys of 16 bytes (AES-256: 14 rounds + initial).
  alignas(16) std::uint8_t round_keys_[240] = {};
  int rounds_ = 0;
  std::size_t key_size_ = 0;
};

/// AES-CTR keystream XOR: encrypt and decrypt are the same operation.
/// `counter_block` is the initial 16-byte counter; the final 4 bytes are
/// interpreted as a big-endian counter (NIST/GCM convention).
void AesCtrXor(const Aes& aes, const std::uint8_t counter_block[16],
               ByteSpan in, MutableByteSpan out) noexcept;

/// Encrypts `n` independent 16-byte blocks (ECB) from `in` to `out`,
/// which may alias. AES-NI pipelines them when HasAesHardware().
void AesEncryptBlocks(const Aes& aes, const std::uint8_t* in,
                      std::uint8_t* out, std::size_t n) noexcept;

} // namespace nexus::crypto
