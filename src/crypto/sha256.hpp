// SHA-256 (FIPS 180-4). Used for enclave measurements, HMAC-DRBG, HKDF and
// metadata MAC composition. Validated against NIST vectors in tests.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace nexus::crypto {

/// FIPS 180-4 round constants, shared by the portable compressor and the
/// SHA-NI kernel (aligned for its 16-byte loads).
alignas(16) inline constexpr std::uint32_t kSha256RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256() noexcept { Reset(); }

  void Reset() noexcept;
  void Update(ByteSpan data) noexcept;

  /// Finalizes and returns the digest. The object must be Reset() before
  /// further use.
  [[nodiscard]] ByteArray<kDigestSize> Finish() noexcept;

  /// One-shot convenience.
  static ByteArray<kDigestSize> Hash(ByteSpan data) noexcept;

 private:
  /// Compresses `n` whole blocks into state_: SHA-NI when
  /// HasShaHardware(), else the portable rounds, one block at a time.
  void Compress(const std::uint8_t* blocks, std::size_t n) noexcept;

  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[kBlockSize];
  std::size_t buffer_len_ = 0;
};

} // namespace nexus::crypto
