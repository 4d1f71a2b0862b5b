// Random number generation.
//
// All NEXUS randomness (UUIDs, keys, IVs, nonces) flows through the Rng
// interface so tests and benchmarks can run fully deterministically from a
// seed while examples use OS entropy. The generator is HMAC-DRBG with
// SHA-256 (NIST SP 800-90A).
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "common/uuid.hpp"
#include "crypto/hmac.hpp"

namespace nexus::crypto {

class Rng {
 public:
  virtual ~Rng() = default;

  virtual void Fill(MutableByteSpan out) noexcept = 0;

  Bytes Generate(std::size_t n) {
    Bytes out(n);
    Fill(out);
    return out;
  }

  template <std::size_t N>
  ByteArray<N> Array() noexcept {
    ByteArray<N> out;
    Fill(out);
    return out;
  }

  Uuid NewUuid() noexcept { return Uuid(Array<Uuid::kSize>()); }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t Below(std::uint64_t bound) noexcept;
};

/// Deterministic HMAC-DRBG. Same seed => same stream, for reproducible
/// simulations and tests.
class HmacDrbg final : public Rng {
 public:
  explicit HmacDrbg(ByteSpan seed) noexcept;

  void Fill(MutableByteSpan out) noexcept override;

  /// Mixes additional entropy into the state.
  void Reseed(ByteSpan seed) noexcept;

 private:
  void Update(ByteSpan provided) noexcept;
  /// HMAC(K, V), from the keyed state.
  [[nodiscard]] ByteArray<32> MacOfValue() const noexcept;

  // The keyed state of the current K, built once per re-key and copied
  // by every MAC under it.
  HmacSha256Stream key_{ByteArray<32>{}};
  ByteArray<32> value_{};
};

/// Process-wide RNG seeded from std::random_device; used by examples.
Rng& SystemRng();

} // namespace nexus::crypto
