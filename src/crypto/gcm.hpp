// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// This is NEXUS's workhorse AEAD: every metadata body, file chunk and sealed
// blob is protected with AES-GCM. With AES-NI and PCLMUL dispatched (see
// aesni.hpp), seal and open run one pass of the bulk kernel: CTR and
// GHASH interleaved, four blocks per aggregated reduction. The portable
// path, the reference and fallback, runs T-table CTR and GHASH with
// Shoup's 4-bit tables (~16x faster than bit-by-bit); both are validated
// against the NIST test vectors.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/aes.hpp"

namespace nexus::crypto {

inline constexpr std::size_t kGcmIvSize = 12;
inline constexpr std::size_t kGcmTagSize = 16;

/// GHASH over GF(2^128) keyed by H = AES_K(0^128).
class Ghash {
 public:
  /// `force_portable` disables the PCLMUL fast path (used by equivalence
  /// tests; production callers leave the default). The key setup is the
  /// dispatched path's only: H..H^4 for PCLMUL, Shoup's tables otherwise.
  explicit Ghash(const std::uint8_t h[16], bool force_portable = false) noexcept;

  /// Absorbs whole blocks straight from `data`; only a partial tail is
  /// buffered.
  void Update(ByteSpan data) noexcept;
  /// Zero-pads any buffered partial block and absorbs it. Called between the
  /// AAD and ciphertext sections (GCM pads each section independently).
  void FlushBlock() noexcept;
  /// Appends the standard [len(aad)]64 || [len(ct)]64 block and returns Y.
  void FinishLengths(std::uint64_t aad_bytes, std::uint64_t ct_bytes,
                     std::uint8_t out[16]) noexcept;

  /// Current accumulator Y after flushing any buffered block. POLYVAL
  /// (GCM-SIV) reads the raw state because it appends its own length block.
  [[nodiscard]] ByteArray<16> State() noexcept;

 private:
  void Absorb(const std::uint8_t* blocks, std::size_t n) noexcept;
  void MulY() noexcept; // Y <- Y * H, portable

  bool use_pclmul_ = false;
  std::uint8_t powers_[64];  // PCLMUL: H..H^4, reflected
  std::uint64_t hh_[16];     // portable: Shoup's 4-bit tables
  std::uint64_t hl_[16];
  std::uint8_t y_[16] = {};
  std::uint8_t pending_[16] = {};
  std::size_t pending_len_ = 0;
};

/// Encrypts `plaintext` with AES-GCM. Returns ciphertext || 16-byte tag.
/// `iv` must be 12 bytes (the only length NEXUS uses).
Result<Bytes> GcmSeal(const Aes& aes, ByteSpan iv, ByteSpan aad,
                      ByteSpan plaintext);

/// Decrypts and checks the tag. `sealed` is ciphertext || tag.
/// Fails with kIntegrityViolation on any mismatch (tamper evidence), and
/// then returns no plaintext.
Result<Bytes> GcmOpen(const Aes& aes, ByteSpan iv, ByteSpan aad,
                      ByteSpan sealed);

/// In-place variant for the parallel chunk engine: seals into `out`, which
/// must be exactly plaintext.size() + kGcmTagSize bytes (a disjoint slice
/// of a shared ciphertext buffer — no allocation, no copies). Produces
/// bytes identical to GcmSeal. `out` must not alias `plaintext`.
Status GcmSealInto(const Aes& aes, ByteSpan iv, ByteSpan aad,
                   ByteSpan plaintext, MutableByteSpan out);

/// In-place open: decrypts into `out`, which must be exactly
/// sealed.size() - kGcmTagSize bytes, in the same pass that hashes the
/// ciphertext. On a tag mismatch it zeroes `out` before returning, so no
/// unverified plaintext reaches the caller. `out` must not alias `sealed`.
Status GcmOpenInto(const Aes& aes, ByteSpan iv, ByteSpan aad, ByteSpan sealed,
                   MutableByteSpan out);

} // namespace nexus::crypto
