// Hardware fast paths for AES-CTR and one-pass AES-GCM (AES-NI with
// PCLMULQDQ GHASH) and the SHA-256 compression function (SHA-NI),
// dispatched at runtime. The
// paper's enclave used mbedTLS with hardware crypto; without this the
// simulated enclave's crypto throughput — and thus the Table 5a "Enclave"
// column, the read-heavy Table II rows and every metadata op's HMAC-DRBG
// draws — would be bottlenecked by the portable implementations rather
// than by anything NEXUS-related. The portable code remains the reference
// and the fallback; both paths satisfy the same NIST vectors. One switch
// governs every kernel: NEXUS_NO_AESNI and ForceAesFallbackForTesting turn
// off AES and SHA alike.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace nexus::crypto {

class Aes;

/// True when the AES-NI/PCLMUL fast paths are in use. Evaluated once:
///  1. CPUID must report aes + pclmul + ssse3,
///  2. NEXUS_NO_AESNI must not be set (non-empty, != "0") in the
///     environment — the CI knob that keeps the scalar path tested,
///  3. a known-answer self-test must pass: the AES-NI key schedule
///     (AES-128 and AES-256), the ECB blocks helper, the hardware CTR
///     keystream, a multi-group PCLMUL GHASH and one seal through the bulk
///     GCM kernel are checked against the portable reference, so a
///     mis-dispatched or miscompiled fast path degrades to the (correct)
///     scalar code instead of producing wrong ciphertext.
/// The result is cached; ForceAesFallbackForTesting overrides it at runtime.
bool HasAesHardware() noexcept;

/// True when Sha256 compresses with SHA-NI. Same gate as HasAesHardware():
/// CPUID must report sha (leaf 7) + sse4.1 + ssse3, NEXUS_NO_AESNI must not
/// be set, and ShaNiSelfTest() must pass. Cached like HasAesHardware();
/// ForceAesFallbackForTesting overrides it at runtime.
bool HasShaHardware() noexcept;

/// Runtime override for equivalence tests: while `disabled` is true,
/// HasAesHardware() and HasShaHardware() report false and every key
/// schedule, GCM/CTR call and SHA-256 compression takes the portable path.
/// Thread-safe; affects only subsequently-created Aes and Ghash instances,
/// future GCM, AesCtrXor and AesEncryptBlocks calls and future Sha256
/// compressions.
void ForceAesFallbackForTesting(bool disabled) noexcept;

/// Re-runs the dispatch-verification KAT (the check HasAesHardware caches).
/// False on non-x86 builds or when the CPU lacks the instructions.
bool AesniSelfTest() noexcept;

/// The SHA-NI dispatch KAT (the check HasShaHardware caches): three blocks
/// through ShaNiCompress must leave the same state as the portable rounds.
/// False on non-x86 builds or when the CPU lacks the instructions.
bool ShaNiSelfTest() noexcept;

/// The FIPS 197 key schedule with PSHUFB + AESENCLAST: writes the
/// (rounds + 1) * 16 round-key bytes of a 16- or 32-byte `key` in
/// Aes::round_key_bytes() layout.
void AesNiExpandKey(ByteSpan key, std::uint8_t round_keys[240]) noexcept;

/// Encrypts `n` independent 16-byte blocks (ECB) with AES-NI, four per
/// batch; `in` and `out` may alias.
void AesNiEncryptBlocks(const Aes& aes, const std::uint8_t* in,
                        std::uint8_t* out, std::size_t n) noexcept;

/// CTR keystream XOR using AES-NI, any length. `counter` uses the GCM
/// convention (big-endian increment of the final 32 bits, wrapping
/// without carry into the rest of the block).
void AesNiCtrXor(const Aes& aes, const std::uint8_t counter[16], ByteSpan in,
                 MutableByteSpan out) noexcept;

/// AES-GCM in one pass over `in` (NIST SP 800-38D, 12-byte IV): CTR from
/// J0 + 1 into `out`, with GHASH over the ciphertext side (`out` when
/// `encrypt`, else `in`) interleaved with the AES rounds, four blocks per
/// aggregated reduction. Writes the tag; the caller compares it on open.
void AesNiGcm(const Aes& aes, const std::uint8_t iv[12], ByteSpan aad,
              ByteSpan in, MutableByteSpan out, bool encrypt,
              std::uint8_t tag[16]) noexcept;

/// GHASH key setup for PclmulGhashBlocks: H, H^2, H^3 and H^4 in the
/// byte-reflected form CLMUL works on, 16 bytes each.
void PclmulGhashInit(const std::uint8_t h[16],
                     std::uint8_t powers[64]) noexcept;

/// Absorbs `n` whole 16-byte blocks into the GHASH accumulator `y` (GCM
/// byte order): y <- (...((y ^ x1) * H ^ x2) * H ...) * H, computed four
/// blocks per reduction with the powers from PclmulGhashInit.
void PclmulGhashBlocks(std::uint8_t y[16], const std::uint8_t powers[64],
                       const std::uint8_t* blocks, std::size_t n) noexcept;

/// SHA-256 compression of `n` consecutive 64-byte blocks into `state`
/// (a, ..., h in FIPS 180-4 order) using the SHA extensions.
void ShaNiCompress(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t n) noexcept;

} // namespace nexus::crypto
