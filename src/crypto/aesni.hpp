// Hardware fast paths for AES-CTR (AES-NI), GHASH (PCLMULQDQ) and the
// SHA-256 compression function (SHA-NI), dispatched at runtime. The
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

/// True when the AES-NI/PCLMUL fast paths are in use. Evaluated once:
///  1. CPUID must report aes + pclmul + ssse3,
///  2. NEXUS_NO_AESNI must not be set (non-empty, != "0") in the
///     environment — the CI knob that keeps the scalar path tested,
///  3. a known-answer self-test must pass: the hardware CTR keystream and
///     PCLMUL GHASH step are checked against the portable reference, so a
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
/// HasAesHardware() and HasShaHardware() report false and every GCM/CTR
/// call and SHA-256 compression takes the portable path. Thread-safe;
/// affects only subsequently-created Ghash instances, future AesCtrXor
/// calls and future Sha256 compressions.
void ForceAesFallbackForTesting(bool disabled) noexcept;

/// Re-runs the dispatch-verification KAT (the check HasAesHardware caches).
/// False on non-x86 builds or when the CPU lacks the instructions.
bool AesniSelfTest() noexcept;

/// The SHA-NI dispatch KAT (the check HasShaHardware caches): three blocks
/// through ShaNiCompress must leave the same state as the portable rounds.
/// False on non-x86 builds or when the CPU lacks the instructions.
bool ShaNiSelfTest() noexcept;

/// CTR keystream XOR using AES-NI. `round_key_bytes` is (rounds+1)*16
/// bytes of standard-serialized round keys; `counter` uses the GCM
/// convention (big-endian increment of the final 32 bits).
void AesNiCtrXor(const std::uint8_t* round_key_bytes, int rounds,
                 const std::uint8_t counter[16], ByteSpan in,
                 MutableByteSpan out) noexcept;

/// GHASH block step via carry-less multiply: y <- (y ^ x) * h in GF(2^128)
/// with the GCM bit order.
void PclmulGhashBlock(std::uint8_t y[16], const std::uint8_t x[16],
                      const std::uint8_t h[16]) noexcept;

/// SHA-256 compression of `n` consecutive 64-byte blocks into `state`
/// (a, ..., h in FIPS 180-4 order) using the SHA extensions.
void ShaNiCompress(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t n) noexcept;

} // namespace nexus::crypto
