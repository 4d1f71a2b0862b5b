// Compiled with -maes -mpclmul -mssse3 (see CMakeLists); callers must gate
// on HasAesHardware().
#include "crypto/aesni.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "crypto/aes.hpp"
#include "crypto/gcm.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#include <wmmintrin.h>
#endif

namespace nexus::crypto {

namespace {

std::atomic<bool> g_force_fallback{false};

// NEXUS_NO_AESNI set (non-empty, not "0") disables the fast paths, AES and
// SHA alike — used by CI to keep the scalar implementations exercised on
// machines with the instructions.
bool DisabledByEnv() noexcept {
  const char* v = std::getenv("NEXUS_NO_AESNI");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool CpuidSupportsAesni() noexcept {
#if defined(__x86_64__)
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("ssse3");
#else
  return false;
#endif
}

} // namespace

bool AesniSelfTest() noexcept {
  if (!CpuidSupportsAesni()) return false;

  // CTR keystream: 80 bytes so both the 4-wide pipeline (64) and the
  // scalar tail (16) run, with the counter placed just below a multi-byte
  // carry so the big-endian increment is verified too. The reference is
  // built directly from the portable Aes::EncryptBlock — NOT AesCtrXor,
  // whose dispatch consults the HasAesHardware() static this self-test
  // initializes.
  static constexpr std::uint8_t kKey[16] = {
      0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  auto aes = Aes::Create(ByteSpan(kKey, 16));
  if (!aes.ok()) return false;

  std::uint8_t counter[16] = {0xca, 0xfe, 0xba, 0xbe, 0xfa, 0xce,
                              0xdb, 0xad, 0xde, 0xca, 0xf8, 0x88,
                              0x00, 0x00, 0xff, 0xfd};
  std::uint8_t input[80];
  for (std::size_t i = 0; i < sizeof(input); ++i) {
    input[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }

  std::uint8_t rk[240];
  aes->ExportRoundKeyBytes(rk);
  std::uint8_t got[80];
  AesNiCtrXor(rk, aes->rounds(), counter, ByteSpan(input, sizeof(input)),
              MutableByteSpan(got, sizeof(got)));

  std::uint8_t want[80];
  std::uint8_t ctr[16];
  std::memcpy(ctr, counter, 16);
  for (std::size_t pos = 0; pos < sizeof(input); pos += 16) {
    std::uint8_t keystream[16];
    aes->EncryptBlock(ctr, keystream);
    for (int i = 15; i >= 12; --i) {
      if (++ctr[i] != 0) break;
    }
    for (std::size_t i = 0; i < 16; ++i) {
      want[pos + i] = input[pos + i] ^ keystream[i];
    }
  }
  if (std::memcmp(got, want, sizeof(want)) != 0) return false;

  // GHASH block step: y <- (0 ^ x) * h, PCLMUL vs the forced-portable
  // table implementation (force_portable short-circuits its dispatch, so
  // this cannot recurse into HasAesHardware()).
  std::uint8_t h[16];
  std::uint8_t x[16];
  for (std::size_t i = 0; i < 16; ++i) {
    h[i] = static_cast<std::uint8_t>(0xa3 ^ (i * 29));
    x[i] = static_cast<std::uint8_t>(0x5c + i * 13);
  }
  Ghash reference(h, /*force_portable=*/true);
  reference.Update(ByteSpan(x, 16));
  const ByteArray<16> want_y = reference.State();
  std::uint8_t y[16] = {};
  PclmulGhashBlock(y, x, h);
  return std::memcmp(y, want_y.data(), 16) == 0;
}

bool HasAesHardware() noexcept {
  // Detection runs once: CPUID gate, env knob, then the known-answer
  // verification — a fast path that cannot prove it matches the portable
  // reference is never dispatched to.
  static const bool enabled = !DisabledByEnv() && AesniSelfTest();
  return enabled && !g_force_fallback.load(std::memory_order_relaxed);
}

bool HasShaHardware() noexcept {
  // The same gate as HasAesHardware, with the SHA-NI known answer.
  static const bool enabled = !DisabledByEnv() && ShaNiSelfTest();
  return enabled && !g_force_fallback.load(std::memory_order_relaxed);
}

void ForceAesFallbackForTesting(bool disabled) noexcept {
  g_force_fallback.store(disabled, std::memory_order_relaxed);
}

#if defined(__x86_64__)

namespace {

// Encrypts one block with pre-loaded round keys.
inline __m128i EncryptBlockNi(__m128i block, const __m128i* rk,
                              int rounds) noexcept {
  block = _mm_xor_si128(block, rk[0]);
  for (int r = 1; r < rounds; ++r) block = _mm_aesenc_si128(block, rk[r]);
  return _mm_aesenclast_si128(block, rk[rounds]);
}

// GHASH operands are bit-reflected for CLMUL (Intel white paper layout).
inline __m128i Reflect(__m128i v) noexcept {
  const __m128i mask =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(v, mask);
}

// GF(2^128) multiply of reflected operands (Intel CLMUL white paper,
// "gfmul" with the shift-left-1 + reduction sequence).
inline __m128i GfMulReflected(__m128i a, __m128i b) noexcept {
  __m128i tmp3 = _mm_clmulepi64_si128(a, b, 0x00);
  __m128i tmp4 = _mm_clmulepi64_si128(a, b, 0x10);
  __m128i tmp5 = _mm_clmulepi64_si128(a, b, 0x01);
  __m128i tmp6 = _mm_clmulepi64_si128(a, b, 0x11);

  tmp4 = _mm_xor_si128(tmp4, tmp5);
  tmp5 = _mm_slli_si128(tmp4, 8);
  tmp4 = _mm_srli_si128(tmp4, 8);
  tmp3 = _mm_xor_si128(tmp3, tmp5);
  tmp6 = _mm_xor_si128(tmp6, tmp4);

  __m128i tmp7 = _mm_srli_epi32(tmp3, 31);
  __m128i tmp8 = _mm_srli_epi32(tmp6, 31);
  tmp3 = _mm_slli_epi32(tmp3, 1);
  tmp6 = _mm_slli_epi32(tmp6, 1);

  __m128i tmp9 = _mm_srli_si128(tmp7, 12);
  tmp8 = _mm_slli_si128(tmp8, 4);
  tmp7 = _mm_slli_si128(tmp7, 4);
  tmp3 = _mm_or_si128(tmp3, tmp7);
  tmp6 = _mm_or_si128(tmp6, tmp8);
  tmp6 = _mm_or_si128(tmp6, tmp9);

  tmp7 = _mm_slli_epi32(tmp3, 31);
  tmp8 = _mm_slli_epi32(tmp3, 30);
  tmp9 = _mm_slli_epi32(tmp3, 25);
  tmp7 = _mm_xor_si128(tmp7, tmp8);
  tmp7 = _mm_xor_si128(tmp7, tmp9);
  tmp8 = _mm_srli_si128(tmp7, 4);
  tmp7 = _mm_slli_si128(tmp7, 12);
  tmp3 = _mm_xor_si128(tmp3, tmp7);

  __m128i tmp2 = _mm_srli_epi32(tmp3, 1);
  tmp4 = _mm_srli_epi32(tmp3, 2);
  tmp5 = _mm_srli_epi32(tmp3, 7);
  tmp2 = _mm_xor_si128(tmp2, tmp4);
  tmp2 = _mm_xor_si128(tmp2, tmp5);
  tmp2 = _mm_xor_si128(tmp2, tmp8);
  tmp3 = _mm_xor_si128(tmp3, tmp2);
  return _mm_xor_si128(tmp6, tmp3);
}

} // namespace

void AesNiCtrXor(const std::uint8_t* round_key_bytes, int rounds,
                 const std::uint8_t counter[16], ByteSpan in,
                 MutableByteSpan out) noexcept {
  __m128i rk[15];
  for (int i = 0; i <= rounds; ++i) {
    rk[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_key_bytes + 16 * i));
  }

  std::uint8_t ctr[16];
  __builtin_memcpy(ctr, counter, 16);
  auto bump = [&ctr]() noexcept {
    for (int i = 15; i >= 12; --i) {
      if (++ctr[i] != 0) break;
    }
  };

  std::size_t pos = 0;
  // 4-wide pipeline for the bulk.
  while (pos + 64 <= in.size()) {
    __m128i blocks[4];
    for (auto& b : blocks) {
      b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctr));
      bump();
    }
    for (auto& b : blocks) b = _mm_xor_si128(b, rk[0]);
    for (int r = 1; r < rounds; ++r) {
      for (auto& b : blocks) b = _mm_aesenc_si128(b, rk[r]);
    }
    for (auto& b : blocks) b = _mm_aesenclast_si128(b, rk[rounds]);
    for (int j = 0; j < 4; ++j) {
      const __m128i data = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(in.data() + pos + 16 * j));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + pos + 16 * j),
                       _mm_xor_si128(data, blocks[j]));
    }
    pos += 64;
  }
  // Tail.
  while (pos < in.size()) {
    const __m128i ks = EncryptBlockNi(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctr)), rk, rounds);
    bump();
    std::uint8_t keystream[16];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keystream), ks);
    const std::size_t n = std::min<std::size_t>(16, in.size() - pos);
    for (std::size_t i = 0; i < n; ++i) out[pos + i] = in[pos + i] ^ keystream[i];
    pos += n;
  }
}

void PclmulGhashBlock(std::uint8_t y[16], const std::uint8_t x[16],
                      const std::uint8_t h[16]) noexcept {
  const __m128i yv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(y));
  const __m128i xv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x));
  const __m128i hv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
  const __m128i product = GfMulReflected(Reflect(_mm_xor_si128(yv, xv)),
                                         Reflect(hv));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(y), Reflect(product));
}

#else // !__x86_64__

void AesNiCtrXor(const std::uint8_t*, int, const std::uint8_t*, ByteSpan,
                 MutableByteSpan) noexcept {}
void PclmulGhashBlock(std::uint8_t*, const std::uint8_t*,
                      const std::uint8_t*) noexcept {}

#endif

} // namespace nexus::crypto
