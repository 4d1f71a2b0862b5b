// Compiled with -msha -msse4.1 -mssse3 (see CMakeLists); callers must gate
// on HasShaHardware().
#include "crypto/aesni.hpp"
#include "crypto/sha256.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nexus::crypto {

#if defined(__x86_64__)

// The SHA extensions keep the working variables as two lanes, ABEF and
// CDGH; each sha256rnds2 runs two rounds, so a 4-word group of the
// message schedule feeds one pair of them. sha256msg1/msg2 extend the
// schedule four words at a time, three groups ahead of the rounds.
void ShaNiCompress(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t n) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* k = reinterpret_cast<const __m128i*>(kSha256RoundConstants);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);                  // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);            // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);    // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);         // CDGH

  for (; n > 0; --n, blocks += Sha256::kBlockSize) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      __m128i& prev = w[(g + 3) & 3];
      __m128i& next = w[(g + 1) & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            byte_swap);
      }
      __m128i msg = _mm_add_epi32(cur, _mm_load_si128(k + g));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g < 15) {
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0e);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g < 13) prev = _mm_sha256msg1_epu32(prev, cur);
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1b);               // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);            // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);         // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);            // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#else // !__x86_64__

void ShaNiCompress(std::uint32_t*, const std::uint8_t*, std::size_t) noexcept {}

#endif

} // namespace nexus::crypto
