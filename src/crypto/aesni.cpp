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

  // Every reference below is built from the portable pieces directly:
  // Aes::CreatePortable, Aes::EncryptBlock and a forced-portable Ghash,
  // NOT Aes::Create, AesCtrXor or GcmSeal, whose dispatch consults the
  // HasAesHardware() static this self-test initializes (force_portable
  // short-circuits Ghash's check).
  static constexpr std::uint8_t kKey[32] = {
      0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
      0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe,
      0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77, 0x81};
  auto aes = Aes::CreatePortable(ByteSpan(kKey, 16));
  if (!aes.ok()) return false;

  // The AES-NI key schedule, AES-128 and AES-256, byte for byte.
  for (const std::size_t key_size : {std::size_t{16}, std::size_t{32}}) {
    auto portable = Aes::CreatePortable(ByteSpan(kKey, key_size));
    if (!portable.ok()) return false;
    std::uint8_t round_keys[240] = {};
    AesNiExpandKey(ByteSpan(kKey, key_size), round_keys);
    if (std::memcmp(round_keys, portable->round_key_bytes(),
                    16 * (portable->rounds() + 1)) != 0) {
      return false;
    }
  }

  // T-table CTR: the keystream reference.
  auto portable_ctr = [&aes](const std::uint8_t counter[16], ByteSpan in,
                             std::uint8_t* out) {
    std::uint8_t ctr[16];
    std::memcpy(ctr, counter, 16);
    for (std::size_t pos = 0; pos < in.size(); pos += 16) {
      std::uint8_t keystream[16];
      aes->EncryptBlock(ctr, keystream);
      for (int i = 15; i >= 12; --i) {
        if (++ctr[i] != 0) break;
      }
      for (std::size_t i = 0; i < 16 && pos + i < in.size(); ++i) {
        out[pos + i] = in[pos + i] ^ keystream[i];
      }
    }
  };

  // CTR keystream: 100 bytes, so a 4-block group, two whole tail blocks
  // and a partial one all run, with the counter placed just below a
  // multi-byte carry so the inc32 step is verified too.
  static constexpr std::size_t kLen = 100;
  const std::uint8_t counter[16] = {0xca, 0xfe, 0xba, 0xbe, 0xfa, 0xce,
                                    0xdb, 0xad, 0xde, 0xca, 0xf8, 0x88,
                                    0x00, 0x00, 0xff, 0xfd};
  std::uint8_t input[9 * 16]; // the GHASH check below takes all 9 blocks
  for (std::size_t i = 0; i < sizeof(input); ++i) {
    input[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  std::uint8_t got[kLen];
  std::uint8_t want[kLen];
  AesNiCtrXor(*aes, counter, ByteSpan(input, kLen), MutableByteSpan(got, kLen));
  portable_ctr(counter, ByteSpan(input, kLen), want);
  if (std::memcmp(got, want, kLen) != 0) return false;

  // ECB blocks: a 4-block batch and a single-block tail.
  AesNiEncryptBlocks(*aes, input, got, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    aes->EncryptBlock(input + 16 * i, want + 16 * i);
  }
  if (std::memcmp(got, want, 5 * 16) != 0) return false;

  // GHASH over 9 blocks: two aggregated groups and a single-block tail.
  std::uint8_t h[16];
  for (std::size_t i = 0; i < 16; ++i) {
    h[i] = static_cast<std::uint8_t>(0xa3 ^ (i * 29));
  }
  Ghash reference(h, /*force_portable=*/true);
  reference.Update(ByteSpan(input, sizeof(input)));
  std::uint8_t powers[64];
  PclmulGhashInit(h, powers);
  std::uint8_t y[16] = {};
  PclmulGhashBlocks(y, powers, input, 9);
  if (std::memcmp(y, reference.State().data(), 16) != 0) return false;

  // One seal through the bulk kernel: the 100-byte message under 20 bytes
  // of AAD, against T-table CTR from J0 + 1, the portable GHASH and
  // E_K(J0).
  const std::uint8_t* iv = counter; // any 12 bytes
  const ByteSpan aad(input + 40, 20);
  std::uint8_t tag[16];
  AesNiGcm(*aes, iv, aad, ByteSpan(input, kLen), MutableByteSpan(got, kLen),
           /*encrypt=*/true, tag);
  std::uint8_t j0[16] = {};
  std::memcpy(j0, iv, 12);
  j0[15] = 2;
  portable_ctr(j0, ByteSpan(input, kLen), want);
  std::uint8_t hk[16] = {};
  aes->EncryptBlock(hk, hk);
  Ghash ghash(hk, /*force_portable=*/true);
  ghash.Update(aad);
  ghash.FlushBlock();
  ghash.Update(ByteSpan(want, kLen));
  std::uint8_t want_tag[16];
  ghash.FinishLengths(aad.size(), kLen, want_tag);
  j0[15] = 1;
  std::uint8_t ekj0[16];
  aes->EncryptBlock(j0, ekj0);
  for (int i = 0; i < 16; ++i) want_tag[i] ^= ekj0[i];
  return std::memcmp(got, want, kLen) == 0 &&
         std::memcmp(tag, want_tag, 16) == 0;
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

// Byte reversal of a 128-bit lane. GHASH operands are byte-reflected for
// CLMUL (Intel white paper layout), and a reversed counter block holds
// GCM's 32-bit big-endian counter in its lowest lane, where one SIMD add
// performs inc32.
inline __m128i Reverse(__m128i v) noexcept {
  const __m128i mask =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(v, mask);
}

inline __m128i Load(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void Store(std::uint8_t* p, __m128i v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

struct RoundKeys {
  explicit RoundKeys(const Aes& aes) noexcept : rounds(aes.rounds()) {
    for (int i = 0; i <= rounds; ++i) {
      k[i] = Load(aes.round_key_bytes() + 16 * i);
    }
  }
  __m128i k[15];
  int rounds;
};

// One schedule step (Intel AES-NI white paper): each word of the new
// round key is the XOR of the previous key's words up to it and the
// schedule word `assist`, broadcast to every lane.
inline __m128i FoldRoundKey(__m128i key, __m128i assist) noexcept {
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

// SubWord(RotWord(w3)) ^ Rcon of `key`'s last word w3, in every lane. A
// byte shuffle (PSHUFB) broadcasts RotWord(w3); AESENCLAST then applies
// SubBytes (its ShiftRows moves nothing, the four columns being equal)
// and XORs the constant into each lane. On a 4-vCPU Intel Xeon this
// schedule takes about 48 ns per AES-128 key and 71 ns per AES-256 key,
// against about 80 and 100 ns with AESKEYGENASSIST (single-thread loop
// of 10^6 keys).
inline __m128i RotSubWord(__m128i key, int rcon) noexcept {
  const __m128i rot_splat = _mm_set1_epi32(0x0c0f0e0d);
  return _mm_aesenclast_si128(_mm_shuffle_epi8(key, rot_splat),
                              _mm_set1_epi32(rcon));
}

// SubWord(w3) of `key`'s last word, unrotated and without a constant.
inline __m128i SubWord(__m128i key) noexcept {
  return _mm_aesenclast_si128(_mm_shuffle_epi32(key, 0xff),
                              _mm_setzero_si128());
}

inline __m128i Aes128Step(__m128i key, int rcon) noexcept {
  return FoldRoundKey(key, RotSubWord(key, rcon));
}

// AES-256 produces two round keys per constant: the even one from the
// RotWord/SubWord/Rcon word of `odd`, the odd one from the plain SubWord
// of the new even key.
inline void Aes256Step(__m128i& even, __m128i& odd, int rcon,
                       __m128i* out) noexcept {
  even = FoldRoundKey(even, RotSubWord(odd, rcon));
  out[0] = even;
  odd = FoldRoundKey(odd, SubWord(even));
  out[1] = odd;
}

// Encrypts N independent blocks, round by round, so the AES unit
// pipelines them.
template <std::size_t N>
inline void EncryptBlocks(__m128i (&b)[N], const RoundKeys& rk) noexcept {
  for (auto& x : b) x = _mm_xor_si128(x, rk.k[0]);
  for (int r = 1; r < rk.rounds; ++r) {
    for (auto& x : b) x = _mm_aesenc_si128(x, rk.k[r]);
  }
  for (auto& x : b) x = _mm_aesenclast_si128(x, rk.k[rk.rounds]);
}

// Accumulates the 256-bit carry-less product a * b as its low, middle
// (cross terms) and high 128-bit parts. Products summed this way share
// one reduction, because the reduction is linear.
inline void ClMulAdd(__m128i a, __m128i b, __m128i& lo, __m128i& mid,
                     __m128i& hi) noexcept {
  lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(a, b, 0x00));
  mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(a, b, 0x10));
  mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(a, b, 0x01));
  hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(a, b, 0x11));
}

// Reduces an accumulated product of reflected operands to the reflected
// field element (Intel CLMUL white paper, "gfmul": shift left by one,
// then the two-phase reduction modulo x^128 + x^7 + x^2 + x + 1).
inline __m128i Reduce(__m128i lo, __m128i mid, __m128i hi) noexcept {
  __m128i tmp3 = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  __m128i tmp6 = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));

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
  __m128i tmp4 = _mm_srli_epi32(tmp3, 2);
  __m128i tmp5 = _mm_srli_epi32(tmp3, 7);
  tmp2 = _mm_xor_si128(tmp2, tmp4);
  tmp2 = _mm_xor_si128(tmp2, tmp5);
  tmp2 = _mm_xor_si128(tmp2, tmp8);
  tmp3 = _mm_xor_si128(tmp3, tmp2);
  return _mm_xor_si128(tmp6, tmp3);
}

// GF(2^128) multiply of reflected operands.
inline __m128i GfMul(__m128i a, __m128i b) noexcept {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
  ClMulAdd(a, b, lo, mid, hi);
  return Reduce(lo, mid, hi);
}

// h[i] = H^(i+1), reflected.
inline void GhashPowers(__m128i h1, __m128i h[4]) noexcept {
  h[0] = h1;
  for (int i = 1; i < 4; ++i) h[i] = GfMul(h[i - 1], h1);
}

// Absorbs `n` whole blocks into the reflected accumulator `y`, k <= 4
// blocks per reduction: y' = (y ^ x1) H^k ^ x2 H^(k-1) ^ ... ^ xk H,
// which equals k sequential GHASH steps.
inline __m128i GhashBlocks(__m128i y, const __m128i h[4],
                           const std::uint8_t* p, std::size_t n) noexcept {
  while (n > 0) {
    const std::size_t k = n < 4 ? n : 4;
    __m128i lo = _mm_setzero_si128();
    __m128i mid = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
    ClMulAdd(_mm_xor_si128(y, Reverse(Load(p))), h[k - 1], lo, mid, hi);
    for (std::size_t j = 1; j < k; ++j) {
      ClMulAdd(Reverse(Load(p + 16 * j)), h[k - 1 - j], lo, mid, hi);
    }
    y = Reduce(lo, mid, hi);
    p += 16 * k;
    n -= k;
  }
  return y;
}

// One GCM section: its whole blocks, then its tail zero-padded.
inline __m128i GhashPadded(__m128i y, const __m128i h[4],
                           ByteSpan data) noexcept {
  const std::size_t whole = data.size() / 16;
  y = GhashBlocks(y, h, data.data(), whole);
  if (const std::size_t rest = data.size() % 16; rest > 0) {
    std::uint8_t block[16] = {};
    std::memcpy(block, data.data() + 16 * whole, rest);
    y = GhashBlocks(y, h, block, 1);
  }
  return y;
}

// CTR from the reversed counter `ctr` over `in` into `out`, four blocks
// per AES batch. With `h` set, it also absorbs the ciphertext side (`out`
// when `encrypt`, else `in`, the last partial block zero-padded) into the
// reflected accumulator `y` and returns it. The GHASH of one group does
// not depend on the AES rounds of the group beside it (a seal hashes the
// group it finished one step earlier), so the core overlaps the CLMUL and
// AES work.
__m128i CtrPass(const RoundKeys& rk, __m128i ctr, ByteSpan in,
                MutableByteSpan out, const __m128i* h, bool encrypt,
                __m128i y) noexcept {
  const __m128i one = _mm_set_epi32(0, 0, 0, 1);
  const std::uint8_t* src = in.data();
  std::uint8_t* dst = out.data();
  const std::size_t n = in.size();
  auto next_counters = [&ctr, one](__m128i (&b)[4]) noexcept {
    for (auto& x : b) {
      x = Reverse(ctr);
      ctr = _mm_add_epi32(ctr, one);
    }
  };

  std::size_t pos = 0;
  const std::uint8_t* sealed = nullptr; // seal: the last group written
  for (; pos + 64 <= n; pos += 64) {
    __m128i b[4];
    next_counters(b);
    EncryptBlocks(b, rk);
    const std::uint8_t* hash = encrypt ? sealed : src + pos;
    if (h != nullptr && hash != nullptr) y = GhashBlocks(y, h, hash, 4);
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t at = pos + 16 * j;
      Store(dst + at, _mm_xor_si128(Load(src + at), b[j]));
    }
    if (encrypt) sealed = dst + pos;
  }
  if (h != nullptr && sealed != nullptr) y = GhashBlocks(y, h, sealed, 4);

  if (const std::size_t rest = n % 64; rest > 0) { // pos == n - rest
    const std::size_t blocks = (rest + 15) / 16;
    std::uint8_t buf[64] = {};
    std::memcpy(buf, src + pos, rest);
    if (h != nullptr && !encrypt) y = GhashBlocks(y, h, buf, blocks);
    __m128i b[4];
    next_counters(b);
    EncryptBlocks(b, rk);
    for (std::size_t j = 0; j < blocks; ++j) {
      Store(buf + 16 * j, _mm_xor_si128(Load(buf + 16 * j), b[j]));
    }
    std::memcpy(dst + pos, buf, rest);
    if (h != nullptr && encrypt) {
      std::memset(buf + rest, 0, sizeof(buf) - rest);
      y = GhashBlocks(y, h, buf, blocks);
    }
  }
  return y;
}

} // namespace

void AesNiExpandKey(ByteSpan key, std::uint8_t round_keys[240]) noexcept {
  __m128i k[15];
  k[0] = Load(key.data());
  int rounds = 10;
  if (key.size() == 16) {
    k[1] = Aes128Step(k[0], 0x01);
    k[2] = Aes128Step(k[1], 0x02);
    k[3] = Aes128Step(k[2], 0x04);
    k[4] = Aes128Step(k[3], 0x08);
    k[5] = Aes128Step(k[4], 0x10);
    k[6] = Aes128Step(k[5], 0x20);
    k[7] = Aes128Step(k[6], 0x40);
    k[8] = Aes128Step(k[7], 0x80);
    k[9] = Aes128Step(k[8], 0x1b);
    k[10] = Aes128Step(k[9], 0x36);
  } else {
    rounds = 14;
    __m128i even = k[0];
    __m128i odd = Load(key.data() + 16);
    k[1] = odd;
    Aes256Step(even, odd, 0x01, k + 2);
    Aes256Step(even, odd, 0x02, k + 4);
    Aes256Step(even, odd, 0x04, k + 6);
    Aes256Step(even, odd, 0x08, k + 8);
    Aes256Step(even, odd, 0x10, k + 10);
    Aes256Step(even, odd, 0x20, k + 12);
    // The last constant yields only the even key (15 round keys).
    k[14] = FoldRoundKey(even, RotSubWord(odd, 0x40));
  }
  for (int i = 0; i <= rounds; ++i) Store(round_keys + 16 * i, k[i]);
}

void AesNiEncryptBlocks(const Aes& aes, const std::uint8_t* in,
                        std::uint8_t* out, std::size_t n) noexcept {
  const RoundKeys rk(aes);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i b[4];
    for (std::size_t j = 0; j < 4; ++j) b[j] = Load(in + 16 * (i + j));
    EncryptBlocks(b, rk);
    for (std::size_t j = 0; j < 4; ++j) Store(out + 16 * (i + j), b[j]);
  }
  for (; i < n; ++i) {
    __m128i b[1] = {Load(in + 16 * i)};
    EncryptBlocks(b, rk);
    Store(out + 16 * i, b[0]);
  }
}

void AesNiCtrXor(const Aes& aes, const std::uint8_t counter[16], ByteSpan in,
                 MutableByteSpan out) noexcept {
  CtrPass(RoundKeys(aes), Reverse(Load(counter)), in, out, nullptr, false,
          _mm_setzero_si128());
}

void AesNiGcm(const Aes& aes, const std::uint8_t iv[12], ByteSpan aad,
              ByteSpan in, MutableByteSpan out, bool encrypt,
              std::uint8_t tag[16]) noexcept {
  const RoundKeys rk(aes);
  // H = E_K(0^128) and E_K(J0), J0 = IV || 0^31 || 1, in one batch.
  std::uint8_t j0[16] = {};
  std::memcpy(j0, iv, 12);
  j0[15] = 1;
  __m128i first[2] = {_mm_setzero_si128(), Load(j0)};
  EncryptBlocks(first, rk);
  __m128i h[4];
  GhashPowers(Reverse(first[0]), h);

  __m128i y = GhashPadded(_mm_setzero_si128(), h, aad);
  const __m128i ctr =
      _mm_add_epi32(Reverse(Load(j0)), _mm_set_epi32(0, 0, 0, 1));
  y = CtrPass(rk, ctr, in, out, h, encrypt, y);
  // [len(aad)]64 || [len(ct)]64 in bits, reversed.
  const __m128i lengths =
      _mm_set_epi64x(static_cast<long long>(aad.size() * 8),
                     static_cast<long long>(in.size() * 8));
  y = GfMul(_mm_xor_si128(y, lengths), h[0]);
  Store(tag, _mm_xor_si128(Reverse(y), first[1]));
}

void PclmulGhashInit(const std::uint8_t h[16],
                     std::uint8_t powers[64]) noexcept {
  __m128i p[4];
  GhashPowers(Reverse(Load(h)), p);
  for (int i = 0; i < 4; ++i) Store(powers + 16 * i, p[i]);
}

void PclmulGhashBlocks(std::uint8_t y[16], const std::uint8_t powers[64],
                       const std::uint8_t* blocks, std::size_t n) noexcept {
  __m128i h[4];
  for (int i = 0; i < 4; ++i) h[i] = Load(powers + 16 * i);
  Store(y, Reverse(GhashBlocks(Reverse(Load(y)), h, blocks, n)));
}

#else // !__x86_64__

void AesNiExpandKey(ByteSpan, std::uint8_t*) noexcept {}
void AesNiEncryptBlocks(const Aes&, const std::uint8_t*, std::uint8_t*,
                        std::size_t) noexcept {}
void AesNiCtrXor(const Aes&, const std::uint8_t*, ByteSpan,
                 MutableByteSpan) noexcept {}
void AesNiGcm(const Aes&, const std::uint8_t*, ByteSpan, ByteSpan,
              MutableByteSpan, bool, std::uint8_t*) noexcept {}
void PclmulGhashInit(const std::uint8_t*, std::uint8_t*) noexcept {}
void PclmulGhashBlocks(std::uint8_t*, const std::uint8_t*,
                       const std::uint8_t*, std::size_t) noexcept {}

#endif

} // namespace nexus::crypto
