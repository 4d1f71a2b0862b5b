#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/aesni.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace nexus::crypto {
namespace {

inline std::uint32_t Rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

// The portable reference: one block of FIPS 180-4 rounds.
void CompressScalar(std::uint32_t state[8], const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
    const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

bool CpuidSupportsShaNi() noexcept {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & bit_SHA) != 0;
  return sha && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
#else
  return false;
#endif
}

} // namespace

void Sha256::Reset() noexcept {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

bool ShaNiSelfTest() noexcept {
  if (!CpuidSupportsShaNi()) return false;
  // Three blocks in one call, so the kernel's state carry between blocks
  // is checked too, from a state that is not the IV. The reference is the
  // portable rounds called directly: Sha256::Compress consults the
  // HasShaHardware() static this self-test initializes.
  std::uint8_t blocks[3 * Sha256::kBlockSize];
  for (std::size_t i = 0; i < sizeof(blocks); ++i) {
    blocks[i] = static_cast<std::uint8_t>(i * 11 + 3);
  }
  std::uint32_t want[8];
  std::uint32_t got[8];
  for (std::uint32_t i = 0; i < 8; ++i) {
    want[i] = got[i] = 0x9e3779b9u * (i + 1);
  }
  for (std::size_t b = 0; b < 3; ++b) {
    CompressScalar(want, blocks + b * Sha256::kBlockSize);
  }
  ShaNiCompress(got, blocks, 3);
  return std::memcmp(got, want, sizeof(want)) == 0;
}

void Sha256::Compress(const std::uint8_t* blocks, std::size_t n) noexcept {
  if (HasShaHardware()) {
    ShaNiCompress(state_, blocks, n);
    return;
  }
  for (; n > 0; --n, blocks += kBlockSize) CompressScalar(state_, blocks);
}

void Sha256::Update(ByteSpan data) noexcept {
  if (data.empty()) return; // also avoids memcpy(_, nullptr, 0) UB
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(data.size(), kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      Compress(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / kBlockSize;
  if (blocks > 0) {
    Compress(data.data() + offset, blocks);
    offset += blocks * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

ByteArray<Sha256::kDigestSize> Sha256::Finish() noexcept {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length in the
  // last 8 bytes of a block; a tail too long for the length spills into
  // a second block.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    Compress(buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(buffer_, 1);

  ByteArray<kDigestSize> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

ByteArray<Sha256::kDigestSize> Sha256::Hash(ByteSpan data) noexcept {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

} // namespace nexus::crypto
