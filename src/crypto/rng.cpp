#include "crypto/rng.hpp"

#include <cstring>
#include <random>

namespace nexus::crypto {

std::uint64_t Rng::Below(std::uint64_t bound) noexcept {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = bound * (UINT64_MAX / bound);
  for (;;) {
    ByteArray<8> raw = Array<8>();
    std::uint64_t v;
    std::memcpy(&v, raw.data(), 8);
    if (v < limit || limit == 0) return v % bound;
  }
}

HmacDrbg::HmacDrbg(ByteSpan seed) noexcept {
  // K = 0x00..00 (the member's initializer), V = 0x01..01.
  value_.fill(0x01);
  Update(seed);
}

ByteArray<32> HmacDrbg::MacOfValue() const noexcept {
  HmacSha256Stream mac = key_;
  mac.Update(value_);
  return mac.Finish();
}

void HmacDrbg::Update(ByteSpan provided) noexcept {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V), then again with
  // 0x01 when `provided` is non-empty.
  for (const std::uint8_t round : {std::uint8_t{0x00}, std::uint8_t{0x01}}) {
    if (round == 0x01 && provided.empty()) break;
    HmacSha256Stream mac = key_;
    mac.Update(value_);
    mac.Update(ByteSpan(&round, 1));
    mac.Update(provided);
    key_ = HmacSha256Stream(mac.Finish());
    value_ = MacOfValue();
  }
}

void HmacDrbg::Fill(MutableByteSpan out) noexcept {
  std::size_t pos = 0;
  while (pos < out.size()) {
    value_ = MacOfValue();
    const std::size_t n = std::min(value_.size(), out.size() - pos);
    std::memcpy(out.data() + pos, value_.data(), n);
    pos += n;
  }
  Update({});
}

void HmacDrbg::Reseed(ByteSpan seed) noexcept { Update(seed); }

Rng& SystemRng() {
  static HmacDrbg* rng = [] {
    std::random_device rd;
    ByteArray<48> seed;
    for (std::size_t i = 0; i < seed.size(); i += 4) {
      const std::uint32_t v = rd();
      std::memcpy(seed.data() + i, &v, std::min<std::size_t>(4, seed.size() - i));
    }
    return new HmacDrbg(seed);
  }();
  return *rng;
}

} // namespace nexus::crypto
