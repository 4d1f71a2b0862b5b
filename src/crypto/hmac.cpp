#include "crypto/hmac.hpp"

#include <cassert>
#include <cstring>

namespace nexus::crypto {
namespace {

// Normalizes the key to one hash block: hash if longer, zero-pad if shorter.
ByteArray<64> NormalizeKey(ByteSpan key) noexcept {
  ByteArray<64> block{};
  if (key.size() > 64) {
    const auto digest = Sha256::Hash(key);
    std::memcpy(block.data(), digest.data(), digest.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }
  return block;
}

} // namespace

HmacSha256Stream::HmacSha256Stream(ByteSpan key) noexcept {
  const ByteArray<64> k = NormalizeKey(key);
  ByteArray<64> ipad;
  ByteArray<64> opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(ipad);
  outer_.Update(opad);
}

ByteArray<32> HmacSha256Stream::Finish() noexcept {
  outer_.Update(inner_.Finish());
  return outer_.Finish();
}

ByteArray<32> HmacSha256(ByteSpan key, ByteSpan message) noexcept {
  HmacSha256Stream mac(key);
  mac.Update(message);
  return mac.Finish();
}

ByteArray<32> HkdfExtract(ByteSpan salt, ByteSpan ikm) noexcept {
  static constexpr ByteArray<32> kZeroSalt{};
  return HmacSha256(salt.empty() ? ByteSpan(kZeroSalt) : salt, ikm);
}

Bytes HkdfExpand(ByteSpan prk, ByteSpan info, std::size_t length) {
  assert(length <= 255 * 32 && "HKDF-Expand length limit");
  Bytes out;
  out.reserve(length);
  ByteArray<32> t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  while (out.size() < length) {
    HmacSha256Stream mac(prk);
    mac.Update(ByteSpan(t.data(), t_len));
    mac.Update(info);
    mac.Update(ByteSpan(&counter, 1));
    t = mac.Finish();
    t_len = t.size();
    const std::size_t take = std::min(t_len, length - out.size());
    Append(out, ByteSpan(t.data(), take));
    ++counter;
  }
  return out;
}

Bytes Hkdf(ByteSpan salt, ByteSpan ikm, ByteSpan info, std::size_t length) {
  const auto prk = HkdfExtract(salt, ikm);
  return HkdfExpand(prk, info, length);
}

} // namespace nexus::crypto
