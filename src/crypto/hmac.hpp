// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// Used for the SGX simulator's key-derivation tree (fuse key -> sealing keys)
// and for the HMAC-DRBG random generator.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace nexus::crypto {

/// One-shot HMAC-SHA256.
ByteArray<32> HmacSha256(ByteSpan key, ByteSpan message) noexcept;

/// Incremental HMAC-SHA256 for multi-part messages. A stream that has
/// seen no Update is the key's keyed state: the SHA-256 midstates after
/// the ipad and opad blocks. Copy it to start another MAC under the same
/// key without hashing either key block again.
class HmacSha256Stream {
 public:
  explicit HmacSha256Stream(ByteSpan key) noexcept;
  void Update(ByteSpan data) noexcept { inner_.Update(data); }
  [[nodiscard]] ByteArray<32> Finish() noexcept;

 private:
  Sha256 inner_; // after key ^ ipad
  Sha256 outer_; // after key ^ opad
};

/// HKDF-Extract: PRK = HMAC(salt, ikm).
ByteArray<32> HkdfExtract(ByteSpan salt, ByteSpan ikm) noexcept;

/// HKDF-Expand: derive `length` (<= 255*32) bytes from PRK and info.
Bytes HkdfExpand(ByteSpan prk, ByteSpan info, std::size_t length);

/// Extract-then-expand convenience.
Bytes Hkdf(ByteSpan salt, ByteSpan ikm, ByteSpan info, std::size_t length);

} // namespace nexus::crypto
