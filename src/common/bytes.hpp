// Byte-buffer aliases and small helpers shared by every NEXUS module.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nexus {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using MutableByteSpan = std::span<std::uint8_t>;

/// An immutable, reference-counted payload. Whoever publishes one never
/// mutates it again, so any number of holders on any thread may read it
/// without a lock; a new value is a new buffer.
using SharedBytes = std::shared_ptr<const Bytes>;

/// Publishes `bytes` as a shared payload by move (no copy of the bytes).
inline SharedBytes Share(Bytes bytes) {
  return std::make_shared<const Bytes>(std::move(bytes));
}

/// View a string's contents as bytes (no copy).
inline ByteSpan AsBytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Copy a byte range into an owning buffer.
inline Bytes ToBytes(ByteSpan s) { return Bytes(s.begin(), s.end()); }

/// Copy a string's contents into an owning byte buffer.
inline Bytes ToBytes(std::string_view s) { return ToBytes(AsBytes(s)); }

/// Interpret bytes as a string (copies).
inline std::string ToString(ByteSpan s) {
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

/// Append `src` to `dst`.
inline void Append(Bytes& dst, ByteSpan src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Concatenate any number of byte ranges.
template <typename... Spans>
Bytes Concat(const Spans&... spans) {
  Bytes out;
  out.reserve((ByteSpan(spans).size() + ...));
  (Append(out, ByteSpan(spans)), ...);
  return out;
}

/// Overwrite a buffer with zeros in a way the optimizer may not elide.
/// Used for key material before release (simulated enclave hygiene).
inline void SecureZero(MutableByteSpan buf) noexcept {
  volatile std::uint8_t* p = buf.data();
  for (std::size_t i = 0; i < buf.size(); ++i) p[i] = 0;
}

/// Fixed-size key/nonce containers.
template <std::size_t N>
using ByteArray = std::array<std::uint8_t, N>;

using Key128 = ByteArray<16>;
using Key256 = ByteArray<32>;

/// Copy the first N bytes of a span into a fixed array. Caller guarantees
/// `s.size() >= N`.
template <std::size_t N>
ByteArray<N> ToArray(ByteSpan s) {
  ByteArray<N> out{};
  std::memcpy(out.data(), s.data(), N);
  return out;
}

} // namespace nexus
