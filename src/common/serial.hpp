// Bounds-checked binary serialization.
//
// All NEXUS metadata objects (supernode/dirnode/filenode) are serialized with
// these helpers before encryption. The format is little-endian,
// length-prefixed, and deliberately simple: the *decoder runs inside the
// enclave on attacker-controlled bytes*, so every read is bounds-checked and
// every length is validated before allocation.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/uuid.hpp"

namespace nexus {

/// Appends primitives to a growing byte buffer.
class Writer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  /// IEEE-754 double as its little-endian bit pattern (round-trips exactly).
  void F64(double v);

  /// Raw bytes, no length prefix (fixed-size fields: keys, tags, UUIDs).
  void Raw(ByteSpan data) { Append(buf_, data); }

  /// u32 length prefix + bytes.
  void Var(ByteSpan data);
  void Str(std::string_view s) { Var(AsBytes(s)); }
  void Id(const Uuid& u) { Raw(u.span()); }

  /// Grows capacity to `total` bytes, so a frame whose size is known up
  /// front is written without regrowing (and recopying) its buffer.
  void Reserve(std::size_t total) { buf_.reserve(total); }

  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }
  [[nodiscard]] Bytes Take() && noexcept { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Consumes primitives from a byte span; every accessor is bounds-checked.
class Reader {
 public:
  explicit Reader(ByteSpan data) noexcept : data_(data) {}

  Result<std::uint8_t> U8();
  Result<std::uint16_t> U16();
  Result<std::uint32_t> U32();
  Result<std::uint64_t> U64();
  Result<double> F64();

  /// Read exactly n raw bytes.
  Result<Bytes> Raw(std::size_t n);

  /// Read a u32 length prefix, then that many bytes. `max_len` bounds the
  /// allocation so a corrupt length cannot OOM the enclave.
  Result<Bytes> Var(std::size_t max_len = 1 << 26);
  Result<std::string> Str(std::size_t max_len = 1 << 16);
  Result<Uuid> Id();

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t Remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// True once the whole input was consumed; decoders should end with this.
  [[nodiscard]] bool AtEnd() const noexcept { return Remaining() == 0; }

 private:
  Result<ByteSpan> Take(std::size_t n);

  ByteSpan data_;
  std::size_t pos_ = 0;
};

} // namespace nexus
