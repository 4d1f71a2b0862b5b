#include "common/hex.hpp"

namespace nexus {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

} // namespace

std::string HexEncode(ByteSpan data) {
  std::string out;
  out.reserve(data.size() * 2);
  HexAppend(data, out);
  return out;
}

void HexAppend(ByteSpan data, std::string& out) {
  const std::size_t at = out.size();
  out.resize(at + 2 * data.size());
  char* p = out.data() + at;
  for (std::uint8_t b : data) {
    *p++ = kHexDigits[b >> 4];
    *p++ = kHexDigits[b & 0x0f];
  }
}

Result<Bytes> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Error(ErrorCode::kInvalidArgument, "hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = HexValue(hex[i]);
    const int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Error(ErrorCode::kInvalidArgument, "invalid hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

} // namespace nexus
