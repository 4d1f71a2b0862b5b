// Hex encoding/decoding for UUID filenames, logging and test vectors.
#pragma once

#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace nexus {

/// Lowercase hex encoding ("deadbeef").
std::string HexEncode(ByteSpan data);

/// Appends the lowercase hex encoding of `data` to `out`, so a caller that
/// reserved the full size builds a name in one allocation.
void HexAppend(ByteSpan data, std::string& out);

/// Decode a hex string; rejects odd lengths and non-hex characters.
Result<Bytes> HexDecode(std::string_view hex);

} // namespace nexus
