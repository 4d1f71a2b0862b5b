// Numeric environment overrides (NEXUS_RPC_WINDOW, NEXUS_REPLICATION,
// NEXUS_CRYPTO_WORKERS). One parser for all of them, so "64MiB", "2x",
// "-1" and "" fall back to the caller's default instead of being read as
// 64, 2, 2^64-1 or 0. Range checks stay with the callers.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace nexus {

/// The value of `text` when it is a complete unsigned decimal number that
/// fits in 64 bits: digits only, no sign, whitespace or suffix.
[[nodiscard]] std::optional<std::uint64_t> ParseUnsigned(
    std::string_view text);

/// ParseUnsigned of environment variable `name`; `fallback` when it is
/// unset or not a complete unsigned decimal number.
[[nodiscard]] std::uint64_t EnvUnsigned(const char* name,
                                        std::uint64_t fallback);

} // namespace nexus
