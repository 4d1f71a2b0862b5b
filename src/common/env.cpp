#include "common/env.hpp"

#include <charconv>
#include <cstdlib>

namespace nexus {

std::optional<std::uint64_t> ParseUnsigned(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  // from_chars takes no sign, whitespace or base prefix; requiring it to
  // consume everything rejects suffixes and the empty string.
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, 10);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::uint64_t EnvUnsigned(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  return ParseUnsigned(raw).value_or(fallback);
}

} // namespace nexus
