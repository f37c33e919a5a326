// Exact parsing of numeric command-line values, shared by mtperf and
// mtperf_serve: a value is accepted only if all of it is a T.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mtperf::tools {

/// Parse all of `text` as a T into `out`.  std::from_chars rejects a sign
/// on unsigned types and values outside T's range; trailing characters
/// ("20x", "2.9" for an integer) and non-finite doubles ("inf", "nan") are
/// rejected too.
template <typename T>
bool parse_exact(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

/// What parse_exact<T> accepts, for an error message.
template <typename T>
std::string expected_number() {
  if constexpr (std::is_integral_v<T>) {
    return "an integer in [" + std::to_string(std::numeric_limits<T>::min()) +
           ", " + std::to_string(std::numeric_limits<T>::max()) + "]";
  } else {
    return "a finite number";
  }
}

}  // namespace mtperf::tools
