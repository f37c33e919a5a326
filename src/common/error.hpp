// Error handling primitives shared by all mtperf modules.
//
// Every exception the library throws derives from mtperf::Error, and every
// message carries the stable "mtperf: " prefix — callers (CLI, serve tool,
// tests) can match on the prefix and on the category that follows it
// without depending on solver-specific wording.  The MTPERF_REQUIRE macro
// gives call sites a one-line way to validate inputs; the failure message
// is the call site's own text, the same on every build.
#pragma once

#include <stdexcept>
#include <string>

namespace mtperf {

/// Root of the library's exception hierarchy.  The what() string of every
/// Error (and subclass) starts with the stable prefix "mtperf: ".
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message)
      : std::runtime_error(with_prefix(message)) {}

  /// The prefix every library error message starts with.
  static const char* prefix() noexcept { return "mtperf: "; }

 private:
  static std::string with_prefix(const std::string& message) {
    if (message.rfind(prefix(), 0) == 0) return message;
    return prefix() + message;
  }
};

/// Thrown when a caller violates a documented API precondition (invalid
/// inputs: zero stations, non-monotone knots, max_population == 0, ...).
class invalid_argument_error : public Error {
 public:
  using Error::Error;
};

/// Thrown when an algorithm fails to make progress (non-convergence,
/// singular systems, and similar numeric failures).
class numeric_error : public Error {
 public:
  using Error::Error;
};

namespace detail {

/// MTPERF_REQUIRE's failure path, kept out of line so call sites stay a
/// compare and a cold call.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_requirement_failure(
    const std::string& msg) {
  throw invalid_argument_error(msg);
}

}  // namespace detail
}  // namespace mtperf

/// Validate an API precondition; throws mtperf::invalid_argument_error
/// with the caller-provided message, which names what went wrong.
#define MTPERF_REQUIRE(expr, msg)                                  \
  do {                                                             \
    if (!(expr)) ::mtperf::detail::throw_requirement_failure((msg)); \
  } while (false)
