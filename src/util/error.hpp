// Error handling primitives for bwshare.
//
// The library throws `bwshare::Error` for user-facing failures (bad scheme
// files, inconsistent cluster definitions, ...) and uses BWS_ASSERT for
// internal invariants that indicate a programming error. A user-facing
// error's what() is exactly its message, so the text users and scripts see
// does not move with edits to the code around the check; an invariant
// failure names the file and line of the broken invariant.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace bwshare {

/// Exception type thrown by all bwshare components.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void throw_error(const std::string& message);
[[noreturn]] void assert_fail(std::string_view file, int line,
                              std::string_view condition,
                              const std::string& message);
}  // namespace detail

}  // namespace bwshare

/// Throw a bwshare::Error whose what() is `msg`.
#define BWS_THROW(msg) ::bwshare::detail::throw_error((msg))

/// Validate a user-facing precondition; throws bwshare::Error(msg) on
/// failure.
#define BWS_CHECK(cond, msg)                            \
  do {                                                  \
    if (!(cond)) ::bwshare::detail::throw_error((msg)); \
  } while (false)

/// Internal invariant; indicates a bug in bwshare itself when it fires.
#define BWS_ASSERT(cond, msg)                                             \
  do {                                                                    \
    if (!(cond))                                                          \
      ::bwshare::detail::assert_fail(__FILE__, __LINE__, #cond, (msg));   \
  } while (false)
