// Strict command-line reading, shared by the `icc` driver and `icc_inspect`.
//
// A flag's value must be present, and a number must be consumed entirely
// and lie in its range; otherwise the first error is kept, naming the flag,
// and the caller exits 2 with it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace icc::support {

/// All of `text` as a base-10 integer in [lo, hi]; nullopt for an empty
/// string, a leading '+' or space, any trailing byte, or a value out of
/// range.
std::optional<int64_t> parse_int(std::string_view text, int64_t lo, int64_t hi);

/// Cursor over argv[first, argc). Errors are sticky: the first one is kept,
/// done() turns true, and later reads return empty values.
class Args {
 public:
  Args(int argc, const char* const* argv, int first = 1)
      : argc_(argc), argv_(argv), i_(first) {}

  bool done() const { return i_ >= argc_ || !error_.empty(); }
  /// The next argument; call only when !done().
  std::string_view next() { return argv_[i_++]; }
  /// The argument after `flag`, or "" with "missing value for <flag>".
  std::string value(std::string_view flag);
  /// value(flag) as an integer in [lo, hi]; lo on error.
  int64_t number(std::string_view flag, int64_t lo, int64_t hi);
  /// The next argument when all of it is an integer in [lo, hi] (consumed);
  /// otherwise nullopt and nothing is consumed.
  std::optional<int64_t> maybe_number(int64_t lo, int64_t hi);

  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }
  const std::string& error() const { return error_; }

 private:
  int argc_;
  const char* const* argv_;
  int i_;
  std::string error_;
};

}  // namespace icc::support
