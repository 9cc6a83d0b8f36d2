#include "support/args.hpp"

#include <charconv>

namespace icc::support {

std::optional<int64_t> parse_int(std::string_view text, int64_t lo, int64_t hi) {
  int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

std::string Args::value(std::string_view flag) {
  if (done()) {
    fail("missing value for " + std::string(flag));
    return "";
  }
  return std::string(next());
}

int64_t Args::number(std::string_view flag, int64_t lo, int64_t hi) {
  const std::string text = value(flag);
  if (!error_.empty()) return lo;
  if (auto v = parse_int(text, lo, hi)) return *v;
  fail(std::string(flag) + ": '" + text + "' is not an integer in [" + std::to_string(lo) +
       ", " + std::to_string(hi) + "]");
  return lo;
}

std::optional<int64_t> Args::maybe_number(int64_t lo, int64_t hi) {
  if (done()) return std::nullopt;
  auto v = parse_int(argv_[i_], lo, hi);
  if (v) ++i_;
  return v;
}

}  // namespace icc::support
