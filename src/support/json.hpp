// The one JSON reader and string escaper behind every telemetry format.
//
// Every document the repository writes (journal and series JSONL, the
// icc-runtime/v1 report, Chrome traces) is integer-only, so the reader is
// deliberately narrow and strict: objects, arrays, strings (every escape
// escape() emits, plus the rest of RFC 8259's for the Basic Multilingual
// Plane), signed and unsigned 64-bit integers, true, false and null.
// Fractions, exponents, truncated input and trailing bytes are errors, and
// every error names the byte offset where it was found. Schema readers
// (obs/journal, obs/timeseries, obs/runtime) map parsed values onto their
// structs with read_fields; none of them scans text itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace icc::support::json {

/// JSON string body for `s`: escapes '"', '\\' and every control byte.
std::string escape(std::string_view s);

/// Whole-file I/O for the documents the tools read and write; false on any
/// I/O error.
bool read_file(const std::string& path, std::string* out);
bool write_file(const std::string& path, std::string_view text);

struct Value {
  enum class Type : uint8_t { kNull, kBool, kInt, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  bool negative = false;   ///< kInt: the number is -magnitude
  uint64_t magnitude = 0;  ///< kInt: absolute value
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< members, document order

  bool is_object() const { return type == Type::kObject; }
  /// First member named `key`; null when absent or this is not an object.
  const Value* find(std::string_view key) const;

  // Typed reads: false (output untouched) when the value has another type
  // or does not fit the destination.
  bool get(uint64_t* out) const;
  bool get(int64_t* out) const;
  bool get(uint32_t* out) const;
  bool get(std::string* out) const;
  bool get(std::vector<uint32_t>* out) const;
};

/// Parse exactly one JSON value from `text` into `*out`. On failure returns
/// false and sets `*error` to "byte <offset>: <reason>".
bool parse(std::string_view text, Value* out, std::string* error);

/// Where read_fields stores a member: a typed destination (Value::get), or
/// a reader for a nested value that returns false when its shape is wrong.
using Slot = std::variant<uint64_t*, int64_t*, uint32_t*, std::string*, std::vector<uint32_t>*,
                          std::function<bool(const Value&)>>;
struct Field {
  std::string_view key;
  Slot slot;
};

/// Stores each member of object `v` named in `fields` into its slot; other
/// members are ignored. Returns "" on success, else "expected an object" or
/// an error naming the first member whose value has the wrong type.
std::string read_fields(const Value& v, std::initializer_list<Field> fields);

/// Calls `record(value)` (returning "" or an error) for each non-blank line
/// of a JSONL document. Returns "" or the first error as "line N: <error>".
template <typename Record>
std::string for_each_line(std::string_view text, Record&& record) {
  Value v;
  std::string err;
  for (size_t line_no = 1; !text.empty(); ++line_no) {
    const size_t nl = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(std::min(nl + 1, text.size()));
    if (line.empty()) continue;
    if (parse(line, &v, &err)) err = record(v);
    if (!err.empty()) return "line " + std::to_string(line_no) + ": " + err;
  }
  return {};
}

}  // namespace icc::support::json
