#include "support/json.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

namespace icc::support::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return static_cast<bool>(in);
}

bool write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

bool Value::get(uint64_t* out) const {
  if (type != Type::kInt || negative) return false;
  *out = magnitude;
  return true;
}

bool Value::get(int64_t* out) const {
  constexpr uint64_t kMax = static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  if (type != Type::kInt || magnitude > kMax + (negative ? 1 : 0)) return false;
  // Negate in unsigned arithmetic: -(2^63) has no positive counterpart.
  *out = static_cast<int64_t>(negative ? ~magnitude + 1 : magnitude);
  return true;
}

bool Value::get(uint32_t* out) const {
  uint64_t v = 0;
  if (!get(&v) || v > std::numeric_limits<uint32_t>::max()) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

bool Value::get(std::string* out) const {
  if (type != Type::kString) return false;
  *out = string;
  return true;
}

bool Value::get(std::vector<uint32_t>* out) const {
  if (type != Type::kArray) return false;
  std::vector<uint32_t> items(array.size());
  for (size_t i = 0; i < array.size(); ++i)
    if (!array[i].get(&items[i])) return false;
  *out = std::move(items);
  return true;
}

std::string read_fields(const Value& v, std::initializer_list<Field> fields) {
  if (!v.is_object()) return "expected an object";
  for (const auto& [key, value] : v.object) {
    for (const Field& f : fields) {
      if (f.key != key) continue;
      const bool ok = std::visit(
          [&value](const auto& dst) {
            if constexpr (std::is_pointer_v<std::decay_t<decltype(dst)>>) return value.get(dst);
            else return dst(value);
          },
          f.slot);
      if (!ok) return "field \"" + key + "\" has the wrong type";
    }
  }
  return {};
}

namespace {

// Bounds the recursion on hostile input; the formats nest at most 4 deep.
constexpr int kMaxDepth = 64;

struct Reader {
  std::string_view s;
  std::string* error;
  size_t pos = 0;

  bool fail(const char* reason) {
    *error = "byte " + std::to_string(pos) + ": " + reason;
    return false;
  }
  bool end() const { return pos >= s.size(); }
  void skip_ws() {
    while (!end() && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == '\r')) ++pos;
  }
  /// Consumes `word` (after whitespace) if it comes next.
  bool take(std::string_view word) {
    skip_ws();
    if (s.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool value(Value* out, int depth) {
    skip_ws();
    if (end()) return fail("unexpected end of input");
    if (depth > kMaxDepth) return fail("nesting too deep");
    const char c = s[pos];
    if (c == '{' || c == '[') return composite(out, depth, c == '{');
    if (c == '"') {
      out->type = Value::Type::kString;
      return string(&out->string);
    }
    if (c == '-' || (c >= '0' && c <= '9')) return number(out);
    if (take("null")) return true;  // a fresh Value is already null
    out->type = Value::Type::kBool;
    out->boolean = take("true");
    return out->boolean || take("false") || fail("expected a value");
  }

  bool composite(Value* out, int depth, bool is_object) {
    ++pos;
    out->type = is_object ? Value::Type::kObject : Value::Type::kArray;
    const char* close = is_object ? "}" : "]";
    if (take(close)) return true;
    do {
      Value* item = nullptr;
      if (is_object) {
        skip_ws();
        if (end() || s[pos] != '"') return fail("expected a member name");
        auto& member = out->object.emplace_back();
        if (!string(&member.first)) return false;
        if (!take(":")) return fail("expected ':'");
        item = &member.second;
      } else {
        item = &out->array.emplace_back();
      }
      if (!value(item, depth + 1)) return false;
    } while (take(","));
    if (take(close)) return true;
    if (end()) return fail(is_object ? "unterminated object" : "unterminated array");
    return fail(is_object ? "expected ',' or '}'" : "expected ',' or ']'");
  }

  bool number(Value* out) {
    out->type = Value::Type::kInt;
    out->negative = s[pos] == '-';
    if (out->negative) ++pos;
    if (pos + 1 < s.size() && s[pos] == '0' && s[pos + 1] >= '0' && s[pos + 1] <= '9')
      return fail("leading zero in a number");
    const size_t first = pos;
    uint64_t m = 0;
    for (; !end() && s[pos] >= '0' && s[pos] <= '9'; ++pos) {
      const uint64_t digit = static_cast<uint64_t>(s[pos] - '0');
      if (m > (std::numeric_limits<uint64_t>::max() - digit) / 10)
        return fail("integer does not fit in 64 bits");
      m = m * 10 + digit;
    }
    if (pos == first) return fail("expected a value");
    if (!end() && (s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E'))
      return fail("fractions and exponents are not accepted");
    if (out->negative && m > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1)
      return fail("integer does not fit in 64 bits");
    out->magnitude = m;
    return true;
  }

  bool string(std::string* out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt", kDecoded = "\"\\/\b\f\n\r\t";
    ++pos;  // opening quote
    for (;;) {
      // Copy the run up to the next quote, backslash or control byte at once.
      const size_t run = pos;
      while (!end() && s[pos] != '"' && s[pos] != '\\' &&
             static_cast<unsigned char>(s[pos]) >= 0x20)
        ++pos;
      out->append(s.substr(run, pos - run));
      if (end()) return fail("unterminated string");
      if (s[pos] == '"') {
        ++pos;
        return true;
      }
      if (s[pos] != '\\') return fail("control byte in a string");
      if (++pos == s.size()) return fail("truncated escape");
      if (const size_t k = kEscapes.find(s[pos]); k != std::string_view::npos) {
        out->push_back(kDecoded[k]);
        ++pos;
        continue;
      }
      if (s[pos] != 'u') return fail("invalid escape");
      ++pos;
      if (s.size() - pos < 4) return fail("truncated \\u escape");
      uint32_t cp = 0;
      for (const size_t stop = pos + 4; pos < stop; ++pos) {
        const char h = s[pos];
        const int d = h >= '0' && h <= '9'   ? h - '0'
                      : h >= 'a' && h <= 'f' ? h - 'a' + 10
                      : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                             : -1;
        if (d < 0) return fail("invalid \\u escape");
        cp = cp << 4 | static_cast<uint32_t>(d);
      }
      if (cp >= 0xd800 && cp <= 0xdfff) return fail("surrogate \\u escapes are not accepted");
      // UTF-8 for a Basic Multilingual Plane code point.
      if (cp < 0x80) {
        out->push_back(static_cast<char>(cp));
      } else if (cp < 0x800) {
        out->push_back(static_cast<char>(0xc0 | cp >> 6));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
      } else {
        out->push_back(static_cast<char>(0xe0 | cp >> 12));
        out->push_back(static_cast<char>(0x80 | (cp >> 6 & 0x3f)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
      }
    }
  }
};

}  // namespace

bool parse(std::string_view text, Value* out, std::string* error) {
  *out = Value{};
  Reader r{text, error};
  if (!r.value(out, 0)) return false;
  r.skip_ws();
  return r.end() || r.fail("trailing bytes after the value");
}

}  // namespace icc::support::json
