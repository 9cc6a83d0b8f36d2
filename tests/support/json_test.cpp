// The shared strict JSON reader (support/json.hpp): every value kind the
// telemetry formats use, every escape the writer emits, and rejection of
// truncation, trailing bytes, fractions and out-of-range integers, with the
// byte offset named in each error.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace icc::support::json {
namespace {

Value parse_ok(const std::string& text) {
  Value v;
  std::string error;
  EXPECT_TRUE(parse(text, &v, &error)) << text << ": " << error;
  return v;
}

std::string parse_error(const std::string& text) {
  Value v;
  std::string error;
  EXPECT_FALSE(parse(text, &v, &error)) << text;
  return error;
}

TEST(Json, ReadsEveryValueKind) {
  const Value v = parse_ok(
      " {\"o\":{\"a\":[1,-2,[]]},\"s\":\"x\",\"t\":true,\"f\":false,\"n\":null,\"e\":{}} ");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object.size(), 6u);
  const Value* a = v.find("o")->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  int64_t i = 0;
  EXPECT_TRUE(a->array[1].get(&i));
  EXPECT_EQ(i, -2);
  EXPECT_EQ(a->array[2].type, Value::Type::kArray);
  std::string s;
  EXPECT_TRUE(v.find("s")->get(&s));
  EXPECT_EQ(s, "x");
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("f")->type, Value::Type::kBool);
  EXPECT_FALSE(v.find("f")->boolean);
  EXPECT_EQ(v.find("n")->type, Value::Type::kNull);
  EXPECT_TRUE(v.find("e")->is_object());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, IntegersKeepTheFull64BitRanges) {
  uint64_t u = 0;
  int64_t i = 0;
  EXPECT_TRUE(parse_ok("18446744073709551615").get(&u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(parse_ok("-9223372036854775808").get(&i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(parse_ok("9223372036854775807").get(&i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::max());
  // Typed reads refuse values that do not fit the destination.
  EXPECT_FALSE(parse_ok("9223372036854775808").get(&i));
  EXPECT_FALSE(parse_ok("-1").get(&u));
  uint32_t u32 = 0;
  EXPECT_FALSE(parse_ok("4294967296").get(&u32));
  EXPECT_FALSE(parse_ok("\"7\"").get(&u));
  EXPECT_EQ(parse_error("18446744073709551616"), "byte 19: integer does not fit in 64 bits");
  EXPECT_EQ(parse_error("-9223372036854775809"), "byte 20: integer does not fit in 64 bits");
}

TEST(Json, EscapeRoundTripsThroughParse) {
  std::string all;
  for (int c = 1; c < 128; ++c) all.push_back(static_cast<char>(c));
  all += "\"round\":7 \xc3\xa9";
  std::string back;
  EXPECT_TRUE(parse_ok("\"" + escape(all) + "\"").get(&back));
  EXPECT_EQ(back, all);
  EXPECT_EQ(escape("a\"b\\c\nd\x01"), "a\\\"b\\\\c\\nd\\u0001");
  // The escapes escape() never writes are read too.
  EXPECT_TRUE(parse_ok("\"\\/\\b\\f\\u00e9\\u20AC\"").get(&back));
  EXPECT_EQ(back, "/\b\f\xc3\xa9\xe2\x82\xac");
}

TEST(Json, RejectsMalformedInputNamingTheOffset) {
  EXPECT_EQ(parse_error(""), "byte 0: unexpected end of input");
  EXPECT_EQ(parse_error("this is not json"), "byte 0: expected a value");
  EXPECT_EQ(parse_error("nul"), "byte 0: expected a value");
  EXPECT_EQ(parse_error("{\"a\":1} x"), "byte 8: trailing bytes after the value");
  EXPECT_EQ(parse_error("{\"a\":1.5}"), "byte 6: fractions and exponents are not accepted");
  EXPECT_EQ(parse_error("{\"a\":1e3}"), "byte 6: fractions and exponents are not accepted");
  EXPECT_EQ(parse_error("{\"a\":01}"), "byte 5: leading zero in a number");
  EXPECT_EQ(parse_error("{\"a\":"), "byte 5: unexpected end of input");
  EXPECT_EQ(parse_error("{\"a\":1"), "byte 6: unterminated object");
  EXPECT_EQ(parse_error("[1,2"), "byte 4: unterminated array");
  EXPECT_EQ(parse_error("{\"a\" 1}"), "byte 5: expected ':'");
  EXPECT_EQ(parse_error("{\"a\":1,}"), "byte 7: expected a member name");
  EXPECT_EQ(parse_error("[1 2]"), "byte 3: expected ',' or ']'");
  EXPECT_EQ(parse_error("\"ab"), "byte 3: unterminated string");
  EXPECT_EQ(parse_error("\"a\nb\""), "byte 2: control byte in a string");
  EXPECT_EQ(parse_error("\"\\x\""), "byte 2: invalid escape");
  EXPECT_EQ(parse_error("\"\\u12\""), "byte 3: truncated \\u escape");
  EXPECT_EQ(parse_error("\"\\u12zz\""), "byte 5: invalid \\u escape");
  EXPECT_EQ(parse_error("\"\\ud83d\\ude00\""), "byte 7: surrogate \\u escapes are not accepted");
  EXPECT_EQ(parse_error("-"), "byte 1: expected a value");
  EXPECT_EQ(parse_error(std::string(100, '[')), "byte 65: nesting too deep");
  // Every proper prefix of a document is rejected.
  const std::string doc = "{\"k\":[1,{\"s\":\"v\\\"\"}],\"b\":true}";
  for (size_t cut = 0; cut < doc.size(); ++cut)
    EXPECT_FALSE(parse_error(doc.substr(0, cut)).empty()) << cut;
}

}  // namespace
}  // namespace icc::support::json
