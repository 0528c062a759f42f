#include "util/strings.h"

#include <climits>

#include <gtest/gtest.h>

namespace blossomtree {
namespace {

TEST(StringsTest, SplitBasic) {
  auto parts = Split("1.2.3", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "1");
  EXPECT_EQ(parts[1], "2");
  EXPECT_EQ(parts[2], "3");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a..b", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitNoSeparator) {
  auto parts = Split("abc", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, SplitEmptyInput) {
  auto parts = Split("", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(Trim("\t\r\n "), "");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, IsAllWhitespace) {
  EXPECT_TRUE(IsAllWhitespace(" \t\r\n"));
  EXPECT_TRUE(IsAllWhitespace(""));
  EXPECT_FALSE(IsAllWhitespace(" a "));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(Join({}, "."), "");
  EXPECT_EQ(Join({"x"}, "."), "x");
}

TEST(StringsTest, AppendXmlEscaped) {
  auto escaped = [](std::string_view s) {
    std::string out = "[";
    AppendXmlEscaped(s, &out);
    return out;
  };
  EXPECT_EQ(escaped("a<b>&\"'"), "[a&lt;b&gt;&amp;&quot;&apos;");
  EXPECT_EQ(escaped("plain"), "[plain");
  EXPECT_EQ(escaped(""), "[");
  EXPECT_EQ(escaped("<<x&&"), "[&lt;&lt;x&amp;&amp;");
  EXPECT_EQ(escaped("tail>"), "[tail&gt;");
}

TEST(StringsTest, ParseNonNegativeInt) {
  EXPECT_EQ(ParseNonNegativeInt("42"), 42);
  EXPECT_EQ(ParseNonNegativeInt(" 7 "), 7);
  EXPECT_EQ(ParseNonNegativeInt("0"), 0);
  EXPECT_EQ(ParseNonNegativeInt("-1"), -1);
  EXPECT_EQ(ParseNonNegativeInt("abc"), -1);
  EXPECT_EQ(ParseNonNegativeInt(""), -1);
}

TEST(StringsTest, ParseNonNegativeIntOverflowBoundary) {
  // LLONG_MAX itself parses; one past it must fail without the signed
  // overflow the old post-multiply check relied on (UB under UBSan).
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775807"), LLONG_MAX);
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775808"), -1);
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775817"), -1);
  EXPECT_EQ(ParseNonNegativeInt("18446744073709551615"), -1);
  EXPECT_EQ(ParseNonNegativeInt("99999999999999999999999999"), -1);
  // Leading zeros cannot trip the guard early.
  EXPECT_EQ(ParseNonNegativeInt("0009223372036854775807"), LLONG_MAX);
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2 ", &v));
  EXPECT_DOUBLE_EQ(v, -2.0);
  EXPECT_TRUE(ParseDouble("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_FALSE(ParseDouble("12x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringsTest, ParseDoubleRejectsNonDecimalForms) {
  // strtod accepts all of these; XPath untyped comparison must treat them
  // as strings, so ParseDouble rejects them.
  double v = 0;
  EXPECT_FALSE(ParseDouble("inf", &v));
  EXPECT_FALSE(ParseDouble("-inf", &v));
  EXPECT_FALSE(ParseDouble("Infinity", &v));
  EXPECT_FALSE(ParseDouble("nan", &v));
  EXPECT_FALSE(ParseDouble("NaN", &v));
  EXPECT_FALSE(ParseDouble("0x10", &v));
  EXPECT_FALSE(ParseDouble("0x1p3", &v));
  // Sign/exponent characters alone are not numbers either.
  EXPECT_FALSE(ParseDouble("e", &v));
  EXPECT_FALSE(ParseDouble(".", &v));
  EXPECT_FALSE(ParseDouble("+-", &v));
}

}  // namespace
}  // namespace blossomtree
