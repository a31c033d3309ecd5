#include "base/string_util.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace cqchase {
namespace {

TEST(StrCatTest, ConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("level ", 3, "/", 10), "level 3/10");
  EXPECT_EQ(StrCat(), "");
  EXPECT_EQ(StrCat(1.5), "1.5");
}

// What StrCat must reproduce byte for byte: a default std::ostringstream.
template <typename... Args>
std::string Streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

enum UnscopedColor { kRed, kGreen = 7 };

TEST(StrCatTest, MatchesOstringstreamForEveryFastPathType) {
  const std::string s = "str";
  const char* cstr = "cstr";
  const std::string_view empty_view;
  const std::string_view view = "view";
  EXPECT_EQ(StrCat(INT64_MIN), Streamed(INT64_MIN));
  EXPECT_EQ(StrCat(INT64_MAX), Streamed(INT64_MAX));
  EXPECT_EQ(StrCat(UINT64_MAX), Streamed(UINT64_MAX));
  EXPECT_EQ(StrCat(0), Streamed(0));
  EXPECT_EQ(StrCat(-17), Streamed(-17));
  EXPECT_EQ(StrCat(INT_MIN), Streamed(INT_MIN));
  EXPECT_EQ(StrCat(size_t{0}), Streamed(size_t{0}));
  EXPECT_EQ(StrCat(SIZE_MAX), Streamed(SIZE_MAX));
  EXPECT_EQ(StrCat(static_cast<uint32_t>(4000000000u)),
            Streamed(static_cast<uint32_t>(4000000000u)));
  EXPECT_EQ(StrCat(static_cast<short>(-3)), Streamed(static_cast<short>(-3)));
  EXPECT_EQ(StrCat(static_cast<unsigned short>(65535)),
            Streamed(static_cast<unsigned short>(65535)));
  // Character types append the character, not its code.
  EXPECT_EQ(StrCat('x'), Streamed('x'));
  EXPECT_EQ(StrCat('x'), "x");
  EXPECT_EQ(StrCat(static_cast<signed char>('A')),
            Streamed(static_cast<signed char>('A')));
  EXPECT_EQ(StrCat(static_cast<unsigned char>('B')),
            Streamed(static_cast<unsigned char>('B')));
  EXPECT_EQ(StrCat(uint8_t{'C'}), Streamed(uint8_t{'C'}));
  EXPECT_EQ(StrCat(int8_t{'D'}), Streamed(int8_t{'D'}));
  EXPECT_EQ(StrCat(true, false), Streamed(true, false));
  EXPECT_EQ(StrCat(true, false), "10");
  EXPECT_EQ(StrCat(empty_view), "");
  EXPECT_EQ(StrCat(empty_view, view, s, cstr, "lit"),
            Streamed(empty_view, view, s, cstr, "lit"));
  EXPECT_EQ(StrCat(std::string()), "");
  EXPECT_EQ(StrCat("a", 1, 'b', -2, s, true, uint8_t{'z'}, SIZE_MAX),
            Streamed("a", 1, 'b', -2, s, true, uint8_t{'z'}, SIZE_MAX));
}

TEST(StrCatTest, FallsBackToStreamForOtherTypes) {
  EXPECT_EQ(StrCat(kRed, kGreen), Streamed(kRed, kGreen));
  EXPECT_EQ(StrCat(kGreen), "7");
  for (double d : {0.0, -0.0, 1.5, 0.1, 1e20, 1.0 / 3.0, -2.5e-7}) {
    EXPECT_EQ(StrCat(d), Streamed(d)) << d;
  }
  EXPECT_EQ(StrCat(2.5f), Streamed(2.5f));
  EXPECT_EQ(StrCat("x=", 0.25, ";"), Streamed("x=", 0.25, ";"));
}

TEST(StrAppendTest, AppendsInPlace) {
  std::string out = "pre:";
  StrAppend(&out, 12, ',', "ab", std::string_view("cd"), false);
  EXPECT_EQ(out, "pre:12,abcd0");
  StrAppend(&out);
  EXPECT_EQ(out, "pre:12,abcd0");
}

TEST(StrJoinTest, JoinsWithSeparator) {
  std::vector<std::string> v{"a", "b", "c"};
  EXPECT_EQ(StrJoin(v, ", "), "a, b, c");
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2}, "-"), "1-2");
  EXPECT_EQ(StrJoin(std::vector<int>{}, "-"), "");
}

TEST(StrJoinTest, MappedJoin) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(StrJoinMapped(v, "+", [](int x) { return x * x; }), "1+4+9");
}

TEST(StrSplitTest, KeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a;b;;c", ';'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ';'), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ';'), (std::vector<std::string>{"abc"}));
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("z"), "z");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("chase", "ch"));
  EXPECT_FALSE(StartsWith("chase", "hase"));
  EXPECT_TRUE(EndsWith("chase", "se"));
  EXPECT_FALSE(EndsWith("chase", "cha"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

}  // namespace
}  // namespace cqchase
