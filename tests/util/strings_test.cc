#include "util/strings.h"

#include <gtest/gtest.h>

#include <ostream>

namespace aapac {
namespace {

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("SELECT * FROM Users"), "select * from users");
  EXPECT_EQ(ToLower(""), "");
  EXPECT_EQ(ToLower("a_B9"), "a_b9");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("\t\n hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("select", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
  EXPECT_TRUE(EqualsIgnoreCase("WaTcH_Id", "watch_id"));
}

struct LikeCase {
  const char* value;
  const char* pattern;
  bool match;
};

// Without a printer gtest dumps the struct's bytes, string pointers included,
// and CTest names each case after that dump, so the names changed from run to
// run with the load address.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.value << "' LIKE '" << c.pattern << "' is "
      << (c.match ? "true" : "false");
}

class SqlLikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(SqlLikeTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(SqlLikeMatch(c.value, c.pattern), c.match)
      << "'" << c.value << "' LIKE '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SqlLikeTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true},
        LikeCase{"hello", "Hello", false},  // Case sensitive, as PostgreSQL.
        LikeCase{"hello", "h%", true}, LikeCase{"hello", "%o", true},
        LikeCase{"hello", "%ell%", true}, LikeCase{"hello", "h_llo", true},
        LikeCase{"hello", "h__lo", true}, LikeCase{"hello", "hel_", false},
        LikeCase{"hello", "_____", true},
        LikeCase{"hello", "______", false}, LikeCase{"hello", "%", true},
        LikeCase{"", "%", true}, LikeCase{"", "", true},
        LikeCase{"", "_", false}, LikeCase{"abc", "a%c", true},
        LikeCase{"abc", "a%b", false}, LikeCase{"aXbXc", "a%b%c", true},
        LikeCase{"watch100", "watch100", true},
        LikeCase{"watch1000", "watch100", false},
        LikeCase{"no_intolerance", "no_intolerance", true},
        LikeCase{"banana", "%ana", true}, LikeCase{"banana", "%anana%", true},
        LikeCase{"aaa", "%a%a%a%", true}, LikeCase{"aa", "%a%a%a%", false}));

}  // namespace
}  // namespace aapac
