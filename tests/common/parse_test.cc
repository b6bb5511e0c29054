#include "common/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace vod {
namespace {

TEST(ParseTest, AcceptsOneWholeDecimalToken) {
  const struct {
    const char* text;
    double value;
  } doubles[] = {{"120", 120.0}, {"-1.5", -1.5}, {"+2", 2.0},
                 {".5", 0.5},    {"1e3", 1000.0}, {"007", 7.0}};
  for (const auto& c : doubles) {
    const Result<double> v = ParseDouble(c.text);
    ASSERT_TRUE(v.ok()) << c.text << ": " << v.status();
    EXPECT_EQ(*v, c.value) << c.text;
  }
  const struct {
    const char* text;
    int64_t value;
  } ints[] = {{"120", 120}, {"-15", -15}, {"+2", 2}, {"007", 7},
              {"-9223372036854775808", INT64_MIN},
              {"9223372036854775807", INT64_MAX}};
  for (const auto& c : ints) {
    const Result<int64_t> v = ParseInt64(c.text);
    ASSERT_TRUE(v.ok()) << c.text << ": " << v.status();
    EXPECT_EQ(*v, c.value) << c.text;
  }
  EXPECT_EQ(ParseUint64("007").ValueOr(0), 7u);
  EXPECT_EQ(ParseUint64("18446744073709551615").ValueOr(0), UINT64_MAX);
}

TEST(ParseTest, RefusesEverythingElseWithADistinctReason) {
  const struct {
    const char* text;
    const char* reason;
  } doubles[] = {
      {"", "decimal number"},       {" 1", "decimal number"},
      {"1 ", "decimal number"},     {"12abc", "decimal number"},
      {"0x1p4", "decimal number"},  {"1e999", "double range"},
      {"1e-999", "double range"},   {"nan", "finite"},
      {"inf", "finite"},            {"-inf", "finite"},
  };
  for (const auto& c : doubles) {
    const Result<double> v = ParseDouble(c.text);
    ASSERT_TRUE(v.status().IsInvalidArgument()) << "'" << c.text << "'";
    EXPECT_NE(v.status().message().find(c.reason), std::string::npos)
        << c.text << " -> " << v.status();
  }
  const struct {
    const char* text;
    const char* reason;
  } ints[] = {
      {"", "base-10 integer"},      {" 1", "base-10 integer"},
      {"1 ", "base-10 integer"},    {"12abc", "base-10 integer"},
      {"0x10", "base-10 integer"},  {"1e3", "base-10 integer"},
      {"1.5", "base-10 integer"},   {"nan", "base-10 integer"},
      {"9223372036854775808", "int64 range"},
      {"-9223372036854775809", "int64 range"},
  };
  for (const auto& c : ints) {
    const Result<int64_t> v = ParseInt64(c.text);
    ASSERT_TRUE(v.status().IsInvalidArgument()) << "'" << c.text << "'";
    EXPECT_NE(v.status().message().find(c.reason), std::string::npos)
        << c.text << " -> " << v.status();
  }
  // No sign at all: strtoull would read "-1" as 2^64 - 1.
  for (const char* text : {"-1", "+1", "", " 1", "1e3", "0x10"}) {
    EXPECT_TRUE(ParseUint64(text).status().IsInvalidArgument()) << text;
  }
  EXPECT_NE(ParseUint64("18446744073709551616")
                .status()
                .message()
                .find("uint64 range"),
            std::string::npos);
}

TEST(ParseTest, SplitFieldsTrimsBlanksAndKeepsParenthesesWhole) {
  EXPECT_EQ(SplitFields("x, 120 ,gamma(2, 4),\texp(5)", ','),
            (std::vector<std::string>{"x", "120", "gamma(2, 4)", "exp(5)"}));
  EXPECT_EQ(SplitFields("", ','), std::vector<std::string>{""});
  EXPECT_EQ(SplitFields("1,,2,", ','),
            (std::vector<std::string>{"1", "", "2", ""}));
  // Blanks around list fields are trimmed: spaced and compact lists read
  // the same numbers.
  const struct {
    const char* spaced;
    const char* compact;
    char separator;
  } lists[] = {{"0.2, 0.2, 0.6", "0.2,0.2,0.6", ','},
               {"4: 2000: 120", "4:2000:120", ':'},
               {"0: 50: 50: 2", "0:50:50:2", ':'}};
  for (const auto& list : lists) {
    const std::vector<std::string> spaced =
        SplitFields(list.spaced, list.separator);
    EXPECT_EQ(spaced, SplitFields(list.compact, list.separator));
    for (const std::string& field : spaced) {
      EXPECT_TRUE(ParseDouble(field).ok()) << list.spaced;
    }
  }
}

}  // namespace
}  // namespace vod
