#include "common/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace vod {
namespace {

// Builds a mutable argv from string literals.
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args)
      : storage_(std::move(args)) {
    for (auto& s : storage_) argv_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> argv_;
};

FlagSet MakeFlags() {
  FlagSet flags("test_prog");
  flags.AddInt64("seed", 42, "rng seed");
  flags.AddDouble("wait", 1.0, "max wait");
  flags.AddBool("csv", false, "csv output");
  flags.AddString("dist", "gamma(2,4)", "duration spec");
  return flags;
}

TEST(FlagsTest, DefaultsApplyWithoutArguments) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(flags.GetInt64("seed"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("wait"), 1.0);
  EXPECT_FALSE(flags.GetBool("csv"));
  EXPECT_EQ(flags.GetString("dist"), "gamma(2,4)");
}

TEST(FlagsTest, EqualsForm) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--seed=7", "--wait=0.5", "--csv=true",
                    "--dist=exp(5)"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(flags.GetInt64("seed"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("wait"), 0.5);
  EXPECT_TRUE(flags.GetBool("csv"));
  EXPECT_EQ(flags.GetString("dist"), "exp(5)");
}

TEST(FlagsTest, SpaceSeparatedForm) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--seed", "9", "--wait", "2.5"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(flags.GetInt64("seed"), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("wait"), 2.5);
}

TEST(FlagsTest, BareBoolEnables) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--csv"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(flags.GetBool("csv"));
}

TEST(FlagsTest, UnknownFlagIsError) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--bogus=1"});
  EXPECT_TRUE(flags.Parse(args.argc(), args.argv()).IsInvalidArgument());
}

TEST(FlagsTest, MalformedIntIsError) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--seed=abc"});
  EXPECT_TRUE(flags.Parse(args.argc(), args.argv()).IsInvalidArgument());
}

TEST(FlagsTest, MalformedDoubleIsError) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--wait=1.2.3"});
  EXPECT_TRUE(flags.Parse(args.argc(), args.argv()).IsInvalidArgument());
}

TEST(FlagsTest, StrictNumericParsingRejectsEachBadShape) {
  // One sub-case per rejection path; the messages are distinct so a user
  // can tell garbage from overflow from a non-finite literal.
  struct Case {
    const char* arg;
    const char* expect_in_message;
  };
  const Case cases[] = {
      // int64 paths
      {"--seed=12abc", "base-10 integer"},       // trailing garbage
      {"--seed=0x10", "base-10 integer"},        // hex is not base-10
      {"--seed=", "base-10 integer"},            // empty value
      {"--seed= 12", "base-10 integer"},         // leading whitespace
      {"--seed=12 ", "base-10 integer"},         // trailing whitespace
      {"--seed=9223372036854775808", "int64 range"},   // INT64_MAX + 1
      {"--seed=-9223372036854775809", "int64 range"},  // INT64_MIN - 1
      // double paths
      {"--wait=1.2.3", "decimal number"},        // trailing garbage
      {"--wait=", "decimal number"},             // empty value
      {"--wait= 1.5", "decimal number"},         // leading whitespace
      {"--wait=0x1p4", "decimal number"},        // hexadecimal float
      {"--wait=1e999", "double range"},          // overflow
      {"--wait=1e-999", "double range"},         // underflow
      {"--wait=nan", "finite"},                  // NaN literal
      {"--wait=inf", "finite"},                  // infinity literal
      {"--wait=-inf", "finite"},
  };
  for (const Case& c : cases) {
    FlagSet flags = MakeFlags();
    ArgvBuilder args({"prog", c.arg});
    const Status status = flags.Parse(args.argc(), args.argv());
    ASSERT_TRUE(status.IsInvalidArgument()) << c.arg;
    EXPECT_NE(status.message().find(c.expect_in_message), std::string::npos)
        << c.arg << " -> " << status.message();
  }
}

TEST(FlagsTest, StrictNumericParsingStillAcceptsNormalValues) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--seed=-17", "--wait=6.25e-2"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(flags.GetInt64("seed"), -17);
  EXPECT_DOUBLE_EQ(flags.GetDouble("wait"), 0.0625);
}

TEST(FlagsTest, MalformedBoolIsError) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--csv=maybe"});
  EXPECT_TRUE(flags.Parse(args.argc(), args.argv()).IsInvalidArgument());
}

TEST(FlagsTest, MissingValueIsError) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--seed"});
  EXPECT_TRUE(flags.Parse(args.argc(), args.argv()).IsInvalidArgument());
}

TEST(FlagsTest, PositionalArgumentIsError) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "positional"});
  EXPECT_TRUE(flags.Parse(args.argc(), args.argv()).IsInvalidArgument());
}

TEST(FlagsTest, BoolAcceptsNumericAndWordForms) {
  for (const char* truthy : {"1", "true", "yes"}) {
    FlagSet flags = MakeFlags();
    ArgvBuilder args({"prog", std::string("--csv=") + truthy});
    ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
    EXPECT_TRUE(flags.GetBool("csv"));
  }
  for (const char* falsy : {"0", "false", "no"}) {
    FlagSet flags = MakeFlags();
    ArgvBuilder args({"prog", std::string("--csv=") + falsy});
    ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
    EXPECT_FALSE(flags.GetBool("csv"));
  }
}

TEST(FlagsTest, UsageMentionsEveryFlag) {
  FlagSet flags = MakeFlags();
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--seed"), std::string::npos);
  EXPECT_NE(usage.find("--wait"), std::string::npos);
  EXPECT_NE(usage.find("--csv"), std::string::npos);
  EXPECT_NE(usage.find("--dist"), std::string::npos);
  EXPECT_NE(usage.find("test_prog"), std::string::npos);
}

TEST(FlagsTest, HelpWithoutExitReturnsOk) {
  FlagSet flags = MakeFlags();
  ArgvBuilder args({"prog", "--help"});
  EXPECT_TRUE(flags.Parse(args.argc(), args.argv(), /*exit_on_help=*/false)
                  .ok());
}

TEST(FlagsTest, HasReportsRegisteredFlags) {
  FlagSet flags = MakeFlags();
  EXPECT_TRUE(flags.Has("seed"));
  EXPECT_TRUE(flags.Has("csv"));
  EXPECT_FALSE(flags.Has("threads"));
}

TEST(FlagsTest, NamesFollowRegistrationOrder) {
  const FlagSet flags = MakeFlags();
  EXPECT_EQ(flags.names(),
            (std::vector<std::string>{"seed", "wait", "csv", "dist"}));
}

TEST(FlagsTest, ValueTextTellsEveryParsedValueApart) {
  FlagSet flags = MakeFlags();
  EXPECT_EQ(flags.ValueText("wait"), "1");
  ArgvBuilder args({"prog", "--seed=-7", "--wait=2.0000001", "--csv",
                    "--dist=exp(5)"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(flags.ValueText("seed"), "-7");
  // Six significant digits (the --help rendering) would print "2" here.
  EXPECT_EQ(flags.ValueText("wait"), "2.0000000999999998");
  EXPECT_EQ(flags.ValueText("csv"), "true");
  EXPECT_EQ(flags.ValueText("dist"), "exp(5)");
}

TEST(FlagsDeathTest, DuplicateRegistrationAbortsLoudly) {
  // Registering the same name twice is always a programming error (e.g. a
  // command defining --threads and then calling AddExperimentFlags); it must
  // fail at startup with the offending name, not silently shadow a flag.
  EXPECT_DEATH(
      {
        FlagSet flags = MakeFlags();
        flags.AddInt64("seed", 0, "duplicate");
      },
      "duplicate flag");
  EXPECT_DEATH(
      {
        FlagSet flags = MakeFlags();
        flags.AddString("csv", "", "duplicate across types");
      },
      "duplicate flag");
}

}  // namespace
}  // namespace vod
