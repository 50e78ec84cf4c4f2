// Tests for the command-line flag parser used by examples and benches.
#include <gtest/gtest.h>

#include "util/cli.h"

namespace pels {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgsTest, EqualsForm) {
  const CliArgs args = parse({"--flows=4", "--seconds=12.5", "--name=test"});
  EXPECT_EQ(args.get_int("flows", 0), 4);
  EXPECT_DOUBLE_EQ(args.get_double("seconds", 0.0), 12.5);
  EXPECT_EQ(args.get_string("name", ""), "test");
}

TEST(CliArgsTest, SpaceForm) {
  const CliArgs args = parse({"--flows", "8", "--csv", "out.csv"});
  EXPECT_EQ(args.get_int("flows", 0), 8);
  EXPECT_EQ(args.get_string("csv", ""), "out.csv");
}

TEST(CliArgsTest, SwitchesAndDefaults) {
  const CliArgs args = parse({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
}

TEST(CliArgsTest, BooleanValues) {
  const CliArgs args = parse({"--a=true", "--b=0", "--c=yes", "--d=off"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(CliArgsTest, SwitchFollowedByFlagIsNotAValue) {
  const CliArgs args = parse({"--verbose", "--flows=2"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("flows", 0), 2);
}

TEST(CliArgsTest, PositionalArgumentsPreserved) {
  const CliArgs args = parse({"input.txt", "--flows=1", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(CliArgsTest, MalformedNumbersFallBackAndReport) {
  const CliArgs args = parse({"--flows=abc", "--rate=1.2.3"});
  EXPECT_EQ(args.get_int("flows", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 9.0), 9.0);
  EXPECT_EQ(args.parse_errors().size(), 2u);
}

TEST(CliArgsTest, NegativeNumbersParse) {
  const CliArgs args = parse({"--offset=-5", "--gain=-0.5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
  EXPECT_DOUBLE_EQ(args.get_double("gain", 0.0), -0.5);
}

TEST(CliArgsTest, FlagNamesEnumerated) {
  const CliArgs args = parse({"--b=1", "--a=2"});
  const auto names = args.flag_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order: sorted
  EXPECT_EQ(names[1], "b");
}

TEST(CliArgsTest, LastOccurrenceWins) {
  const CliArgs args = parse({"--flows=1", "--flows=9"});
  EXPECT_EQ(args.get_int("flows", 0), 9);
}

std::vector<std::string> strict_errors(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  const int argc = static_cast<int>(argv.size());
  const StrictCliArgs cli(argc, argv.data(), {"smoke"}, {"json", "count"}, /*max_positional=*/1);
  cli.get_int_at_least("count", 1, 1);
  return cli.errors();
}

TEST(StrictCliArgsTest, AcceptsTheAllowList) {
  EXPECT_TRUE(strict_errors({"first", "--smoke", "--json", "x.json", "--count=3"}).empty());
}

TEST(StrictCliArgsTest, ReportsEveryMistake) {
  const std::vector<std::string> errs =
      strict_errors({"first", "second", "--smoke=1", "--json", "--smoek", "--count", "0"});
  // Positionals first, then flags in name order, then value errors.
  const std::vector<std::string> expected = {
      "unexpected argument 'second'", "--json needs a value", "unknown flag --smoek",
      "--smoke takes no value", "--count must be at least 1"};
  EXPECT_EQ(errs, expected);
  EXPECT_EQ(strict_errors({"--count", "abc"}),
            std::vector<std::string>{"--count: not an integer: abc"});
}

}  // namespace
}  // namespace pels
