// Tests for the command-line flag parser used by examples and benches.
#include <gtest/gtest.h>

#include <climits>

#include "util/cli.h"

namespace pels {
namespace {

StrictCliArgs parse(std::initializer_list<const char*> args, std::size_t max_positional = 0) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return StrictCliArgs(static_cast<int>(argv.size()), argv.data(), {"verbose"},
                       {"flows", "seconds", "name", "csv", "rate", "offset", "gain", "seed", "tcp"},
                       max_positional);
}

TEST(CliArgsTest, EqualsForm) {
  const StrictCliArgs args = parse({"--flows=4", "--seconds=12.5", "--name=test"});
  EXPECT_EQ(args.get_int("flows", 0), 4);
  EXPECT_DOUBLE_EQ(args.get_double("seconds", 0.0), 12.5);
  EXPECT_EQ(args.get_string("name", ""), "test");
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgsTest, SpaceForm) {
  const StrictCliArgs args = parse({"--flows", "8", "--csv", "out.csv"});
  EXPECT_EQ(args.get_int("flows", 0), 8);
  EXPECT_EQ(args.get_string("csv", ""), "out.csv");
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgsTest, SwitchesAndDefaults) {
  const StrictCliArgs args = parse({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("flows"));
  EXPECT_EQ(args.get_int("flows", 42), 42);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgsTest, SwitchFollowedByFlagIsNotAValue) {
  const StrictCliArgs args = parse({"--verbose", "--flows=2"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_int("flows", 0), 2);
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgsTest, PositionalArgumentsPreserved) {
  const StrictCliArgs args = parse({"input.txt", "--flows=1", "more"}, /*max_positional=*/2);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgsTest, MalformedNumbersFallBackAndReport) {
  const StrictCliArgs args = parse({"--flows=abc", "--rate=1.2.3"});
  EXPECT_EQ(args.get_int("flows", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 9.0), 9.0);
  const std::vector<std::string> expected = {"--flows: not an integer: abc",
                                             "--rate: not a number: 1.2.3"};
  EXPECT_EQ(args.errors(), expected);
}

TEST(CliArgsTest, NegativeNumbersParse) {
  const StrictCliArgs args = parse({"--offset=-5", "--gain=-0.5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
  EXPECT_DOUBLE_EQ(args.get_double("gain", 0.0), -0.5);
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgsTest, LastOccurrenceWins) {
  const StrictCliArgs args = parse({"--flows=1", "--flows=9"});
  EXPECT_EQ(args.get_int("flows", 0), 9);
}

TEST(CliArgsTest, OutOfRangeValuesFallBackAndReport) {
  // A negative seed must not wrap to 2^64 - 1, a count must not truncate to
  // int, a value past the long long range must not saturate silently, and a
  // duration must not overflow the nanosecond clock or be infinite.
  const StrictCliArgs args = parse({"--seed", "-1", "--tcp", "4294967297", "--flows",
                                    "99999999999999999999", "--seconds", "1e10", "--gain", "inf"});
  EXPECT_EQ(args.get_int("seed", 1, /*min=*/0), 1);
  EXPECT_EQ(args.get_int("tcp", 1, 0, INT_MAX), 1);
  EXPECT_EQ(args.get_int("flows", 2), 2);
  EXPECT_DOUBLE_EQ(args.get_double("seconds", 30.0, 1e-9, 86400.0), 30.0);
  EXPECT_DOUBLE_EQ(args.get_double("gain", 0.5), 0.5);
  const std::vector<std::string> expected = {
      "--seed must be at least 0", "--tcp must be in [0, 2147483647]",
      "--flows: out of range: 99999999999999999999", "--seconds must be in [1e-09, 86400]",
      "--gain: not a finite number: inf"};
  EXPECT_EQ(args.errors(), expected);
}

TEST(CliArgsTest, PositionalValuesAreChecked) {
  const StrictCliArgs args = parse({"0", "1e10"}, /*max_positional=*/2);
  EXPECT_EQ(args.positional_int(0, "flows", 1, /*min=*/1), 1);
  EXPECT_DOUBLE_EQ(args.positional_double(1, "seconds", 30.0, 1e-9, 86400.0), 30.0);
  EXPECT_EQ(args.positional_int(2, "absent", 5), 5);
  const std::vector<std::string> expected = {"flows must be at least 1",
                                             "seconds must be in [1e-09, 86400]"};
  EXPECT_EQ(args.errors(), expected);
}

std::vector<std::string> strict_errors(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  const int argc = static_cast<int>(argv.size());
  const StrictCliArgs cli(argc, argv.data(), {"smoke"}, {"json", "count"}, /*max_positional=*/1);
  cli.get_int("count", 1, /*min=*/1);
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
