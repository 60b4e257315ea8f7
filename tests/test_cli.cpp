/// Tests for the command-line argument parser.

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace bd::util {
namespace {

ArgParser make_parser() {
  ArgParser args("prog", "test program");
  args.add_int("n", 10, "count");
  args.add_double("tol", 1e-6, "tolerance");
  args.add_string("mode", "fast", "mode name");
  args.add_flag("verbose", "chatty output");
  return args;
}

TEST(Cli, DefaultsApply) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_EQ(args.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(args.get_double("tol"), 1e-6);
  EXPECT_EQ(args.get_string("mode"), "fast");
  EXPECT_FALSE(args.get_flag("verbose"));
}

TEST(Cli, EqualsSyntax) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--n=42", "--tol=0.5", "--mode=slow"};
  ASSERT_TRUE(args.parse(4, argv));
  EXPECT_EQ(args.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(args.get_double("tol"), 0.5);
  EXPECT_EQ(args.get_string("mode"), "slow");
}

TEST(Cli, SpaceSyntax) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--n", "7", "--mode", "x"};
  ASSERT_TRUE(args.parse(5, argv));
  EXPECT_EQ(args.get_int("n"), 7);
  EXPECT_EQ(args.get_string("mode"), "x");
}

TEST(Cli, FlagForms) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(args.parse(2, argv));
  EXPECT_TRUE(args.get_flag("verbose"));

  ArgParser args2 = make_parser();
  const char* argv2[] = {"prog", "--verbose=true"};
  ASSERT_TRUE(args2.parse(2, argv2));
  EXPECT_TRUE(args2.get_flag("verbose"));
}

TEST(Cli, UnknownOptionFails) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_EXIT(args.parse(2, argv), ::testing::ExitedWithCode(2),
              "unknown option '--bogus'(.|\n)*options:");
}

TEST(Cli, MissingValueFails) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--n"};
  EXPECT_EXIT(args.parse(2, argv), ::testing::ExitedWithCode(2),
              "option '--n' needs a value(.|\n)*options:");
}

TEST(Cli, MalformedNumbersFail) {
  // A value must be wholly a number in range: strtoll-style prefix parsing
  // would run `--n=abc` as 0 and `--n=12x` as 12.
  for (const char* arg :
       {"--n=abc", "--n=12x", "--n=", "--n=99999999999999999999",
        "--tol=abc", "--tol=0.5x", "--tol=", "--tol=1e999"}) {
    ArgParser args = make_parser();
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(args.parse(2, argv), ::testing::ExitedWithCode(2),
                "option '--(n|tol)' needs (an integer|a number), got "
                "(.|\n)*options:")
        << arg;
  }
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--n=-3", "--tol", "2.5e-3"};
  ASSERT_TRUE(args.parse(4, argv));
  EXPECT_EQ(args.get_int("n"), -3);
  EXPECT_EQ(args.get_double("tol"), 2.5e-3);
}

TEST(Cli, CheckpointFlagsAreNotBuiltIn) {
  // Only --trace is built in; a binary that reads --checkpoint,
  // --checkpoint-every or --resume registers them itself.
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--resume=x"};
  EXPECT_EXIT(args.parse(2, argv), ::testing::ExitedWithCode(2),
              "unknown option '--resume'");
  EXPECT_EQ(args.usage().find("--checkpoint"), std::string::npos);
}

TEST(Cli, HelpReturnsFalse) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(args.parse(2, argv));
}

TEST(Cli, PositionalArgumentRejected) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_EXIT(args.parse(2, argv), ::testing::ExitedWithCode(2),
              "unexpected argument 'stray'(.|\n)*options:");
}

TEST(Cli, UnregisteredLookupThrows) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_THROW(args.get_int("nope"), CheckError);
  // Wrong-type lookup also throws.
  EXPECT_THROW(args.get_int("mode"), CheckError);
}

TEST(Cli, UsageMentionsAllOptions) {
  ArgParser args = make_parser();
  const std::string usage = args.usage();
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("--tol"), std::string::npos);
  EXPECT_NE(usage.find("--mode"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("default: 10"), std::string::npos);
}

}  // namespace
}  // namespace bd::util
