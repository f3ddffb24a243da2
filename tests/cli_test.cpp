// The shared typed flag registry (util/cli.h) used by psv_verify and
// psv_serve: typed parsing, positionals, switches, custom flags, env
// fallbacks, error classification (kParse), and --help generation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/error.h"

namespace psv {
namespace {

std::vector<std::string> parse(cli::Parser& parser, std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParser, TypedFlagsAndPositionals) {
  std::string dir = "default";
  int scenarios = 0;
  std::int64_t limit = 1'000'000;
  std::uint64_t seed = 2015;
  unsigned jobs = 0;
  bool flag = false;
  cli::Parser parser("tool", "usage: tool [options] FILES...");
  parser.flag("--dir", &dir, "DIR", "a directory");
  parser.flag("--sim", &scenarios, "N", "scenario count");
  parser.flag("--limit", &limit, "MS", "a ceiling");
  parser.flag("--seed", &seed, "S", "a seed");
  parser.flag("--jobs", &jobs, "N", "worker threads");
  parser.flag("--verbose", &flag, "a switch");

  const std::vector<std::string> positional = parse(
      parser, {"a.psv", "--dir", "/tmp/x", "--sim", "12", "b.pss", "--limit", "-5", "--seed",
               "99", "--jobs", "4", "--verbose", "REQ: a -> b within 10"});
  EXPECT_EQ(positional, (std::vector<std::string>{"a.psv", "b.pss", "REQ: a -> b within 10"}));
  EXPECT_EQ(dir, "/tmp/x");
  EXPECT_EQ(scenarios, 12);
  EXPECT_EQ(limit, -5);
  EXPECT_EQ(seed, 99u);
  EXPECT_EQ(jobs, 4u);
  EXPECT_TRUE(flag);
  EXPECT_FALSE(parser.help_requested());
}

TEST(CliParser, AbsentFlagsKeepDefaults) {
  int value = 42;
  cli::Parser parser("tool", "usage");
  parser.flag("--value", &value, "N", "a number");
  EXPECT_TRUE(parse(parser, {}).empty());
  EXPECT_EQ(value, 42);
}

TEST(CliParser, NegativeNumbersArePositionals) {
  // "-5" must not be treated as an unknown flag (requirement texts and
  // numeric arguments may lead with a minus).
  int value = 0;
  cli::Parser parser("tool", "usage");
  parser.flag("--value", &value, "N", "a number");
  const std::vector<std::string> positional = parse(parser, {"-5", "--value", "-7"});
  EXPECT_EQ(positional, std::vector<std::string>{"-5"});
  EXPECT_EQ(value, -7);
}

TEST(CliParser, ParseFailuresAreTypedErrors) {
  int value = 0;
  unsigned count = 0;
  cli::Parser parser("tool", "usage");
  parser.flag("--value", &value, "N", "a number");
  parser.flag("--count", &count, "N", "a count");

  const auto expect_parse_error = [&](std::vector<std::string> args) {
    try {
      parse(parser, std::move(args));
      FAIL() << "expected psv::Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse);
    }
  };
  expect_parse_error({"--unknown"});
  expect_parse_error({"--value"});           // missing value
  expect_parse_error({"--value", "abc"});    // not a number
  expect_parse_error({"--value", "12x"});    // trailing garbage
  expect_parse_error({"--count", "-3"});     // negative for unsigned
  expect_parse_error({"--value", "99999999999999999999"});  // overflow
}

TEST(CliParser, CustomFlagValidation) {
  std::string mode = "fast";
  cli::Parser parser("tool", "usage");
  parser.flag_custom("--mode", "M", "mode choice", [&mode](const std::string& value) {
    PSV_REQUIRE_AS(ErrorCode::kParse, value == "fast" || value == "slow", "bad mode");
    mode = value;
  });
  parse(parser, {"--mode", "slow"});
  EXPECT_EQ(mode, "slow");
  EXPECT_THROW(parse(parser, {"--mode", "warp"}), Error);
}

TEST(CliParser, EnvFallbackAppliesOnlyWhenFlagAbsent) {
  ::setenv("PSV_CLI_TEST_DIR", "/from/env", 1);
  std::string dir;
  {
    cli::Parser parser("tool", "usage");
    parser.flag("--dir", &dir, "DIR", "a directory");
    parser.env_fallback("--dir", "PSV_CLI_TEST_DIR");
    parse(parser, {});
    EXPECT_EQ(dir, "/from/env");
  }
  {
    dir.clear();
    cli::Parser parser("tool", "usage");
    parser.flag("--dir", &dir, "DIR", "a directory");
    parser.env_fallback("--dir", "PSV_CLI_TEST_DIR");
    parse(parser, {"--dir", "/from/flag"});
    EXPECT_EQ(dir, "/from/flag");
  }
  ::unsetenv("PSV_CLI_TEST_DIR");
}

TEST(CliParser, GeneratedHelp) {
  std::string dir;
  bool quiet = false;
  cli::Parser parser("tool", "usage: tool [options]");
  parser.flag("--dir", &dir, "DIR", "first line\nsecond line");
  parser.flag("--quiet", &quiet, "a switch");
  parser.env_fallback("--dir", "PSV_CLI_TEST_DIR");
  parser.epilog("Exit status: 0 on success.");

  EXPECT_TRUE(parse(parser, {"--help"}).empty());
  EXPECT_TRUE(parser.help_requested());
  const std::string help = parser.help();
  EXPECT_NE(help.find("usage: tool [options]"), std::string::npos);
  EXPECT_NE(help.find("--dir DIR"), std::string::npos);
  EXPECT_NE(help.find("first line"), std::string::npos);
  EXPECT_NE(help.find("second line"), std::string::npos);
  EXPECT_NE(help.find("--quiet"), std::string::npos);
  EXPECT_NE(help.find("$PSV_CLI_TEST_DIR"), std::string::npos);
  EXPECT_NE(help.find("Exit status: 0 on success."), std::string::npos);
}

}  // namespace
}  // namespace psv
