/**
 * @file
 * Unit tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/args.hh"
#include "core/logging.hh"

namespace recperf {
namespace {

ArgParser
makeParser()
{
    ArgParser p("prog", "test program");
    p.addFlag("verbose", "chatty output");
    p.addOption("batch", "16", "batch size");
    p.addOption("rate", "1.5", "arrival rate");
    return p;
}

TEST(ArgParser, DefaultsApply)
{
    ArgParser p = makeParser();
    std::string err;
    ASSERT_TRUE(p.parse({}, &err)) << err;
    EXPECT_FALSE(p.flag("verbose"));
    EXPECT_EQ(p.option("batch"), "16");
    EXPECT_EQ(p.optionInt("batch"), 16);
    EXPECT_DOUBLE_EQ(p.optionDouble("rate"), 1.5);
}

TEST(ArgParser, SpaceSeparatedValue)
{
    ArgParser p = makeParser();
    std::string err;
    ASSERT_TRUE(p.parse({"--batch", "64"}, &err)) << err;
    EXPECT_EQ(p.optionInt("batch"), 64);
}

TEST(ArgParser, EqualsValue)
{
    ArgParser p = makeParser();
    std::string err;
    ASSERT_TRUE(p.parse({"--batch=128", "--rate=2.25"}, &err)) << err;
    EXPECT_EQ(p.optionInt("batch"), 128);
    EXPECT_DOUBLE_EQ(p.optionDouble("rate"), 2.25);
}

TEST(ArgParser, FlagSetting)
{
    ArgParser p = makeParser();
    std::string err;
    ASSERT_TRUE(p.parse({"--verbose"}, &err)) << err;
    EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgParser, PositionalArguments)
{
    ArgParser p = makeParser();
    std::string err;
    ASSERT_TRUE(p.parse({"run", "--batch", "8", "extra"}, &err)) << err;
    EXPECT_EQ(p.positional(),
              (std::vector<std::string>{"run", "extra"}));
}

TEST(ArgParser, UnknownArgumentFails)
{
    ArgParser p = makeParser();
    std::string err;
    EXPECT_FALSE(p.parse({"--bogus"}, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(ArgParser, MissingValueFails)
{
    ArgParser p = makeParser();
    std::string err;
    EXPECT_FALSE(p.parse({"--batch"}, &err));
    EXPECT_NE(err.find("batch"), std::string::npos);
}

TEST(ArgParser, FlagWithValueFails)
{
    ArgParser p = makeParser();
    std::string err;
    EXPECT_FALSE(p.parse({"--verbose=yes"}, &err));
}

TEST(ArgParser, BadIntegerFatal)
{
    ArgParser p = makeParser();
    std::string err;
    ASSERT_TRUE(p.parse({"--batch", "soup"}, &err));
    EXPECT_THROW(p.optionInt("batch"), FatalError);
}

TEST(ArgParser, TypedOptionsRejectMalformedValuesAtParse)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--items", "abc"}, {"--items=1.5"}, {"--items="},
        {"--items", "99999999999999999999"}, {"--rate", "1e4x"},
        {"--rate", "nan"}, {"--rate=inf"}, {"--rate="}};
    for (const std::vector<std::string> &argv : bad) {
        ArgParser p("prog", "test program");
        p.addOption("items", "16", "item count", ArgType::Int);
        p.addOption("rate", "1.5", "arrival rate", ArgType::Number);
        std::string err;
        EXPECT_FALSE(p.parse(argv, &err)) << argv.front();
        EXPECT_NE(err.find("expects"), std::string::npos) << err;
    }
    ArgParser p("prog", "test program");
    p.addOption("items", "16", "item count", ArgType::Int);
    p.addOption("rate", "1.5", "arrival rate", ArgType::Number);
    std::string err;
    ASSERT_TRUE(p.parse({"--items", "-3", "--rate", "2e3"}, &err)) << err;
    EXPECT_EQ(p.optionInt("items"), -3);
    EXPECT_DOUBLE_EQ(p.optionDouble("rate"), 2000.0);
    EXPECT_THROW(p.addOption("bad", "x", "bad default", ArgType::Int),
                 PanicError);
}

TEST(ArgParser, UnknownLookupPanics)
{
    ArgParser p = makeParser();
    EXPECT_THROW(p.flag("nope"), PanicError);
    EXPECT_THROW(p.option("nope"), PanicError);
}

TEST(ArgParser, DuplicateRegistrationPanics)
{
    ArgParser p = makeParser();
    EXPECT_THROW(p.addFlag("batch", "dup"), PanicError);
}

TEST(ArgParser, ExplicitlySetDistinguishesDefaults)
{
    // CLI validation uses this to reject bad combinations only when
    // the user actually asked for them (e.g. --retries with a zero
    // timeout), not when a default merely applies.
    ArgParser p = makeParser();
    std::string err;
    ASSERT_TRUE(p.parse({"--batch", "16", "--verbose"}, &err)) << err;
    EXPECT_TRUE(p.explicitlySet("batch")); // even at the default value
    EXPECT_TRUE(p.explicitlySet("verbose"));
    EXPECT_FALSE(p.explicitlySet("rate"));
    EXPECT_THROW(p.explicitlySet("nope"), PanicError);
}

TEST(ArgParser, HelpTextMentionsEverything)
{
    ArgParser p = makeParser();
    std::string help = p.helpText();
    EXPECT_NE(help.find("--verbose"), std::string::npos);
    EXPECT_NE(help.find("--batch"), std::string::npos);
    EXPECT_NE(help.find("default: 16"), std::string::npos);
}

} // namespace
} // namespace recperf
