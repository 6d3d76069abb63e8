/**
 * @file
 * Unit tests for the logging/error-handling primitives.
 */

#include <gtest/gtest.h>

#include "core/logging.hh"

namespace recperf {
namespace {

TEST(StrPrintf, FormatsBasicTypes)
{
    EXPECT_EQ(strprintf("x=%d", 42), "x=42");
    EXPECT_EQ(strprintf("%s-%s", "a", "b"), "a-b");
    EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
}

TEST(StrPrintf, EmptyFormat)
{
    EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(StrPrintf, LongOutput)
{
    std::string big(10'000, 'q');
    std::string out = strprintf("%s!", big.c_str());
    EXPECT_EQ(out.size(), big.size() + 1);
    EXPECT_EQ(out.back(), '!');
}

TEST(Fatal, ThrowsFatalError)
{
    EXPECT_THROW(RP_FATAL("bad config %d", 7), FatalError);
}

TEST(Fatal, MessagePreserved)
{
    try {
        RP_FATAL("value was %d", 13);
        FAIL() << "RP_FATAL did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value was 13");
    }
}

TEST(Panic, ThrowsPanicError)
{
    EXPECT_THROW(RP_PANIC("impossible state"), PanicError);
}

TEST(Assert, PassesOnTrue)
{
    EXPECT_NO_THROW(RP_ASSERT(1 + 1 == 2, "math works"));
}

TEST(Assert, ThrowsOnFalse)
{
    EXPECT_THROW(RP_ASSERT(false, "deliberate"), PanicError);
}

TEST(Assert, ThrowsWithoutMessage)
{
    EXPECT_THROW(RP_ASSERT(false), PanicError);
}

TEST(Warn, DoesNotThrow)
{
    EXPECT_NO_THROW(RP_WARN("just a warning %d", 1));
}

} // namespace
} // namespace recperf
