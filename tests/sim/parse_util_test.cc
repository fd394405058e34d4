#include <gtest/gtest.h>

#include <cstdint>

#include "sim/parse_util.hh"

using namespace vcp;

TEST(ParseStrictInt, AcceptsPlainIntegers)
{
    long long v = 0;
    EXPECT_TRUE(parseStrictInt("0", v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(parseStrictInt("-42", v));
    EXPECT_EQ(v, -42);
    EXPECT_TRUE(parseStrictInt("123456789", v));
    EXPECT_EQ(v, 123456789);
}

TEST(ParseStrictInt, RejectsGarbage)
{
    long long v = 0;
    EXPECT_FALSE(parseStrictInt("", v));
    EXPECT_FALSE(parseStrictInt("four", v));
    EXPECT_FALSE(parseStrictInt("12x", v));
    EXPECT_FALSE(parseStrictInt("1 2", v));
    EXPECT_FALSE(parseStrictInt(nullptr, v));
}

TEST(ParseStrictInt, RejectsOverflow)
{
    long long v = 0;
    EXPECT_FALSE(parseStrictInt("99999999999999999999999999", v));
    EXPECT_FALSE(parseStrictInt("-99999999999999999999999999", v));
}

TEST(ParseStrictPositiveInt, EnforcesRange)
{
    int v = 0;
    EXPECT_TRUE(parseStrictPositiveInt("1", v));
    EXPECT_EQ(v, 1);
    EXPECT_FALSE(parseStrictPositiveInt("0", v));
    EXPECT_FALSE(parseStrictPositiveInt("-3", v));
    EXPECT_FALSE(parseStrictPositiveInt("2147483648", v)); // > int32
    EXPECT_FALSE(parseStrictPositiveInt("8x", v));
}

TEST(ParseStrictU64, AcceptsUnsignedRange)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseStrictU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseStrictU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseStrictU64, RejectsNegativeGarbageAndOverflow)
{
    std::uint64_t v = 0;
    // strtoull would happily wrap "-1" to UINT64_MAX — the strict
    // parser must refuse the sign instead.
    EXPECT_FALSE(parseStrictU64("-1", v));
    EXPECT_FALSE(parseStrictU64("", v));
    EXPECT_FALSE(parseStrictU64(nullptr, v));
    EXPECT_FALSE(parseStrictU64("seed", v));
    EXPECT_FALSE(parseStrictU64("7h", v));
    EXPECT_FALSE(parseStrictU64("18446744073709551616", v));
}

TEST(ParseStrictDouble, AcceptsReals)
{
    double v = 0;
    EXPECT_TRUE(parseStrictDouble("0.5", v));
    EXPECT_DOUBLE_EQ(v, 0.5);
    EXPECT_TRUE(parseStrictDouble("-2", v));
    EXPECT_DOUBLE_EQ(v, -2.0);
    EXPECT_TRUE(parseStrictDouble("1e3", v));
    EXPECT_DOUBLE_EQ(v, 1000.0);
}

TEST(ParseStrictDouble, RejectsGarbageTrailingJunkAndNonFinite)
{
    double v = 0;
    EXPECT_FALSE(parseStrictDouble("", v));
    EXPECT_FALSE(parseStrictDouble(nullptr, v));
    EXPECT_FALSE(parseStrictDouble("4h", v));
    EXPECT_FALSE(parseStrictDouble("1.2.3", v));
    EXPECT_FALSE(parseStrictDouble("nan", v));
    EXPECT_FALSE(parseStrictDouble("inf", v));
    EXPECT_FALSE(parseStrictDouble("1e999", v)); // overflows to inf
}

TEST(ParseStrictPositiveDouble, EnforcesSign)
{
    double v = 0;
    EXPECT_TRUE(parseStrictPositiveDouble("0.25", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_FALSE(parseStrictPositiveDouble("0", v));
    EXPECT_FALSE(parseStrictPositiveDouble("-1.5", v));
    EXPECT_FALSE(parseStrictPositiveDouble("abc", v));
}

TEST(ParseStrictNonNegativeDouble, AllowsZero)
{
    double v = 1;
    EXPECT_TRUE(parseStrictNonNegativeDouble("0", v));
    EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_TRUE(parseStrictNonNegativeDouble("3.5", v));
    EXPECT_DOUBLE_EQ(v, 3.5);
    EXPECT_FALSE(parseStrictNonNegativeDouble("-0.1", v));
    EXPECT_FALSE(parseStrictNonNegativeDouble("0x", v));
}

TEST(ParseStrictHours, StaysInsideTheEventHorizon)
{
    double v = 1;
    EXPECT_TRUE(parseStrictHours("0", 0, v));
    EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_TRUE(parseStrictHours("24", minutes(30), v));
    EXPECT_DOUBLE_EQ(v, 24.0);
    // 2^47 us is 39093.75 h; the extra time counts against it.
    EXPECT_FALSE(parseStrictHours("39093.7", minutes(30), v));
    EXPECT_FALSE(parseStrictHours("39094", 0, v));
    EXPECT_FALSE(parseStrictHours("1e12", 0, v));
    EXPECT_FALSE(parseStrictHours("-5", 0, v));
    EXPECT_FALSE(parseStrictHours("abc", 0, v));
    EXPECT_DOUBLE_EQ(v, 24.0); // untouched on failure
    EXPECT_TRUE(parseStrictHours("39093.7", 0, v));
}
