/**
 * @file
 * Equivalence tests for the exporters' shared writer: every helper
 * must render the bytes the printf-based code it replaced rendered,
 * so the trace and metrics exports stay byte-identical.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "telemetry/json_writer.hh"

namespace vcp {
namespace {

using telemetry::appendEscaped;
using telemetry::appendInt;
using telemetry::appendNum;
using telemetry::appendPromName;

/** The printf rendering appendNum must reproduce. */
std::string
printfNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** The escaper the snapshot stream and health report used before. */
std::string
referenceEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
num(double v)
{
    std::string s;
    appendNum(s, v);
    return s;
}

TEST(JsonWriter, NumberMatchesPrintfOnEdgeValues)
{
    const double dmin = std::numeric_limits<double>::denorm_min();
    const double cases[] = {
        0.0, -0.0, 1.0, -1.0, 999999.0, -999999.0, 999999.5,
        -999999.5, 999999.4, 1e6, -1e6, 1e6 + 1, 123456.7, 1234567.0,
        1e-4, 1e-5, 0.000123456789, 0.5, 0.25, 1.0 / 3.0, 2.0 / 3.0,
        12.5, 0.1, 1e15, 1e16, 9.2233720368547758e18, 1e300, -1e300,
        dmin, -dmin, dmin * 12345.0,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(), -42.0, -100000.0,
        -5.0e-7, 65536.0, 4294967296.0};
    for (double v : cases)
        EXPECT_EQ(num(v), printfNum(v)) << "value " << v;
}

TEST(JsonWriter, NumberMatchesPrintfOnRandomDoubles)
{
    std::mt19937_64 rng(20261017);
    std::uniform_int_distribution<int> exp10(-320, 308);
    std::uniform_int_distribution<std::int64_t> ints(-3'000'000,
                                                     3'000'000);
    std::uniform_real_distribution<double> unit(1.0, 10.0);
    int mismatches = 0;
    auto check = [&](double v) {
        if (num(v) != printfNum(v) && ++mismatches <= 5)
            ADD_FAILURE() << "value " << v << ": " << num(v)
                          << " vs " << printfNum(v);
    };
    for (int i = 0; i < 40'000; ++i) {
        // Uniform bit patterns: every exponent and sign, subnormals
        // included.
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        check(v);
        // Mantissas in [1, 10) at every decimal exponent.
        check(unit(rng) * std::pow(10.0, exp10(rng)));
        // Whole numbers either side of the 1e6 fast-path edge, and
        // halves that round at the sixth digit.
        std::int64_t k = ints(rng);
        check(static_cast<double>(k));
        check(static_cast<double>(k) + 0.5);
        check(static_cast<double>(k) / 1000.0);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonWriter, NonFiniteNumbersRenderZero)
{
    EXPECT_EQ(num(std::numeric_limits<double>::quiet_NaN()), "0");
    EXPECT_EQ(num(-std::numeric_limits<double>::quiet_NaN()), "0");
    EXPECT_EQ(num(std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(num(-std::numeric_limits<double>::infinity()), "0");
}

TEST(JsonWriter, IntegersRenderAtTheLimits)
{
    auto render = [](auto v) {
        std::string s;
        appendInt(s, v);
        return s;
    };
    EXPECT_EQ(render(std::numeric_limits<std::int64_t>::min()),
              "-9223372036854775808");
    EXPECT_EQ(render(std::numeric_limits<std::int64_t>::max()),
              "9223372036854775807");
    EXPECT_EQ(render(std::numeric_limits<std::uint64_t>::max()),
              "18446744073709551615");
    EXPECT_EQ(render(std::int64_t{0}), "0");
    EXPECT_EQ(render(-1), "-1");
    EXPECT_EQ(render(std::uint16_t{65535}), "65535");
}

TEST(JsonWriter, EscapeMatchesTheReferenceOnEveryByte)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        std::string s = "a";
        s += static_cast<char>(b);
        s += "z";
        std::string got;
        appendEscaped(got, s);
        EXPECT_EQ(got, referenceEscape(s)) << "byte " << b;
        all += static_cast<char>(b);
    }
    std::string got = "prefix:";
    appendEscaped(got, all);
    EXPECT_EQ(got, "prefix:" + referenceEscape(all));
}

TEST(JsonWriter, PromNamesKeepOnlyMetricCharacters)
{
    std::string s = "vcp_";
    appendPromName(s, "agent.reconcile-us:p99/Q");
    EXPECT_EQ(s, "vcp_agent_reconcile_us:p99_Q");
}

} // namespace
} // namespace vcp
