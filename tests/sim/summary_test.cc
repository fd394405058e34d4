/**
 * @file
 * Tests for the streaming summary accumulator (Welford + merge).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.hh"
#include "sim/summary.hh"

namespace vcp {
namespace {

TEST(SummaryStatsTest, EmptyDefaults)
{
    SummaryStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(SummaryStatsTest, SingleSample)
{
    SummaryStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(SummaryStatsTest, KnownMoments)
{
    SummaryStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance with n-1 = 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStatsTest, MergeEqualsCombinedStream)
{
    Rng rng(2);
    SummaryStats all, a, b;
    for (int i = 0; i < 1000; ++i) {
        double v = rng.normal(10.0, 3.0);
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryStatsTest, MergeWithEmpty)
{
    SummaryStats a, b;
    a.add(1.0);
    a.add(3.0);
    SummaryStats a_copy = a;
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());

    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SummaryStatsTest, CvOfConstantIsZero)
{
    SummaryStats s;
    for (int i = 0; i < 10; ++i)
        s.add(7.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(SummaryStatsTest, NumericallyStableForLargeOffsets)
{
    // Classic catastrophic-cancellation case: large mean, small
    // variance.
    SummaryStats s;
    double base = 1e9;
    for (double v : {base + 1, base + 2, base + 3})
        s.add(v);
    EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(SummaryStatsTest, ToStringMentionsCount)
{
    SummaryStats s;
    s.add(2.0);
    EXPECT_NE(s.toString().find("n=1"), std::string::npos);
}

} // namespace
} // namespace vcp
