/**
 * @file
 * Tests for the time-bucketed series.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "stats/timeseries.hh"

namespace vcp {
namespace {

TEST(TimeSeriesTest, BucketsSamplesByTime)
{
    TimeSeries ts(seconds(10));
    ts.add(seconds(1), 2.0);
    ts.add(seconds(9), 4.0);
    ts.add(seconds(11), 8.0);
    ASSERT_EQ(ts.numBuckets(), 2u);
    EXPECT_EQ(ts.bucket(0).count, 2u);
    EXPECT_DOUBLE_EQ(ts.bucket(0).sum, 6.0);
    EXPECT_DOUBLE_EQ(ts.bucket(0).mean(), 3.0);
    EXPECT_EQ(ts.bucket(1).count, 1u);
    EXPECT_DOUBLE_EQ(ts.bucket(1).sum, 8.0);
}

TEST(TimeSeriesTest, GapsProduceEmptyBuckets)
{
    TimeSeries ts(seconds(1));
    ts.add(seconds(0));
    ts.add(seconds(5));
    ASSERT_EQ(ts.numBuckets(), 6u);
    EXPECT_EQ(ts.bucket(3).count, 0u);
    EXPECT_DOUBLE_EQ(ts.bucket(3).mean(), 0.0);
    EXPECT_EQ(ts.bucket(3).start, seconds(3));
}

TEST(TimeSeriesTest, TotalsAccumulate)
{
    TimeSeries ts(seconds(1));
    for (int i = 0; i < 10; ++i)
        ts.add(seconds(i), 1.5);
    EXPECT_EQ(ts.totalCount(), 10u);
    EXPECT_DOUBLE_EQ(ts.totalSum(), 15.0);
}

TEST(TimeSeriesTest, NegativeTimePanics)
{
    TimeSeries ts(seconds(1));
    EXPECT_THROW(ts.add(-1), PanicError);
}

TEST(TimeSeriesTest, ZeroWidthPanics)
{
    EXPECT_THROW(TimeSeries(0), PanicError);
}

} // namespace
} // namespace vcp
