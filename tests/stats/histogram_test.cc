/**
 * @file
 * Tests for the log-bucketed histogram, including parameterized
 * quantile-accuracy properties against known distributions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "stats/histogram.hh"

namespace vcp {
namespace {

TEST(HistogramTest, EmptyQuantilesAreZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(HistogramTest, SingleValue)
{
    Histogram h;
    h.add(42.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 42.0);
    // Quantiles clamp to the observed range.
    EXPECT_DOUBLE_EQ(h.p50(), 42.0);
    EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(HistogramTest, NegativeValuesClampToZeroBucket)
{
    Histogram h;
    h.add(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(HistogramTest, WeightedAdd)
{
    Histogram h;
    h.add(10.0, 3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
    h.add(10.0, 0); // no-op
    EXPECT_EQ(h.count(), 3u);
}

TEST(HistogramTest, QuantileMonotonicInQ)
{
    Rng rng(3);
    Histogram h;
    for (int i = 0; i < 10000; ++i)
        h.add(rng.exponential(100.0));
    double last = 0.0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        double v = h.quantile(q);
        EXPECT_GE(v, last);
        last = v;
    }
}

TEST(HistogramTest, QuantilesWithinObservedRange)
{
    Rng rng(4);
    Histogram h;
    for (int i = 0; i < 1000; ++i)
        h.add(rng.uniform(5.0, 50.0));
    EXPECT_GE(h.p50(), h.min());
    EXPECT_LE(h.p99(), h.max());
}

TEST(HistogramTest, MergeCombinesCounts)
{
    Histogram a, b;
    a.add(10.0);
    b.add(1000.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.max(), 1000.0);
}

TEST(HistogramTest, MergeIncompatiblePanics)
{
    Histogram a(1.0, 1.15, 64);
    Histogram b(1.0, 1.15, 128);
    EXPECT_THROW(a.merge(b), PanicError);
    Histogram c(2.0, 1.15, 64);
    EXPECT_THROW(a.merge(c), PanicError);
}

TEST(HistogramTest, BucketEdgesGrowGeometrically)
{
    Histogram h(1.0, 2.0, 16);
    EXPECT_DOUBLE_EQ(h.bucketLowerEdge(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerEdge(1), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerEdge(2), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerEdge(3), 4.0);
}

TEST(HistogramTest, OverflowLandsInLastBucket)
{
    Histogram h(1.0, 2.0, 4);
    h.add(1e12);
    EXPECT_EQ(h.bucketCount(3), 1u);
}

TEST(HistogramTest, InvalidConstructionPanics)
{
    EXPECT_THROW(Histogram(0.0, 1.15, 64), PanicError);
    EXPECT_THROW(Histogram(1.0, 1.0, 64), PanicError);
    EXPECT_THROW(Histogram(1.0, 1.15, 1), PanicError);
}

TEST(HistogramTest, PercentileHelpersOnEmptyAreAllZero)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_DOUBLE_EQ(h.p90(), 0.0);
    EXPECT_DOUBLE_EQ(h.p95(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
    // Degenerate q values are equally harmless when empty.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(HistogramTest, SingleSamplePercentilesAllCollapse)
{
    Histogram h;
    h.add(1234.5);
    // With one sample every percentile is that sample.
    EXPECT_DOUBLE_EQ(h.p50(), 1234.5);
    EXPECT_DOUBLE_EQ(h.p90(), 1234.5);
    EXPECT_DOUBLE_EQ(h.p95(), 1234.5);
    EXPECT_DOUBLE_EQ(h.p99(), 1234.5);
}

TEST(HistogramTest, HeavyTailSeparatesTailPercentilesFromMedian)
{
    // 950 fast ops at ~1 ms, 50 stragglers at ~100 s: the shape of a
    // control-plane latency column with a full-clone tail.  The
    // median must ignore the tail and p99 must land in it.
    Histogram h;
    for (int i = 0; i < 950; ++i)
        h.add(1000.0 + i); // ~1 ms, spread over a few buckets
    for (int i = 0; i < 50; ++i)
        h.add(1e8 + i * 1e6); // ~100 s stragglers

    double p50 = h.p50();
    double p99 = h.p99();
    EXPECT_GT(p50, 500.0);
    EXPECT_LT(p50, 5000.0);
    EXPECT_GE(p99, 9e7);
    EXPECT_LE(p99, h.max());
    // The tail dominates the mean but not the median.
    EXPECT_GT(h.mean(), p50 * 100);
    // Monotone through the tail: p50 <= p95 <= p99.
    EXPECT_LE(p50, h.p95());
    EXPECT_LE(h.p95(), p99);
}

TEST(HistogramTest, HeavyTailParetoPercentilesTrackAnalytic)
{
    // Pareto(alpha=1.5): infinite variance, the classic heavy tail.
    // Quantiles must still come out near the analytic values.
    Rng rng(7);
    double alpha = 1.5, xm = 10.0;
    Histogram h(1.0, 1.1, 256);
    for (int i = 0; i < 200000; ++i) {
        double u = rng.uniform(0.0, 1.0);
        if (u >= 1.0)
            continue;
        h.add(xm / std::pow(1.0 - u, 1.0 / alpha));
    }
    auto analytic = [&](double q) {
        return xm / std::pow(1.0 - q, 1.0 / alpha);
    };
    EXPECT_NEAR(h.p50(), analytic(0.50), analytic(0.50) * 0.12);
    EXPECT_NEAR(h.p95(), analytic(0.95), analytic(0.95) * 0.12);
    EXPECT_NEAR(h.p99(), analytic(0.99), analytic(0.99) * 0.15);
}

/**
 * Property: for a large exponential sample the histogram's quantile
 * estimate is within the bucket relative error of the analytic
 * quantile.
 */
class HistogramQuantileAccuracy
    : public ::testing::TestWithParam<double> // quantile q
{};

TEST_P(HistogramQuantileAccuracy, ExponentialQuantilesClose)
{
    double q = GetParam();
    Rng rng(99);
    double mean = 250.0;
    Histogram h(1.0, 1.1, 256);
    for (int i = 0; i < 200000; ++i)
        h.add(rng.exponential(mean));
    double analytic = -mean * std::log(1.0 - q);
    // Geometric buckets with growth 1.1 plus sampling noise: allow
    // 12% relative error.
    EXPECT_NEAR(h.quantile(q), analytic, analytic * 0.12);
}

INSTANTIATE_TEST_SUITE_P(QuantileSweep, HistogramQuantileAccuracy,
                         ::testing::Values(0.25, 0.5, 0.75, 0.9, 0.95,
                                           0.99));

} // namespace
} // namespace vcp
