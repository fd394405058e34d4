/**
 * @file
 * Instrument-primitive tests: the decaying gauge, and the histogram's
 * merge identity — N histograms fed disjoint streams and then merged
 * must equal one histogram fed the interleaved stream (perfbench sums
 * its management domains' histograms this way).
 */

#include <gtest/gtest.h>

#include <random>

#include "telemetry/instruments.hh"
#include "trace/latency_hist.hh"

namespace vcp {
namespace {

TEST(DecayingGauge, FirstSampleSeedsEwma)
{
    DecayingGauge g(seconds(10));
    g.sample(seconds(1), 40.0);
    EXPECT_DOUBLE_EQ(g.ewma(), 40.0);
    EXPECT_DOUBLE_EQ(g.last(), 40.0);
    EXPECT_DOUBLE_EQ(g.min(), 40.0);
    EXPECT_DOUBLE_EQ(g.max(), 40.0);
}

TEST(DecayingGauge, EwmaDecaysTowardNewLevel)
{
    DecayingGauge g(seconds(10));
    g.sample(seconds(0), 100.0);
    g.sample(seconds(10), 0.0); // one tau later
    // After one time constant the EWMA has closed 1-1/e of the gap.
    EXPECT_NEAR(g.ewma(), 100.0 * std::exp(-1.0), 1e-9);
    EXPECT_DOUBLE_EQ(g.last(), 0.0);
    EXPECT_DOUBLE_EQ(g.min(), 0.0);
    EXPECT_DOUBLE_EQ(g.max(), 100.0);
    EXPECT_EQ(g.samples(), 2u);
}

TEST(DecayingGauge, EmptyGaugeReadsZero)
{
    DecayingGauge g;
    EXPECT_DOUBLE_EQ(g.ewma(), 0.0);
    EXPECT_DOUBLE_EQ(g.min(), 0.0);
    EXPECT_DOUBLE_EQ(g.max(), 0.0);
    EXPECT_EQ(g.samples(), 0u);
}

TEST(LatencyHistogram, MergeEqualsSingleHistogramOracle)
{
    LatencyHistogram oracle, a, b, c;
    std::mt19937 rng(11);
    for (int i = 0; i < 2000; ++i) {
        auto v = static_cast<SimDuration>(1 + rng() % 5'000'000);
        oracle.add(v);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
    }
    LatencyHistogram merged;
    merged.merge(a);
    merged.merge(b);
    merged.merge(c);

    EXPECT_EQ(merged.count(), oracle.count());
    EXPECT_DOUBLE_EQ(merged.sum(), oracle.sum());
    EXPECT_DOUBLE_EQ(merged.min(), oracle.min());
    EXPECT_DOUBLE_EQ(merged.max(), oracle.max());
    // Bucketed, so quantiles are *exactly* equal, not just close.
    EXPECT_DOUBLE_EQ(merged.p50(), oracle.p50());
    EXPECT_DOUBLE_EQ(merged.p95(), oracle.p95());
    EXPECT_DOUBLE_EQ(merged.p99(), oracle.p99());
}

TEST(LatencyHistogram, MergeOfEmptyIsIdentity)
{
    LatencyHistogram h, empty;
    h.add(usec(500));
    LatencyHistogram before = h;
    h.merge(empty);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), before.min());
    EXPECT_DOUBLE_EQ(h.max(), before.max());

    LatencyHistogram onto_empty;
    onto_empty.merge(h);
    EXPECT_EQ(onto_empty.count(), 1u);
    EXPECT_DOUBLE_EQ(onto_empty.p50(), h.p50());
}

} // namespace
} // namespace vcp
