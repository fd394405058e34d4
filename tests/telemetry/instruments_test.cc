/**
 * @file
 * Instrument-primitive tests: the histogram's merge identity — N
 * histograms fed disjoint streams and then merged must equal one
 * histogram fed the interleaved stream (perfbench sums its management
 * domains' histograms this way).
 */

#include <gtest/gtest.h>

#include <random>

#include "sim/types.hh"
#include "trace/latency_hist.hh"

namespace vcp {
namespace {

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
