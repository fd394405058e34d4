/**
 * @file
 * Tests for the named statistics registry.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "stats/registry.hh"

namespace vcp {
namespace {

TEST(StatRegistryTest, CounterLifecycle)
{
    StatRegistry reg;
    reg.counter("a.b").inc();
    reg.counter("a.b").inc(4);
    EXPECT_EQ(reg.counter("a.b").value(), 5u);
    EXPECT_TRUE(reg.has("a.b"));
    EXPECT_FALSE(reg.has("a.c"));
}

TEST(StatRegistryTest, HistogramCreateOnceParamsSticky)
{
    StatRegistry reg;
    Histogram &h1 = reg.histogram("h", 1.0, 2.0);
    // Second call with different params returns the same histogram.
    Histogram &h2 = reg.histogram("h", 100.0, 3.0);
    EXPECT_EQ(&h1, &h2);
    h1.add(5.0);
    EXPECT_EQ(reg.histogram("h").count(), 1u);
}

TEST(StatRegistryTest, LatencyCellCreatedOnceRendersAsHistogram)
{
    StatRegistry reg;
    EXPECT_EQ(reg.latencyOrEmpty("cp.lat").count(), 0u);
    EXPECT_FALSE(reg.has("cp.lat")); // reading created nothing

    LatencyHistogram &a = reg.latency("cp.lat");
    a.add(100);
    a.add(300);
    EXPECT_EQ(&reg.latency("cp.lat"), &a);
    EXPECT_EQ(&reg.latencyOrEmpty("cp.lat"), &a);
    EXPECT_TRUE(reg.has("cp.lat"));

    std::string csv = reg.toCsv();
    for (const char *f : {"count,2", "mean,200", "p50,", "p95,", "p99,",
                          "max,300"}) {
        EXPECT_NE(csv.find(std::string("cp.lat,histogram,") + f),
                  std::string::npos)
            << f;
    }
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7); // header + 6
}

TEST(StatRegistryTest, CsvMergesBothHistogramKindsByName)
{
    StatRegistry reg;
    reg.histogram("b").add(1.0);
    reg.latency("a").add(1);
    reg.latency("c").add(1);
    std::string csv = reg.toCsv();
    std::size_t a = csv.find("a,histogram,count");
    std::size_t b = csv.find("b,histogram,count");
    std::size_t c = csv.find("c,histogram,count");
    ASSERT_NE(c, std::string::npos);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
}

TEST(StatRegistryTest, CsvContainsAllStats)
{
    StatRegistry reg;
    reg.counter("ops").inc(7);
    reg.histogram("lat").add(100.0);
    std::string csv = reg.toCsv();
    EXPECT_NE(csv.find("ops,counter,value,7"), std::string::npos);
    EXPECT_NE(csv.find("lat,histogram,count,1"), std::string::npos);
    EXPECT_NE(csv.find("lat,histogram,p95"), std::string::npos);
}

} // namespace
} // namespace vcp
