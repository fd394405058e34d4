/**
 * @file
 * Tests for the RNG and distribution samplers, including
 * parameterized statistical property checks (moments within
 * tolerance of their analytic values).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/summary.hh"

namespace vcp {
namespace {

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(9), b(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, ForkProducesIndependentStream)
{
    Rng a(9);
    Rng child = a.fork();
    // The fork must not replay the parent's stream.
    Rng parent_copy(9);
    parent_copy.fork();
    bool all_equal = true;
    for (int i = 0; i < 32; ++i) {
        if (a.uniform() != child.uniform())
            all_equal = false;
    }
    EXPECT_FALSE(all_equal);
}

TEST(RngTest, UniformIntBoundsInclusive)
{
    Rng rng(1);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = rng.uniformInt(3, 7);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 7);
        saw_lo |= (v == 3);
        saw_hi |= (v == 7);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntInvertedBoundsPanics)
{
    Rng rng(1);
    EXPECT_THROW(rng.uniformInt(5, 4), PanicError);
}

TEST(RngTest, BernoulliEdgeCases)
{
    Rng rng(1);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(RngTest, ExponentialNonpositiveMeanPanics)
{
    Rng rng(1);
    EXPECT_THROW(rng.exponential(0.0), PanicError);
    EXPECT_THROW(rng.exponential(-1.0), PanicError);
}

TEST(RngTest, LognormalMeanCvDegenerateCvIsConstant)
{
    Rng rng(1);
    EXPECT_DOUBLE_EQ(rng.lognormalMeanCv(42.0, 0.0), 42.0);
}

/** Statistical property check: (mean, cv) parameterization holds. */
class LognormalMomentsTest
    : public ::testing::TestWithParam<std::pair<double, double>>
{};

TEST_P(LognormalMomentsTest, MeanAndCvMatch)
{
    auto [mean, cv] = GetParam();
    Rng rng(77);
    SummaryStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.lognormalMeanCv(mean, cv));
    EXPECT_NEAR(s.mean(), mean, mean * 0.05);
    EXPECT_NEAR(s.cv(), cv, cv * 0.10);
}

INSTANTIATE_TEST_SUITE_P(
    MeanCvSweep, LognormalMomentsTest,
    ::testing::Values(std::make_pair(10.0, 0.2),
                      std::make_pair(100.0, 0.5),
                      std::make_pair(1000.0, 1.0),
                      std::make_pair(5.0, 2.0)));

/** Exponential mean sweep. */
class ExponentialMeanTest : public ::testing::TestWithParam<double>
{};

TEST_P(ExponentialMeanTest, MeanMatches)
{
    double mean = GetParam();
    Rng rng(5);
    SummaryStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.exponential(mean));
    EXPECT_NEAR(s.mean(), mean, mean * 0.05);
    // Exponential CV is 1.
    EXPECT_NEAR(s.cv(), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(MeanSweep, ExponentialMeanTest,
                         ::testing::Values(0.1, 1.0, 50.0, 10000.0));

TEST(ZipfSamplerTest, UniformWhenSkewZero)
{
    Rng rng(11);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 50000; ++i)
        counts[static_cast<std::size_t>(z(rng))]++;
    for (int c : counts)
        EXPECT_NEAR(c, 5000, 450);
}

TEST(ZipfSamplerTest, SkewFavorsLowRanks)
{
    Rng rng(11);
    ZipfSampler z(100, 1.2);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        counts[static_cast<std::size_t>(z(rng))]++;
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfSamplerTest, PmfSumsToOne)
{
    ZipfSampler z(50, 0.9);
    double sum = 0.0;
    for (std::int64_t r = 0; r < 50; ++r)
        sum += z.pmf(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(z.pmf(-1), 0.0);
    EXPECT_DOUBLE_EQ(z.pmf(50), 0.0);
}

TEST(ZipfSamplerTest, SizeOnePanicsOnZero)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), PanicError);
    ZipfSampler one(1, 1.0);
    Rng rng(1);
    EXPECT_EQ(one(rng), 0);
}

TEST(DiscreteSamplerTest, RespectsWeights)
{
    Rng rng(4);
    DiscreteSampler d({1.0, 0.0, 3.0});
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 40000; ++i)
        counts[d(rng)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
    EXPECT_NEAR(d.probability(0), 0.25, 1e-12);
    EXPECT_NEAR(d.probability(2), 0.75, 1e-12);
    EXPECT_DOUBLE_EQ(d.probability(9), 0.0);
}

TEST(DiscreteSamplerTest, InvalidWeightsPanic)
{
    EXPECT_THROW(DiscreteSampler({}), PanicError);
    EXPECT_THROW(DiscreteSampler({0.0, 0.0}), PanicError);
    EXPECT_THROW(DiscreteSampler({1.0, -0.5}), PanicError);
}

} // namespace
} // namespace vcp
