/**
 * @file
 * Tests for the arrival model: rate accuracy, diurnal shape,
 * burstiness, and parameter validation.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/logging.hh"
#include "sim/summary.hh"
#include "workload/actions.hh"
#include "workload/arrival.hh"

namespace vcp {
namespace {

TEST(ArrivalTest, PoissonMeanRateMatches)
{
    ArrivalConfig cfg;
    cfg.rate_per_hour = 60.0; // one per minute
    ArrivalModel m(cfg, Rng(5));
    SummaryStats gaps;
    SimTime now = 0;
    for (int i = 0; i < 50000; ++i) {
        SimDuration d = m.nextDelay(now);
        gaps.add(toSeconds(d));
        now += d;
    }
    EXPECT_NEAR(gaps.mean(), 60.0, 2.0);
    EXPECT_NEAR(gaps.cv(), 1.0, 0.05);
}

TEST(ArrivalTest, RateAtFlatWithoutDiurnal)
{
    ArrivalConfig cfg;
    cfg.rate_per_hour = 10.0;
    ArrivalModel m(cfg, Rng(5));
    EXPECT_DOUBLE_EQ(m.rateAt(0), 10.0);
    EXPECT_DOUBLE_EQ(m.rateAt(hours(13)), 10.0);
}

TEST(ArrivalTest, DiurnalPeaksAtPeakHour)
{
    ArrivalConfig cfg;
    cfg.rate_per_hour = 100.0;
    cfg.diurnal = true;
    cfg.diurnal_amplitude = 0.5;
    cfg.peak_hour = 14.0;
    ArrivalModel m(cfg, Rng(5));
    EXPECT_NEAR(m.rateAt(hours(14)), 150.0, 1e-9);
    EXPECT_NEAR(m.rateAt(hours(2)), 50.0, 1e-9);
    // Mid-slope.
    EXPECT_NEAR(m.rateAt(hours(8)), 100.0, 1.0);
}

TEST(ArrivalTest, DiurnalEmpiricalRatesFollowCurve)
{
    ArrivalConfig cfg;
    cfg.rate_per_hour = 240.0;
    cfg.diurnal = true;
    cfg.diurnal_amplitude = 0.8;
    cfg.peak_hour = 12.0;
    ArrivalModel m(cfg, Rng(5));
    // Count arrivals per hour over several days.
    std::vector<double> hourly(24, 0.0);
    SimTime now = 0;
    const int sim_days = 20;
    while (now < days(sim_days)) {
        now += m.nextDelay(now);
        int hour = static_cast<int>(toHours(now)) % 24;
        hourly[static_cast<std::size_t>(hour)] += 1.0;
    }
    double peak = hourly[12] / sim_days;
    double trough = hourly[0] / sim_days;
    // 0.8 amplitude: peak/trough = 1.8/0.2 = 9; allow generous slack
    // for randomness.
    EXPECT_GT(peak / trough, 4.0);
    EXPECT_NEAR(peak, 240.0 * 1.8, 240.0 * 0.35);
}

TEST(ArrivalTest, HighCvProducesBurstyGaps)
{
    ArrivalConfig cfg;
    cfg.rate_per_hour = 60.0;
    cfg.cv = 3.0;
    ArrivalModel m(cfg, Rng(5));
    SummaryStats gaps;
    SimTime now = 0;
    for (int i = 0; i < 50000; ++i) {
        SimDuration d = m.nextDelay(now);
        gaps.add(toSeconds(d));
        now += d;
    }
    EXPECT_NEAR(gaps.mean(), 60.0, 3.0);
    EXPECT_NEAR(gaps.cv(), 3.0, 0.3);
}

TEST(ArrivalTest, InvalidConfigRejected)
{
    ArrivalConfig cfg;
    cfg.rate_per_hour = 0.0;
    EXPECT_THROW(ArrivalModel(cfg, Rng(1)), FatalError);

    cfg = ArrivalConfig();
    cfg.diurnal = true;
    cfg.diurnal_amplitude = 1.0;
    EXPECT_THROW(ArrivalModel(cfg, Rng(1)), FatalError);

    cfg = ArrivalConfig();
    cfg.cv = 0.5;
    EXPECT_THROW(ArrivalModel(cfg, Rng(1)), FatalError);
}

TEST(ActionsTest, NamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kNumCloudActions; ++i) {
        std::string name = cloudActionName(static_cast<CloudAction>(i));
        EXPECT_NE(name, "unknown");
        EXPECT_TRUE(names.insert(name).second) << name;
    }
}

} // namespace
} // namespace vcp
