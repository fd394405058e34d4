/**
 * @file
 * Registry + snapshot-emitter tests: gauge probes, counter probes whose
 * window is exactly the change since the previous snapshot, the
 * snapshot edge cases (a window with zero events; a run shorter than
 * one window), the health report, and the O(instruments) footprint
 * contract.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "telemetry/health.hh"
#include "telemetry/snapshot.hh"
#include "telemetry/telemetry.hh"

namespace vcp {
namespace {

/** Register a fixed resource list on @p reg. */
void
setUtils(TelemetryRegistry &reg, std::vector<ResourceUtilization> u)
{
    reg.setUtilizations([u] { return u; });
}

TEST(TelemetryRegistry, GaugeProbesSampleIntoDecayingGauges)
{
    TelemetryRegistry reg(seconds(8));
    std::int64_t depth = 5;
    reg.addGaugeProbe("q", [&] { return depth; });
    reg.sampleGauges(seconds(1));
    depth = 9;
    reg.sampleGauges(seconds(2));

    const DecayingGauge *g = reg.findGauge("q");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->samples(), 2u);
    EXPECT_DOUBLE_EQ(g->last(), 9.0);
    EXPECT_DOUBLE_EQ(g->max(), 9.0);
}

TEST(TelemetryRegistry, FootprintIsIndependentOfRunLength)
{
    // The O(1)-memory contract: a 10x-longer event stream leaves the
    // instrument footprint bit-for-bit identical.
    auto run = [](SimTime end) {
        TelemetryRegistry reg(seconds(60));
        std::uint64_t ops = 0;
        reg.addCounterProbe("ops", [&] { return ops; });
        LatencyHistogram *h = reg.histogram("lat");
        DecayingGauge *g = reg.gauge("q");
        for (SimTime t = 0; t < end; t += msec(100)) {
            ++ops;
            h->add(t % 10'000);
            g->sample(t, static_cast<double>(t % 50));
        }
        // Get-or-create: the series keeps its one histogram.
        EXPECT_EQ(reg.histogram("lat"), h);
        EXPECT_EQ(reg.mergedHistogram("lat").count(), h->count());
        EXPECT_EQ(reg.mergedCounter("ops").total(), ops);
        return std::pair(reg.numInstruments(), reg.footprintBytes());
    };
    auto short_run = run(seconds(10));
    auto long_run = run(seconds(100));
    EXPECT_GT(short_run.second, 0u);
    EXPECT_EQ(long_run.first, short_run.first);
    EXPECT_EQ(long_run.second, short_run.second);
}

TEST(SnapshotEmitter, EmitsOneLinePerWindow)
{
    Simulator sim(1);
    TelemetryRegistry reg(seconds(10));
    std::uint64_t ops = 0;
    reg.addCounterProbe("ops", [&] { return ops; });
    sim.schedule(seconds(3), [&] { ++ops; });
    // Early in the second window: the window still holds it.
    sim.schedule(msec(10'500), [&] { ++ops; });

    SnapshotEmitter em(sim, reg, seconds(10));
    std::ostringstream out;
    em.writeTo(&out);
    em.start();
    sim.runUntil(seconds(30));
    em.stop();

    EXPECT_EQ(em.snapshots(), 3u);
    std::istringstream lines(out.str());
    std::string line;
    int n = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.find("{\"type\":\"snapshot\""), 0u) << line;
        ++n;
    }
    EXPECT_EQ(n, 3);
    // Window totals: 1 event in window 1, 1 in window 2, 0 in 3.
    EXPECT_NE(out.str().find("\"ops\":{\"total\":1,\"window\":1"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"ops\":{\"total\":2,\"window\":1,"
                             "\"rate_per_s\":0.1}"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"ops\":{\"total\":2,\"window\":0"),
              std::string::npos);
    EXPECT_EQ(reg.mergedCounter("ops").total(), 2u);
}

TEST(SnapshotEmitter, WindowWithZeroEventsStillEmits)
{
    Simulator sim(1);
    TelemetryRegistry reg(seconds(5));
    // Registered but never incremented.
    reg.addCounterProbe("ops", [] { return std::uint64_t{0}; });
    setUtils(reg, {{"util.x", true, 0.25}});

    SnapshotEmitter em(sim, reg, seconds(5));
    std::ostringstream out;
    em.writeTo(&out);
    em.start();
    sim.schedule(seconds(20), [] {}); // keep the clock moving
    sim.runUntil(seconds(20));
    em.stop();

    EXPECT_EQ(em.snapshots(), 4u);
    EXPECT_NE(out.str().find(
                  "\"ops\":{\"total\":0,\"window\":0,"
                  "\"rate_per_s\":0}"),
              std::string::npos);
}

TEST(SnapshotEmitter, RunShorterThanOneWindowSnapshotsAtFinish)
{
    Simulator sim(1);
    TelemetryRegistry reg(seconds(60));
    std::uint64_t ops = 0;
    reg.addCounterProbe("ops", [&] { return ops; });
    setUtils(reg, {{"util.x", true, 0.5}});
    sim.schedule(seconds(2), [&] { ++ops; });

    SnapshotEmitter em(sim, reg, seconds(60));
    std::ostringstream out;
    em.writeTo(&out);
    em.start();
    sim.runUntil(seconds(3)); // far short of the first window tick
    em.stop();
    EXPECT_EQ(em.snapshots(), 0u);

    HealthReport hr = buildHealthReport(reg, sim.now(),
                                        em.recentDominants(),
                                        em.windowWins());
    em.finish(hr);

    // finish() emitted the partial-window snapshot plus the health
    // line, so even a tiny run yields a complete metrics file.
    EXPECT_EQ(em.snapshots(), 1u);
    std::istringstream lines(out.str());
    std::string first, second, extra;
    ASSERT_TRUE(std::getline(lines, first));
    ASSERT_TRUE(std::getline(lines, second));
    EXPECT_FALSE(std::getline(lines, extra));
    EXPECT_EQ(first.find("{\"type\":\"snapshot\""), 0u);
    EXPECT_NE(first.find("\"ops\":{\"total\":1,\"window\":1"),
              std::string::npos);
    EXPECT_EQ(second.find("{\"type\":\"health\""), 0u);
    EXPECT_NE(second.find("\"dominant\":\"util.x\""),
              std::string::npos);
}

TEST(SnapshotEmitter, IdleWindowsHaveNoDominant)
{
    Simulator sim(1);
    TelemetryRegistry reg(seconds(5));
    setUtils(reg, {{"util.api", true, 0.0}, {"util.fabric", false, 0.0}});

    SnapshotEmitter em(sim, reg, seconds(5));
    em.start();
    sim.schedule(seconds(10), [] {});
    sim.runUntil(seconds(10));
    em.stop();

    HealthReport hr = buildHealthReport(reg, sim.now(),
                                        em.recentDominants(),
                                        em.windowWins());
    EXPECT_EQ(hr.recent_windows,
              (std::vector<std::string>{"none", "none"}));
    EXPECT_EQ(hr.dominant, "none");
    EXPECT_FALSE(hr.control_plane_limited);
}

TEST(SnapshotEmitter, FinishReportsAFailedStream)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    Simulator sim(1);
    TelemetryRegistry reg(seconds(5));
    reg.addCounterProbe("ops", [] { return std::uint64_t{0}; });
    SnapshotEmitter em(sim, reg, seconds(5));
    std::ofstream full("/dev/full");
    ASSERT_TRUE(full.is_open());
    em.writeTo(&full);
    em.start();
    sim.schedule(seconds(10), [] {});
    sim.runUntil(seconds(10));
    em.stop();

    setLogQuiet(true);
    bool ok = em.finish(buildHealthReport(reg, sim.now(), {}, {}));
    setLogQuiet(false);
    EXPECT_FALSE(ok);
}

TEST(SnapshotEmitter, FinishReportsAnUnwritablePromFile)
{
    Simulator sim(1);
    TelemetryRegistry reg(seconds(5));
    reg.addCounterProbe("ops", [] { return std::uint64_t{0}; });
    const std::string path =
        ::testing::TempDir() + "vcp_snapshot_finish.ndjson";
    std::filesystem::remove_all(path + ".prom");

    SnapshotEmitter good(sim, reg, seconds(5));
    ASSERT_TRUE(good.openNdjson(path));
    EXPECT_TRUE(good.finish(buildHealthReport(reg, 0, {}, {})));

    // A directory where the Prometheus file should go.
    std::filesystem::remove(path + ".prom");
    std::filesystem::create_directory(path + ".prom");
    SnapshotEmitter bad(sim, reg, seconds(5));
    ASSERT_TRUE(bad.openNdjson(path));
    setLogQuiet(true);
    bool ok = bad.finish(buildHealthReport(reg, 0, {}, {}));
    setLogQuiet(false);
    EXPECT_FALSE(ok);
    std::filesystem::remove_all(path + ".prom");
    std::filesystem::remove(path);
}

TEST(SnapshotEmitter, UnstartedEmitterSchedulesNothing)
{
    Simulator sim(1);
    TelemetryRegistry reg;
    SnapshotEmitter em(sim, reg);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.run();
    EXPECT_EQ(sim.eventsProcessed(), 0u);
    EXPECT_EQ(em.snapshots(), 0u);
}

TEST(HealthReport, RanksSubsystemsAndFlagsControlPlane)
{
    TelemetryRegistry reg;
    setUtils(reg, {{"util.api", true, 0.9}, {"util.fabric", false, 0.4}});

    HealthReport hr = buildHealthReport(reg, seconds(5), {}, {});
    ASSERT_EQ(hr.subsystems.size(), 2u);
    EXPECT_EQ(hr.subsystems[0].name, "util.api");
    EXPECT_EQ(hr.dominant, "util.api");
    EXPECT_TRUE(hr.control_plane_limited);

    hr.top_hosts = {{"h1", 0.2}, {"h2", 0.8}, {"h3", 0.0}};
    topKCongested(hr.top_hosts, 2);
    ASSERT_EQ(hr.top_hosts.size(), 2u);
    EXPECT_EQ(hr.top_hosts[0].name, "h2");
    EXPECT_EQ(hr.top_hosts[1].name, "h1");

    std::string txt = healthText(hr);
    EXPECT_NE(txt.find("util.api"), std::string::npos);
    EXPECT_NE(txt.find("control plane"), std::string::npos);
    std::string json = healthJson(hr);
    EXPECT_EQ(json.find("{\"type\":\"health\""), 0u);
    EXPECT_NE(json.find("\"control_plane_limited\":true"),
              std::string::npos);
}

TEST(HealthReport, DataPlaneDominantIsNotControlLimited)
{
    TelemetryRegistry reg;
    setUtils(reg, {{"util.fabric", false, 0.9}, {"util.api", true, 0.1}});
    HealthReport hr = buildHealthReport(reg, 0, {}, {});
    EXPECT_EQ(hr.dominant, "util.fabric");
    EXPECT_FALSE(hr.control_plane_limited);
}

} // namespace
} // namespace vcp
