/**
 * @file
 * Chaos scenario engine: deterministic, seeded schedules of faults
 * across every layer the control plane depends on.
 *
 * The engine is the simulator's one fault injector.  A scenario is a
 * set of independent *lanes*, one per configured fault, each with its
 * own forked RNG stream drawing exponential inter-injection gaps and
 * fault durations:
 *
 *  - crash:       abrupt host death + HA boot-storm recovery
 *  - disconnect:  the host *agent* goes dark (VMs keep running);
 *                 reconnect triggers the server's reconciliation pass
 *  - db-stall:    database failover window — txn chains park between
 *                 statements until the stall lifts
 *  - link-down:   one fabric link partitions, rerouting or failing
 *                 in-flight transfers, then heals
 *  - switch-down: one spine (or ToR) switch partitions, then heals
 *
 * Every event is scheduled on the control-shard kernel, so a chaos
 * scenario is byte-identical across --parallel-shards merge mode for
 * any shard count, and identical for a fixed seed by construction.
 * NOTE: lanes re-arm indefinitely — drive such simulations with
 * runUntil().
 */

#ifndef VCP_WORKLOAD_CHAOS_HH
#define VCP_WORKLOAD_CHAOS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cloud/ha_manager.hh"
#include "sim/random.hh"
#include "sim/summary.hh"

namespace vcp {

class LatencyHistogram;
class TelemetryRegistry;

/** Fault families the engine can inject. */
enum class FaultFamily : std::uint8_t
{
    HostCrash,
    HostDisconnect,
    DbStall,
    LinkDown,
    SwitchDown,
};

constexpr std::size_t kNumFaultFamilies = 5;

/** Stable spec name ("crash", "disconnect", "db-stall", ...). */
const char *faultFamilyName(FaultFamily f);

/** Parse a family name; false if unknown. */
bool faultFamilyFromName(const std::string &name, FaultFamily &out);

/** One fault lane: a family plus its schedule parameters. */
struct FaultSpec
{
    FaultFamily family = FaultFamily::HostCrash;

    /** Mean time between injections on this lane (> 0). */
    SimDuration mtbf = hours(2);

    /** Mean fault duration before recovery begins (> 0). */
    SimDuration duration = minutes(10);
};

/** A chaos scenario: any number of independent fault lanes. */
struct ChaosConfig
{
    std::vector<FaultSpec> faults;
};

/**
 * Parse a chaos scenario spec:
 *
 *   family:mtbf=30m,duration=5m[;family:...]
 *
 * Families: crash | disconnect | db-stall | link-down | switch-down.
 * Durations are strict positive numbers with a required s|m|h unit
 * suffix ("90s", "10m", "2.5h").
 * @return false with a diagnostic in @p err on malformed input.
 */
bool parseChaosSpec(const std::string &spec, ChaosConfig &out,
                    std::string &err);

/**
 * `vcpsim --mtbf H`: append a crash lane with mean time between
 * failures @p mtbf and a 15-minute mean outage.  A non-positive
 * @p mtbf adds no lane.
 */
void addMtbfCrashLane(ChaosConfig &cfg, SimDuration mtbf);

/** Drives a chaos scenario against a running cloud. */
class ChaosEngine
{
  public:
    /** Per-family injection/recovery accounting. */
    struct FamilyStats
    {
        std::uint64_t injected = 0;
        std::uint64_t recovered = 0;
        /** Injection -> recovery-complete latency (microseconds). */
        SummaryStats recovery_us;
    };

    /**
     * @param srv the management server under test.
     * @param ha crash/recovery workflows (crash lanes).
     * @param cfg the scenario.
     * @param rng private random stream; each lane forks its own, so
     *        lanes do not perturb one another's schedules.
     */
    ChaosEngine(ManagementServer &srv, HaManager &ha,
                const ChaosConfig &cfg, Rng rng);

    ChaosEngine(const ChaosEngine &) = delete;
    ChaosEngine &operator=(const ChaosEngine &) = delete;

    /** Arm every lane (schedules each lane's first injection). */
    void start();

    /**
     * Stop injecting.  Host faults stay as they are (a stopped
     * scenario leaves crashed/dark hosts down); already-scheduled
     * *environmental* heals (db stall, link, switch) still fire so the
     * plant does not stay broken by an artifact of when stop() ran —
     * they just no longer count.
     */
    void stop() { running = false; }

    /**
     * Repair everything this engine broke that is still broken:
     * recover crashed hosts, reconcile dark agents, lift the DB
     * stall, restore downed links and switches.  For benches/tests
     * that need a clean drain after stop().
     */
    void quiesce();

    /** Attach streaming telemetry: "chaos.injected"/"chaos.recovered"
     *  counters, a "chaos.recovery_us" histogram, and per-configured-
     *  family "chaos.<family>.injected/.recovered" counters (one pair
     *  per family, however many lanes share it).  The counters read
     *  injected(), recovered() and familyStats().  Pass nullptr to
     *  detach the histogram. */
    void attachTelemetry(TelemetryRegistry *reg);

    /** @{ Accounting. */
    const FamilyStats &familyStats(FaultFamily f) const
    {
        return fam_stats[static_cast<std::size_t>(f)];
    }
    std::uint64_t injected() const { return injected_total; }
    std::uint64_t recovered() const { return recovered_total; }
    const ChaosConfig &config() const { return cfg; }
    /** @} */

  private:
    struct Lane
    {
        FaultSpec spec;
        Rng rng;
    };

    void armLane(std::size_t lane);
    void fireLane(std::size_t lane);

    void injectCrash(Lane &l);
    void injectDisconnect(Lane &l);
    void injectDbStall(Lane &l);
    void injectLinkDown(Lane &l);
    void injectSwitchDown(Lane &l);

    /** Record one injection on @p family. */
    void countInjected(FaultFamily family);

    /** Record one completed recovery injected at @p injected_at. */
    void countRecovered(FaultFamily family, SimTime injected_at);

    /**
     * Draw an exponential gap of mean @p mean from lane @p l's
     * stream, capped at the event horizon: an event past it would
     * panic in the event queue, and one at it never fires in a run
     * that ends inside the horizon.
     */
    SimDuration draw(Lane &l, SimDuration mean);

    /** Random connected, non-crashed host; invalid if none. */
    HostId pickHost(Lane &l);

    ManagementServer &srv;
    HaManager &ha;
    Inventory &inv;
    Simulator &sim;
    ChaosConfig cfg;
    std::vector<Lane> lanes;
    bool running = false;

    /** Overlapping db-stall injections nest; the stall lifts when
     *  the last one heals. */
    int db_stall_depth = 0;

    /** One-time "topology has no links/switches" warnings. */
    bool warned_no_links = false;
    bool warned_no_switches = false;

    std::array<FamilyStats, kNumFaultFamilies> fam_stats{};
    std::uint64_t injected_total = 0;
    std::uint64_t recovered_total = 0;

    /** Telemetry recovery histogram (null when detached). */
    LatencyHistogram *t_recovery_us = nullptr;
};

} // namespace vcp

#endif // VCP_WORKLOAD_CHAOS_HH
