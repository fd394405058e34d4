/**
 * @file
 * vcpsim — command-line front end for the simulator.
 *
 * Runs one of the built-in cloud profiles (optionally tweaked from
 * the command line), prints the operator-facing summary, and can
 * dump the operation/action traces and the statistics registry as
 * CSV for offline analysis.
 *
 *   vcpsim cloud-a --hours 24 --seed 7 --dump-ops ops.csv
 *   vcpsim cloud-b --rate 80 --full-clones --stats stats.csv
 *
 * The sweep mode runs one profile at several arrival rates, each
 * rate as an independent simulation distributed across worker
 * threads.  Per-point seeds are forked from (--seed, point index),
 * so --serial and parallel runs emit identical tables:
 *
 *   vcpsim sweep cloud-a --rates 30,60,120,240 --hours 4 --jobs 4
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "analysis/bottleneck.hh"
#include "analysis/breakdown.hh"
#include "analysis/report.hh"
#include "cloud/ha_manager.hh"
#include "sim/logging.hh"
#include "sim/parallel_sweep.hh"
#include "sim/parse_util.hh"
#include "stats/table.hh"
#include "telemetry/health.hh"
#include "telemetry/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "trace/perfetto.hh"
#include "trace/sampler.hh"
#include "trace/shard_lanes.hh"
#include "trace/tracer.hh"
#include "workload/chaos.hh"
#include "workload/profiles.hh"

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: vcpsim <cloud-a|cloud-b> [options]\n"
        "  --hours N          simulated workload hours (default 24)\n"
        "  --seed N           RNG seed (default 1)\n"
        "  --rate R           override arrival rate (actions/hour)\n"
        "  --hosts N          override host count\n"
        "  --full-clones      disable linked clones\n"
        "  --policy P         dispatch policy: fifo|fair-share|"
        "priority\n"
        "  --fabric P         data-path topology preset: single-link\n"
        "                     (flat shared pipe, default) or "
        "leaf-spine\n"
        "  --racks N          leaf-spine rack (ToR) count "
        "(default 4)\n"
        "  --spines N         leaf-spine spine-switch count "
        "(default 2)\n"
        "  --mtbf H           inject host crashes: shorthand for a\n"
        "                     crash:mtbf=Hh,duration=15m chaos lane,\n"
        "                     added to any --chaos lanes (0 = off)\n"
        "  --chaos SPEC       run a chaos scenario; SPEC is\n"
        "                     family:mtbf=30m,duration=5m[;...] with\n"
        "                     families crash|disconnect|db-stall|\n"
        "                     link-down|switch-down and s|m|h "
        "suffixes\n"
        "  --dump-ops FILE    write the finished-operation trace "
        "CSV\n"
        "  --dump-actions F   write the generator action trace CSV\n"
        "  --stats FILE       write the statistics registry CSV\n"
        "  --trace-out FILE   record op-lifecycle spans and write a\n"
        "                     Chrome/Perfetto trace_event JSON file\n"
        "                     (--trace-out=FILE also accepted)\n"
        "  --trace-capacity N span ring capacity in records "
        "(default 1M)\n"
        "  --metrics-out FILE stream windowed telemetry snapshots\n"
        "                     as ND-JSON to FILE during the run and\n"
        "                     Prometheus text format to FILE.prom\n"
        "                     (--metrics-out=FILE also accepted)\n"
        "  --metrics-interval S  snapshot window in sim-seconds "
        "(default 60)\n"
        "  --log-level L      silent|warn|info or 0..2 "
        "(default info)\n"
        "  --parallel-shards N  partition the event set across N\n"
        "                     per-shard kernels (deterministic merge\n"
        "                     execution: output is byte-identical to\n"
        "                     the serial run for any N)\n"
        "  --quiet            suppress warnings/info\n"
        "\n"
        "A single run ends with an info line on stderr: events, host\n"
        "wall seconds, events/s and peak RSS.\n"
        "\n"
        "usage: vcpsim sweep <cloud-a|cloud-b> [options]\n"
        "  --rates R1,R2,...  arrival rates to sweep "
        "(default 30,60,120,240,480)\n"
        "  --hours N          workload hours per point (default 4)\n"
        "  --seed N           base seed; per-point seeds are forked "
        "from it (default 1)\n"
        "  --full-clones      disable linked clones\n"
        "  --jobs N           worker threads (default: hardware "
        "concurrency)\n"
        "  --serial           run points one at a time (same "
        "results)\n"
        "  --parallel-shards N  intra-run sharding for every point\n"
        "                     (composes with --jobs: --jobs spreads\n"
        "                     whole points over threads, while merge-\n"
        "                     mode shards execute on the point's own\n"
        "                     worker — total threads stay at --jobs)\n"
        "  --csv FILE         also write the sweep table as CSV\n");
}

/**
 * The run footer: one info-level line on stderr with what the run
 * cost the host (simulated events, wall seconds from building the
 * cloud to the last export, events/s, peak RSS).  Stdout stays the
 * model's report.  Linux carries the launching process's peak RSS
 * across exec into ru_maxrss, so a small run started from a large
 * process reports that process's peak.
 */
void
printRunFooter(std::uint64_t events, double wall_s)
{
    if (vcp::logLevel() < vcp::LogLevel::Info)
        return;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(stderr,
                 "info: run: %llu events, %.3f s wall, %.0f events/s, "
                 "peak RSS %.1f MB\n",
                 (unsigned long long)events, wall_s,
                 wall_s > 0.0 ? double(events) / wall_s : 0.0,
                 double(ru.ru_maxrss) / 1024.0); // KiB on Linux
}

/**
 * Parse a strictly positive integer option value.  std::atoi would
 * silently turn garbage ("four", "") into 0 — here that used to make
 * `--jobs garbage` fall back to hardware concurrency without a word.
 * Trailing junk ("8x") is rejected too.
 */
int
parsePositiveInt(const char *flag, const char *value)
{
    int v = 0;
    if (!vcp::parseStrictPositiveInt(value, v) || v > (1 << 20)) {
        std::fprintf(stderr,
                     "vcpsim: %s expects a positive integer, got "
                     "'%s'\n",
                     flag, value);
        std::exit(2);
    }
    return v;
}

/**
 * Parse a strictly positive real option value ("0.5", "24").  The
 * std::atof these sites used silently turned garbage into 0.0, so
 * `--hours 4h` quietly simulated nothing.
 */
double
parsePositiveDouble(const char *flag, const char *value)
{
    double v = 0;
    if (!vcp::parseStrictPositiveDouble(value, v)) {
        std::fprintf(stderr,
                     "vcpsim: %s expects a positive number, got "
                     "'%s'\n",
                     flag, value);
        std::exit(2);
    }
    return v;
}

/** Parse a real option value that may legitimately be zero
 *  (--rate 0, --mtbf 0 both mean "off"). */
double
parseNonNegativeDouble(const char *flag, const char *value)
{
    double v = 0;
    if (!vcp::parseStrictNonNegativeDouble(value, v)) {
        std::fprintf(stderr,
                     "vcpsim: %s expects a non-negative number, got "
                     "'%s'\n",
                     flag, value);
        std::exit(2);
    }
    return v;
}

/**
 * Parse an hours option value (--hours, or --mtbf when @p allow_zero)
 * whose run, drain included, ends inside the simulator's event
 * horizon; a longer one would panic in the event queue.
 */
double
parseHours(const char *flag, const char *value, bool allow_zero)
{
    using vcp::CloudSimulation;
    double v = 0;
    if (!vcp::parseStrictHours(value, CloudSimulation::kDrain, v) ||
        (v == 0.0 && !allow_zero)) {
        std::fprintf(stderr,
                     "vcpsim: %s expects a %s number of hours, at most "
                     "%lld (the simulator's event horizon less the "
                     "drain), got '%s'\n",
                     flag, allow_zero ? "non-negative" : "positive",
                     static_cast<long long>(vcp::toHours(
                         vcp::kMaxEventTime - CloudSimulation::kDrain)),
                     value);
        std::exit(2);
    }
    return v;
}

/** Parse --parallel-shards: at most ShardedSimulator::kMaxShards. */
int
parseShards(const char *value)
{
    int v = parsePositiveInt("--parallel-shards", value);
    if (v > vcp::ShardedSimulator::kMaxShards) {
        std::fprintf(stderr,
                     "vcpsim: --parallel-shards expects at most %d "
                     "shards, got '%s'\n",
                     vcp::ShardedSimulator::kMaxShards, value);
        std::exit(2);
    }
    return v;
}

/** Parse an unsigned 64-bit option value (seeds; 0 is a fine seed). */
std::uint64_t
parseU64(const char *flag, const char *value)
{
    std::uint64_t v = 0;
    if (!vcp::parseStrictU64(value, v)) {
        std::fprintf(stderr,
                     "vcpsim: %s expects an unsigned integer, got "
                     "'%s'\n",
                     flag, value);
        std::exit(2);
    }
    return v;
}

/** Parse a strictly positive unsigned 64-bit option value. */
std::uint64_t
parsePositiveU64(const char *flag, const char *value)
{
    std::uint64_t v = parseU64(flag, value);
    if (v == 0) {
        std::fprintf(stderr,
                     "vcpsim: %s expects a positive integer, got "
                     "'%s'\n",
                     flag, value);
        std::exit(2);
    }
    return v;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    out << content;
    return true;
}

/** Per-point outcome of a sweep run. */
struct SweepRow
{
    std::uint64_t deploys_ok = 0;
    std::uint64_t deploys_failed = 0;
    std::uint64_t vms_provisioned = 0;
    std::uint64_t ops_failed = 0;
    std::string bottleneck;
    double bneck_util = 0.0;
};

int
sweepMain(int argc, char **argv)
{
    using namespace vcp;
    if (argc < 3) {
        usage();
        return 2;
    }

    CloudSetupSpec spec;
    std::string profile = argv[2];
    if (profile == "cloud-a") {
        spec = cloudASpec();
    } else if (profile == "cloud-b") {
        spec = cloudBSpec();
    } else {
        usage();
        return 2;
    }

    std::vector<double> rates = {30, 60, 120, 240, 480};
    double hours_per_point = 4.0;
    std::uint64_t seed = 1;
    int jobs = 0;
    std::string csv_path;

    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--rates") {
            rates.clear();
            std::string list = next();
            std::size_t pos = 0;
            while (pos < list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                rates.push_back(parsePositiveDouble(
                    "--rates",
                    list.substr(pos, comma - pos).c_str()));
                pos = comma + 1;
            }
            if (rates.empty()) {
                usage();
                return 2;
            }
        } else if (arg == "--hours") {
            hours_per_point = parseHours("--hours", next(), false);
        } else if (arg == "--seed") {
            seed = parseU64("--seed", next());
        } else if (arg == "--full-clones") {
            spec.director.use_linked_clones = false;
        } else if (arg == "--jobs") {
            jobs = parsePositiveInt("--jobs", next());
        } else if (arg == "--serial") {
            jobs = 1;
        } else if (arg == "--parallel-shards") {
            spec.exec.shards = parseShards(next());
        } else if (arg == "--csv") {
            csv_path = next();
        } else {
            usage();
            return 2;
        }
    }

    setLogQuiet(true);
    spec.workload.duration = hours(hours_per_point);

    ParallelSweepRunner runner(jobs);
    std::printf("vcpsim sweep: profile=%s points=%zu hours=%.1f "
                "seed=%llu threads=%d\n",
                spec.name.c_str(), rates.size(), hours_per_point,
                (unsigned long long)seed, runner.threads());

    std::vector<SweepRow> rows(rates.size());
    runner.run(rates.size(), [&](std::size_t i) {
        CloudSetupSpec s = spec;
        s.workload.arrival.rate_per_hour = rates[i];
        CloudSimulation cs(
            s, ParallelSweepRunner::forkSeed(seed, i));
        cs.run();
        ResourceUtilization top =
            bottleneckOf(collectUtilizations(cs.server()));
        SweepRow &r = rows[i];
        r.deploys_ok = cs.cloud().deploysSucceeded();
        r.deploys_failed = cs.cloud().deploysFailed();
        r.vms_provisioned = cs.cloud().vmsProvisioned();
        r.ops_failed = cs.server().opsFailed();
        r.bottleneck = top.name;
        r.bneck_util = top.utilization;
    });

    Table t({"rate/h", "deploys_ok", "deploys_failed",
             "vms_provisioned", "ops_failed", "bottleneck",
             "bneck_util"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        t.row()
            .cell(rates[i], 0)
            .cell(rows[i].deploys_ok)
            .cell(rows[i].deploys_failed)
            .cell(rows[i].vms_provisioned)
            .cell(rows[i].ops_failed)
            .cell(rows[i].bottleneck)
            .cell(rows[i].bneck_util, 2);
    }
    std::printf("%s", t.toText().c_str());
    if (!csv_path.empty() && !writeFile(csv_path, t.toCsv()))
        return 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vcp;
    if (argc < 2) {
        usage();
        return 2;
    }

    CloudSetupSpec spec;
    std::string profile = argv[1];
    if (profile == "sweep") {
        return sweepMain(argc, argv);
    } else if (profile == "cloud-a") {
        spec = cloudASpec();
    } else if (profile == "cloud-b") {
        spec = cloudBSpec();
    } else {
        usage();
        return 2;
    }

    std::uint64_t seed = 1;
    double mtbf_hours = 0.0;
    ChaosConfig chaos_cfg;
    std::string dump_ops, dump_actions, dump_stats, trace_out;
    std::string metrics_out;
    int metrics_interval_s = 60;
    std::size_t trace_capacity = 1u << 20;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--hours") {
            spec.workload.duration =
                hours(parseHours("--hours", next(), false));
        } else if (arg == "--seed") {
            seed = parseU64("--seed", next());
        } else if (arg == "--rate") {
            spec.workload.arrival.rate_per_hour =
                parseNonNegativeDouble("--rate", next());
        } else if (arg == "--hosts") {
            spec.infra.hosts = parsePositiveInt("--hosts", next());
        } else if (arg == "--parallel-shards") {
            spec.exec.shards = parseShards(next());
        } else if (arg == "--mtbf") {
            mtbf_hours = parseHours("--mtbf", next(), true);
        } else if (arg == "--chaos") {
            std::string err;
            if (!parseChaosSpec(next(), chaos_cfg, err)) {
                std::fprintf(stderr, "vcpsim: --chaos: %s\n",
                             err.c_str());
                return 2;
            }
        } else if (arg == "--full-clones") {
            spec.director.use_linked_clones = false;
        } else if (arg == "--fabric") {
            const char *p = next();
            if (!fabricPresetFromName(
                    p, spec.infra.network.fabric.preset)) {
                std::fprintf(stderr,
                             "vcpsim: unknown fabric preset '%s' "
                             "(single-link|leaf-spine)\n",
                             p);
                return 2;
            }
        } else if (arg == "--racks") {
            spec.infra.network.fabric.racks =
                parsePositiveInt("--racks", next());
        } else if (arg == "--spines") {
            spec.infra.network.fabric.spines =
                parsePositiveInt("--spines", next());
        } else if (arg == "--policy") {
            std::string p = next();
            if (p == "fifo")
                spec.server.policy = SchedPolicy::Fifo;
            else if (p == "fair-share")
                spec.server.policy = SchedPolicy::FairShare;
            else if (p == "priority")
                spec.server.policy = SchedPolicy::Priority;
            else {
                usage();
                return 2;
            }
        } else if (arg == "--dump-ops") {
            dump_ops = next();
        } else if (arg == "--dump-actions") {
            dump_actions = next();
        } else if (arg == "--stats") {
            dump_stats = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = arg.substr(std::strlen("--trace-out="));
        } else if (arg == "--trace-capacity") {
            trace_capacity = static_cast<std::size_t>(
                parsePositiveU64("--trace-capacity", next()));
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            metrics_out = arg.substr(std::strlen("--metrics-out="));
        } else if (arg == "--metrics-interval") {
            metrics_interval_s =
                parsePositiveInt("--metrics-interval", next());
        } else if (arg == "--log-level") {
            const char *l = next();
            LogLevel lvl;
            if (!parseLogLevel(l, lvl)) {
                std::fprintf(stderr,
                             "vcpsim: --log-level expects "
                             "silent|warn|info or 0..2, got '%s'\n",
                             l);
                return 2;
            }
            setLogLevel(lvl);
        } else if (arg == "--quiet") {
            setLogQuiet(true);
        } else {
            usage();
            return 2;
        }
    }
    // After the loop: --chaos replaces its lane list, --mtbf adds to it.
    addMtbfCrashLane(chaos_cfg, hours(mtbf_hours));
    // The op log is kept only to be dumped; the latency cells hold
    // every count and mean the report prints.
    spec.workload.record_ops = !dump_ops.empty();

    std::printf("vcpsim: profile=%s hours=%.1f seed=%llu linked=%s "
                "shards=%d\n",
                spec.name.c_str(), toHours(spec.workload.duration),
                (unsigned long long)seed,
                spec.director.use_linked_clones ? "yes" : "no",
                spec.exec.shards);

    auto t0 = std::chrono::steady_clock::now();
    CloudSimulation cs(spec, seed);

    std::unique_ptr<SpanTracer> tracer;
    std::unique_ptr<TelemetryRegistry> telem;
    std::unique_ptr<SnapshotEmitter> emitter;
    if (!trace_out.empty()) {
        TracerConfig tc;
        tc.capacity = trace_capacity;
        try {
            tracer = std::make_unique<SpanTracer>(tc);
        } catch (const std::bad_alloc &) {
            std::fprintf(stderr, "vcpsim: --trace-capacity %zu records "
                                 "do not fit in memory\n",
                         trace_capacity);
            return 2;
        }
        cs.enableTracing(tracer.get());
    }
    if (!metrics_out.empty()) {
        telem = std::make_unique<TelemetryRegistry>();
        cs.enableTelemetry(telem.get());
        emitter = std::make_unique<SnapshotEmitter>(
            cs.sim(), *telem, seconds(metrics_interval_s));
        if (!emitter->openNdjson(metrics_out))
            return 1;
        emitter->start();
    }
    // The trace's gauge tracks; without a tracer this records nothing.
    GaugeSampler sampler(cs.sim(), tracer.get());
    cs.addStandardGauges(sampler);
    sampler.start();

    HaManager ha(cs.server());
    // The chaos fork only happens when a scenario is configured, so
    // a chaos-free run's RNG stream — and therefore its output —
    // stays byte-identical to earlier builds.
    std::unique_ptr<ChaosEngine> chaos;
    if (!chaos_cfg.faults.empty()) {
        chaos = std::make_unique<ChaosEngine>(
            cs.server(), ha, chaos_cfg, cs.sim().rng().fork());
        if (telem)
            chaos->attachTelemetry(telem.get());
        chaos->start();
    }

    cs.run();

    CloudDirector &cloud = cs.cloud();
    ManagementServer &srv = cs.server();
    std::printf("\nsimulated %s\n",
                formatTime(cs.sim().now()).c_str());
    std::printf("deploys: %llu ok / %llu failed; undeploys %llu; "
                "lease expirations %llu\n",
                (unsigned long long)cloud.deploysSucceeded(),
                (unsigned long long)cloud.deploysFailed(),
                (unsigned long long)cloud.undeploysCompleted(),
                (unsigned long long)cloud.leases().expirations());
    std::printf("VMs: %llu provisioned, %llu destroyed, %zu live\n",
                (unsigned long long)cloud.vmsProvisioned(),
                (unsigned long long)cloud.vmsDestroyed(),
                cs.inventory().numVms() - cs.templateIds().size());
    std::printf("management ops: %llu completed, %llu failed; %s "
                "moved\n",
                (unsigned long long)srv.opsCompleted(),
                (unsigned long long)srv.opsFailed(),
                formatBytes(srv.bytesMoved()).c_str());

    if (chaos) {
        std::printf("chaos: %llu faults injected, %llu recovered; "
                    "%llu agent disconnects, %llu reconciles "
                    "(%llu ops resumed)\n",
                    (unsigned long long)chaos->injected(),
                    (unsigned long long)chaos->recovered(),
                    (unsigned long long)srv.agentDisconnects(),
                    (unsigned long long)srv.reconciles(),
                    (unsigned long long)srv.reconcileOpsResumed());
        for (std::size_t f = 0; f < kNumFaultFamilies; ++f) {
            const auto &fs =
                chaos->familyStats(static_cast<FaultFamily>(f));
            if (fs.injected == 0)
                continue;
            std::printf(
                "  %-11s %llu injected, %llu recovered",
                faultFamilyName(static_cast<FaultFamily>(f)),
                (unsigned long long)fs.injected,
                (unsigned long long)fs.recovered);
            if (fs.recovery_us.count() > 0) {
                std::printf(
                    ", recovery mean %.1fs max %.1fs",
                    fs.recovery_us.mean() / 1e6,
                    fs.recovery_us.max() / 1e6);
            }
            if (f == static_cast<std::size_t>(FaultFamily::HostCrash)) {
                std::printf("; %llu VMs crashed, %llu restarted "
                            "(%llu restart failures)",
                            (unsigned long long)ha.vmsCrashed(),
                            (unsigned long long)ha.vmsRestarted(),
                            (unsigned long long)ha.restartFailures());
            }
            std::printf("\n");
        }
    }

    ResourceUtilization top = bottleneckOf(collectUtilizations(srv));
    std::printf("bottleneck: %s (%s plane)\n", top.name.c_str(),
                top.control_plane ? "control" : "data");

    if (cs.engine().numShards() > 1) {
        std::printf("shards (%s mode): %llu events total\n",
                    shardExecModeName(cs.engine().mode()),
                    (unsigned long long)cs.eventsProcessed());
        for (int s = 0; s < cs.engine().numShards(); ++s) {
            const auto &st = cs.engine().shardStats(
                static_cast<ShardId>(s));
            std::printf("  shard%d: %llu events, %llu cross-sent, "
                        "%llu cross-received\n",
                        s, (unsigned long long)st.events,
                        (unsigned long long)st.cross_sent,
                        (unsigned long long)st.cross_received);
        }
    }

    bool ok = true;
    if (emitter) {
        HealthReport hr =
            buildHealthReport(*telem, cs.sim().now(),
                              emitter->recentDominants(),
                              emitter->windowWins());
        double elapsed_s = toSeconds(cs.sim().now());
        if (elapsed_s > 0.0) {
            for (HostId h : cs.hostIds())
                hr.top_hosts.push_back(
                    {"host-" + std::to_string(h.value),
                     srv.hostAgent(h).center().utilization()});
            Fabric &fab = cs.network().topology();
            for (std::size_t l = 0; l < fab.numLinks(); ++l) {
                auto id = static_cast<FabricLinkId>(l);
                hr.top_links.push_back(
                    {fab.linkName(id),
                     toSeconds(fab.link(id).busyTime()) /
                         elapsed_s});
            }
            topKCongested(hr.top_hosts);
            topKCongested(hr.top_links);
        }
        ok &= emitter->finish(hr);
        std::printf("\n%s", healthText(hr).c_str());
        std::printf("metrics: %llu snapshots -> %s (+ %s.prom)\n",
                    (unsigned long long)emitter->snapshots(),
                    metrics_out.c_str(), metrics_out.c_str());
    }

    if (tracer) {
        if (cs.engine().numShards() > 1)
            flushShardLanes(cs.engine(), *tracer);
        std::printf("\nphase attribution (span-sourced), dominant: "
                    "%s\n%s",
                    dominantPhase(srv).c_str(),
                    phaseAttributionTable(attributePhases(srv))
                        .toText()
                        .c_str());
        std::printf("\nper-phase latency percentiles "
                    "(span-sourced):\n%s",
                    spanBreakdownTable(srv).toText().c_str());
        ok &= writePerfettoJson(*tracer, trace_out);
        std::printf("\ntrace: %llu records (%llu dropped) -> %s\n",
                    (unsigned long long)tracer->ring().totalRecorded(),
                    (unsigned long long)tracer->ring().dropped(),
                    trace_out.c_str());
    }
    if (!dump_ops.empty())
        ok &= writeFile(dump_ops, cs.driver().ops().toCsv());
    if (!dump_actions.empty())
        ok &= writeFile(dump_actions,
                        cs.driver().actions().toCsv());
    if (!dump_stats.empty())
        ok &= writeFile(dump_stats, cs.stats().toCsv());
    printRunFooter(cs.eventsProcessed(),
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    return ok ? 0 : 1;
}
