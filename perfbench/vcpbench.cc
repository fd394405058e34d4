/**
 * @file
 * vcpbench — the repository benchmark program.
 *
 * Runs one named workload in this process and prints, as its last
 * stdout line, one JSON object:
 *
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..},"info":{..}}
 *
 * With --trace 0 the metrics are the end-to-end set: the simulator's
 * host cost (wall_s, setup_s, peak_rss_mb) and the modelled cloud's
 * outcome (simulated deploy latency, provisioning rate, op success
 * share).  With --trace 1 the workload is re-run in fixed simulated
 * slices with benchmark-owned probes between them, and the metrics
 * are per layer (sim, workload, cloud, controlplane, infra, trace,
 * telemetry, stats).  Probes only call public accessors; every traced
 * run's simulated digest must equal the untraced run's.
 *
 *   vcpbench --workload churn-saturated --seed 1 --seconds 30 \
 *            --trace 0 --out .bench_build/out
 *
 * See README.md beside this file for the workloads and the metric map.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bottleneck.hh"
#include "cloud/federation.hh"
#include "sim/logging.hh"
#include "sim/parallel_sweep.hh"
#include "telemetry/health.hh"
#include "telemetry/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "trace/perfetto.hh"
#include "trace/sampler.hh"
#include "trace/tracer.hh"
#include "workload/profiles.hh"

#ifndef VCPBENCH_BUILD_TYPE
#define VCPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef VCPBENCH_CXX_FLAGS
#define VCPBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace vcp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Build guard

/** Why this binary must not be measured, or empty when it may. */
std::string
buildRefusal()
{
    std::string why;
#ifndef NDEBUG
    why += "assertions enabled (Debug build); ";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why += "sanitizer build; ";
#endif
#if VCP_TRACE_DISABLED
    why += "VCP_TRACE_DISABLED build; ";
#endif
#if VCP_TELEMETRY_DISABLED
    why += "VCP_TELEMETRY_DISABLED build; ";
#endif
    std::string bt = VCPBENCH_BUILD_TYPE;
    if (bt != "Release" && bt != "RelWithDebInfo")
        why += "build type '" + bt + "' is not Release; ";
    if (std::strstr(VCPBENCH_CXX_FLAGS, "-fsanitize"))
        why += "sanitizer flags in CMAKE_CXX_FLAGS; ";
    return why;
}

int
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<int>(n) : 1;
}

// ---------------------------------------------------------------------
// Digest of everything the model simulated

/** FNV-1a over the simulated outputs of one run. */
class Digest
{
  public:
    void
    add(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    void add(const std::string &s) { add(s.data(), s.size()); }
    void add(std::uint64_t v) { add(&v, sizeof v); }
    void add(double v) { add(&v, sizeof v); }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 1469598103934665603ull;
};

// ---------------------------------------------------------------------
// Benchmark-owned spans (traced run only)

/** Spans recorded around calls into the layers, kept in memory. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start_us = 0.0;
        double end_us = 0.0;
        std::vector<std::pair<std::string, double>> counters;
    };

    int
    open(const std::string &name, int parent)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.start_us = nowUs();
        spans.push_back(std::move(s));
        return static_cast<int>(spans.size()) - 1;
    }

    void close(int id) { spans[id].end_us = nowUs(); }

    void
    counter(int id, const std::string &name, double delta)
    {
        spans[id].counters.emplace_back(name, delta);
    }

    /** Chrome trace_event JSON ("X" events; args carry the parent). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d",
                          i ? "," : "", s.name.c_str(), s.start_us,
                          s.end_us - s.start_us, i, s.parent);
            out << buf;
            for (const auto &[k, v] : s.counters) {
                std::snprintf(buf, sizeof buf, ",\"%s\":%.17g",
                              k.c_str(), v);
                out << buf;
            }
            out << "}}";
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

    /** Per span name: count, total and self time (total minus the
     *  part covered by child spans). */
    std::string
    selfTimeTable() const
    {
        std::vector<double> child(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                child[s.parent] += s.end_us - s.start_us;
        struct Row
        {
            std::string name;
            std::uint64_t n = 0;
            double total = 0.0, self = 0.0;
        };
        std::vector<Row> rows;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            auto it = std::find_if(rows.begin(), rows.end(),
                                   [&](const Row &r) {
                                       return r.name == s.name;
                                   });
            if (it == rows.end()) {
                rows.push_back({s.name});
                it = rows.end() - 1;
            }
            double d = s.end_us - s.start_us;
            it->n += 1;
            it->total += d;
            it->self += d - child[i];
        }
        std::string out = "span                      count   total_ms"
                          "    self_ms\n";
        for (const Row &r : rows) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "%-24s %6llu %10.3f %10.3f\n",
                          r.name.c_str(), (unsigned long long)r.n,
                          r.total / 1e3, r.self / 1e3);
            out += buf;
        }
        return out;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0)
            .count();
    }

    Clock::time_point t0 = Clock::now();
    std::vector<Span> spans;
};

/** A named per-layer metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything the traced run observes besides its spans. */
struct Probes
{
    SpanLog spans;
    int root = -1;
    std::vector<Metric> metrics;

    /** @{ Peaks sampled at slice boundaries. */
    std::size_t live_peak = 0;
    std::size_t pending_peak = 0;
    std::size_t sched_queue_peak = 0;
    std::size_t transfers_peak = 0;
    /** @} */

    /** @{ Host-time probe accumulators. */
    double live_scan_ns = 0.0;
    std::uint64_t live_scans = 0;
    double place_ns = 0.0;
    std::uint64_t places = 0;
    double dump_s = 0.0;
    double export_s = 0.0;
    double finish_s = 0.0;
    /** @} */

    void
    add(const std::string &name, double v, const std::string &unit)
    {
        metrics.push_back({name, v, unit});
    }
};

/** Placement probes per slice boundary (each followed by resolve). */
constexpr int kPlaceProbes = 8;

/** Time @p kPlaceProbes place()+resolve() pairs on live state. */
void
probePlacement(CloudDirector &dir, Probes &pr, int parent)
{
    if (dir.catalog().ids().empty())
        return;
    int sp = pr.spans.open("probe.cloud.place", parent);
    TemplateId tid = dir.catalog().ids().front();
    const VAppTemplate &tmpl = dir.catalog().get(tid);
    Inventory &inv = dir.server().inventory();
    const Vm &master = inv.vm(tmpl.source_vm);
    bool linked = dir.config().use_linked_clones;
    PlacementQuery q;
    q.vcpus = master.vcpus;
    q.memory = master.memory;
    for (DiskId d : master.disks) {
        Bytes cap = inv.disk(d).capacity;
        q.disk_need += linked
            ? dir.server().costModel().linkedDeltaAllocation(cap)
            : cap;
    }
    q.tmpl = tid;
    q.linked = linked;
    for (int i = 0; i < kPlaceProbes; ++i) {
        auto t0 = Clock::now();
        Placement p = dir.placement().place(q);
        pr.place_ns += std::chrono::duration<double, std::nano>(
                           Clock::now() - t0)
                           .count();
        pr.places += 1;
        if (p.ok)
            dir.placement().resolve(p.host, q.vcpus, q.memory);
    }
    pr.spans.close(sp);
}

/** Time schedule()+pop on a benchmark-owned kernel holding @p depth
 *  pending events, so the model's own kernel is never touched. */
double
queueOpNs(std::size_t depth)
{
    Simulator k(7);
    for (std::size_t i = 0; i < depth; ++i)
        k.schedule(hours(1000) + static_cast<SimDuration>(i), [] {});
    const int ops = 200000;
    auto t0 = Clock::now();
    for (int i = 0; i < ops; ++i) {
        k.schedule(1, [] {});
        k.runUntil(k.now() + 1);
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() /
           ops;
}

// ---------------------------------------------------------------------
// Modelled outcome of one run

struct Outcome
{
    /** Same bucketing as the director's cloud.deploy_latency_us. */
    Histogram deploy_lat{1000.0, 1.2};
    std::uint64_t deploys_ok = 0;
    /** Offered window (or burst makespan), simulated hours. */
    double sim_hours = 0.0;
    std::uint64_t ops_attempted = 0;
    std::uint64_t ops_failed = 0;
    std::uint64_t events = 0;
    /** Digest of the model's outputs: stats CSV, op trace, modelled
     *  metrics.  The exporters' own periodic events are not in it. */
    std::uint64_t model_digest = 0;
    /** model_digest plus the event count: equal only when nothing
     *  scheduled an extra event. */
    std::uint64_t digest = 0;
    std::vector<std::string> check_failures;
};

void
mergeDeployLatency(StatRegistry &stats, Histogram &into)
{
    if (stats.has("cloud.deploy_latency_us"))
        into.merge(stats.histogram("cloud.deploy_latency_us"));
}

std::uint64_t
statCounter(StatRegistry &stats, const char *name)
{
    return stats.has(name) ? stats.counter(name).value() : 0;
}

/** Deploys the director refused before submitting any op. */
std::uint64_t
refusedDeploys(StatRegistry &stats)
{
    return statCounter(stats, "cloud.deploys.rejected") +
           statCounter(stats, "cloud.deploys.quota_rejected");
}

/** Post-drain invariants of one management domain. */
void
checkDrained(ManagementServer &srv, CloudDirector &dir,
             const std::string &who, std::vector<std::string> &fails)
{
    if (srv.scheduler().inFlight() != 0 ||
        srv.scheduler().queueLength() != 0 ||
        srv.opsSubmitted() != srv.opsCompleted() + srv.opsFailed())
        fails.push_back(who + ": ops still in flight after drain");
    if (srv.lockManager().lockedKeys() != 0)
        fails.push_back(who + ": lock keys held after drain");
    if (dir.deploysRequested() !=
        dir.deploysSucceeded() + dir.deploysFailed())
        fails.push_back(who + ": deploys requested != succeeded + "
                              "failed + rejected");
}

bool
quiescent(ManagementServer &srv)
{
    return srv.scheduler().inFlight() == 0 &&
           srv.scheduler().queueLength() == 0 &&
           srv.lockManager().lockedKeys() == 0 &&
           srv.opsSubmitted() == srv.opsCompleted() + srv.opsFailed();
}

// ---------------------------------------------------------------------
// Workloads

enum class Kind
{
    ChurnSaturated,
    DayOpsFabricObserved,
    FederationThreads,
};

struct WorkloadDef
{
    const char *name;
    Kind kind;
    /** Sub-seeds forked from --seed; the modelled metrics pool one
     *  run of each, host times average over them. */
    int subseeds;
    /** Traced-run slice length. */
    SimDuration slice;
};

const WorkloadDef kWorkloads[] = {
    {"churn-saturated", Kind::ChurnSaturated, 8, minutes(5)},
    {"dayops-fabric-observed", Kind::DayOpsFabricObserved, 8,
     minutes(5)},
    {"federation-threads", Kind::FederationThreads, 4, minutes(1)},
};

/** Which optional subsystems one run attaches. */
struct Variant
{
    bool tracer = false;
    bool telemetry = false;
    /** Write the exporters' output to files for the external checkers.
     *  Otherwise it is rendered into memory: the exporters' work stays
     *  in wall_s, but disk writeback on a shared host does not. */
    bool files = false;
    ShardExecMode mode = ShardExecMode::Threaded;
};

Variant
defaultVariant(Kind k)
{
    Variant v;
    if (k == Kind::DayOpsFabricObserved)
        v.tracer = v.telemetry = true;
    return v;
}

CloudSetupSpec
cloudSpec(Kind k)
{
    CloudSetupSpec s;
    switch (k) {
    case Kind::ChurnSaturated:
        s = cloudASpec();
        s.workload.arrival.rate_per_hour = 2000;
        s.workload.duration = hours(8);
        break;
    case Kind::DayOpsFabricObserved:
        s = cloudBSpec();
        s.workload.arrival.rate_per_hour = 400;
        s.workload.duration = hours(6);
        s.infra.network.fabric.preset = FabricPreset::LeafSpine;
        break;
    case Kind::FederationThreads:
        break;
    }
    s.workload.record_ops = true;
    return s;
}

/** Host cost and outcome of one run. */
struct RunResult
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    Outcome out;
};

/** One management domain's layers, as the traced run reads them. */
struct DomainView
{
    ManagementServer &srv;
    CloudDirector &dir;
    StatRegistry &stats;
    /** Push-side telemetry (lock-wait and DB-txn quantiles). */
    TelemetryRegistry &telem;
};

/**
 * Cloud, control-plane and infra counters of @p domains (summed;
 * utilizations averaged), plus the kernel counters of @p eng and the
 * peaks the probes sampled.
 */
void
addLayerMetrics(Probes &pr, const std::vector<DomainView> &domains,
                ShardedSimulator &eng)
{
    std::uint64_t dreq = 0, dfail = 0, place_fail = 0, repl = 0,
                  repl_fail = 0, stalls = 0, submitted = 0, failed = 0,
                  grants = 0, contended = 0, txns = 0, reroutes = 0,
                  lost = 0;
    double api = 0, sched = 0, agents = 0, dss = 0, db = 0, link = 0;
    Bytes moved = 0;
    LatencyHistogram lock_wait, txn_lat;
    const double elapsed_s = toSeconds(eng.now());
    for (const DomainView &d : domains) {
        dreq += d.dir.deploysRequested();
        dfail += d.dir.deploysFailed();
        place_fail += statCounter(d.stats, "cloud.placement_failures");
        stalls += statCounter(d.stats, "cloud.deploy_pool_stalls");
        repl += d.dir.pool().replicationsIssued();
        repl_fail += d.dir.pool().replicationsFailed();
        submitted += d.srv.opsSubmitted();
        failed += d.srv.opsFailed();
        grants += d.srv.lockManager().grants();
        contended += d.telem.mergedCounter("locks.contended").total();
        lock_wait.merge(d.telem.mergedHistogram("locks.wait_us"));
        txns += d.srv.database().txnsCommitted();
        txn_lat.merge(d.telem.mergedHistogram("db.txn_us"));
        moved += d.srv.bytesMoved();
        for (const ResourceUtilization &u : collectUtilizations(d.srv)) {
            if (u.name == "api-threads")
                api += u.utilization;
            else if (u.name == "dispatch-slots")
                sched += u.utilization;
            else if (u.name == "host-agents(mean)")
                agents += u.utilization;
            else if (u.name == "datastore-slots(mean)")
                dss += u.utilization;
            else if (u.name == "db-connections")
                db += u.utilization;
        }
        Fabric &fab = d.srv.network().topology();
        for (std::size_t l = 0; l < fab.numLinks(); ++l)
            link = std::max(
                link, toSeconds(fab.link(static_cast<FabricLinkId>(l))
                                    .busyTime()) /
                          elapsed_s);
        reroutes += fab.reroutes();
        lost += fab.failedTransfers();
    }
    const double n = double(domains.size());
    std::uint64_t stalled = 0, cross = 0, barrier_ns = 0;
    for (int s = 0; s < eng.numShards(); ++s) {
        const auto &st = eng.shardStats(static_cast<ShardId>(s));
        stalled += st.stalled_rounds;
        cross += st.cross_sent;
        barrier_ns += st.barrier_wait_ns;
    }
    pr.add("cloud.deploys_requested", double(dreq), "count");
    pr.add("cloud.deploys_failed", double(dfail), "count");
    pr.add("cloud.placement_failures", double(place_fail), "count");
    pr.add("cloud.pool.replications", double(repl), "count");
    pr.add("cloud.pool.replications_failed", double(repl_fail), "count");
    pr.add("cloud.pool_stalls", double(stalls), "count");
    pr.add("controlplane.ops_submitted", double(submitted), "count");
    pr.add("controlplane.ops_failed", double(failed), "count");
    pr.add("controlplane.api.util", api / n, "ratio");
    pr.add("controlplane.sched.util", sched / n, "ratio");
    pr.add("controlplane.sched.queue_peak", double(pr.sched_queue_peak),
           "count");
    pr.add("controlplane.agents.util_mean", agents / n, "ratio");
    pr.add("controlplane.datastores.util_mean", dss / n, "ratio");
    pr.add("controlplane.locks.grants", double(grants), "count");
    pr.add("controlplane.locks.contended", double(contended), "count");
    pr.add("controlplane.locks.wait_p99_sim_ms", lock_wait.p99() / 1e3,
           "ms");
    pr.add("controlplane.db.txns", double(txns), "count");
    pr.add("controlplane.db.util", db / n, "ratio");
    pr.add("controlplane.db.txn_p99_sim_ms", txn_lat.p99() / 1e3, "ms");
    pr.add("infra.bytes_moved_gib", double(moved) / double(gib(1)),
           "GiB");
    pr.add("infra.fabric.max_link_util", link, "ratio");
    pr.add("infra.fabric.reroutes", double(reroutes), "count");
    pr.add("infra.fabric.failed_transfers", double(lost), "count");
    pr.add("infra.fabric.active_transfers_peak",
           double(pr.transfers_peak), "count");
    pr.add("sim.events", double(eng.eventsProcessed()), "count");
    pr.add("sim.pending_peak", double(pr.pending_peak), "count");
    pr.add("sim.rounds", double(eng.rounds()), "count");
    pr.add("sim.barrier_wait_s", double(barrier_ns) / 1e9, "s");
    pr.add("sim.stalled_rounds", double(stalled), "count");
    pr.add("sim.cross_sent", double(cross), "count");
}

/** Span-ring records of the observed workload (vcpsim
 *  --trace-capacity).  A sixteenth of the default keeps the ring and
 *  the rendered export within the caches: with a 262144-record ring
 *  the workload ran 45% slower while a neighbour streamed memory, with
 *  this one 2%. */
constexpr std::size_t kTraceCapacity = 1u << 16;

/** Gauge sampling period (vcpsim --sample-interval 1000).  At the
 *  100 ms default the samples fill the ring, and what it keeps of the
 *  run is the idle drain with no complete op span. */
constexpr SimDuration kSampleInterval = seconds(1);

/** Drain step after the offered window, and its bound. */
constexpr SimDuration kDrain = minutes(30);
constexpr SimDuration kDrainStep = minutes(1);
constexpr SimDuration kDrainLimit = hours(24);

/**
 * One cloud-a / cloud-b stack, run untraced (pr == nullptr: one
 * runUntil to the end of the window plus drain, like vcpsim) or traced
 * (fixed slices with probes between them).
 */
RunResult
runCloud(const WorkloadDef &def, std::uint64_t seed, const Variant &v,
         const std::string &out_dir, Probes *pr)
{
    RunResult r;
    const CloudSetupSpec spec = cloudSpec(def.kind);
    const std::string prefix = out_dir + "/" + def.name;
    int sp_setup = pr ? pr->spans.open("setup", pr->root) : -1;
    auto t0 = Clock::now();

    CloudSimulation cs(spec, seed);
    std::ostringstream ndjson;
    std::unique_ptr<SpanTracer> tracer;
    std::unique_ptr<TelemetryRegistry> telem;
    std::unique_ptr<SnapshotEmitter> emitter;
    std::unique_ptr<GaugeSampler> sampler;
    if (v.tracer) {
        TracerConfig tc;
        tc.capacity = kTraceCapacity;
        tracer = std::make_unique<SpanTracer>(tc);
        cs.enableTracing(tracer.get());
    }
    if (v.telemetry) {
        telem = std::make_unique<TelemetryRegistry>(seconds(60));
        cs.enableTelemetry(telem.get());
        emitter = std::make_unique<SnapshotEmitter>(cs.sim(), *telem,
                                                    seconds(60));
        if (!v.files)
            emitter->writeTo(&ndjson);
        else if (!emitter->openNdjson(prefix + ".metrics.ndjson"))
            r.out.check_failures.push_back("cannot open metrics file");
        emitter->start();
    }
    if (tracer || telem) {
        sampler = std::make_unique<GaugeSampler>(cs.sim(), tracer.get(),
                                                 kSampleInterval);
        cs.addStandardGauges(*sampler);
        if (telem)
            sampler->attachTelemetry(telem.get());
        sampler->start();
    }
    // The traced run reads lock-wait and DB-txn quantiles from the
    // telemetry instruments; attach a push-only registry (no emitter,
    // no sampler, so no events) when the workload has none.
    std::unique_ptr<TelemetryRegistry> probe_telem;
    TelemetryRegistry *quantiles = telem.get();
    if (pr && !telem) {
        probe_telem = std::make_unique<TelemetryRegistry>(seconds(60));
        cs.enableTelemetry(probe_telem.get());
        quantiles = probe_telem.get();
    }
    r.setup_s = secondsSince(t0);
    if (pr)
        pr->spans.close(sp_setup);

    ManagementServer &srv = cs.server();
    auto t1 = Clock::now();
    cs.start();
    const SimTime end = cs.sim().now() + spec.workload.duration + kDrain;
    int sp_run = pr ? pr->spans.open("run", pr->root) : -1;
    std::uint64_t events0 = 0, ops0 = 0, issued0 = 0;
    auto issuedTotal = [&] {
        std::uint64_t n = 0;
        for (std::uint64_t c : cs.driver().issuedCounts())
            n += c;
        return n;
    };
    auto step = [&](SimTime until) {
        if (!pr) {
            cs.runFor(until - cs.sim().now());
            return;
        }
        int sp = pr->spans.open("slice", sp_run);
        cs.runFor(until - cs.sim().now());
        std::uint64_t ev = cs.eventsProcessed(), ops = srv.opsSubmitted(),
                      iss = issuedTotal();
        pr->spans.counter(sp, "events", double(ev - events0));
        pr->spans.counter(sp, "ops_submitted", double(ops - ops0));
        pr->spans.counter(sp, "actions_issued", double(iss - issued0));
        events0 = ev, ops0 = ops, issued0 = iss;

        int pw = pr->spans.open("probe.workload.live_scan", sp);
        auto s0 = Clock::now();
        std::size_t live = cs.driver().livePopulation();
        pr->live_scan_ns += std::chrono::duration<double, std::nano>(
                                Clock::now() - s0)
                                .count();
        pr->live_scans += 1;
        pr->spans.close(pw);
        pr->live_peak = std::max(pr->live_peak, live);

        probePlacement(cs.cloud(), *pr, sp);

        int pc = pr->spans.open("probe.counters", sp);
        pr->pending_peak =
            std::max(pr->pending_peak, cs.engine().pendingEvents());
        pr->sched_queue_peak = std::max(pr->sched_queue_peak,
                                        srv.scheduler().queueLength());
        pr->transfers_peak =
            std::max(pr->transfers_peak,
                     cs.network().topology().activeTransfers());
        pr->spans.close(pc);
        pr->spans.close(sp);
    };
    if (pr) {
        while (cs.sim().now() < end)
            step(std::min(end, cs.sim().now() + def.slice));
    } else {
        step(end);
    }
    while (!quiescent(srv) && cs.sim().now() < end + kDrainLimit)
        step(cs.sim().now() + kDrainStep);
    if (pr)
        pr->spans.close(sp_run);

    // End-of-run exports are part of the workload when attached.
    if (emitter) {
        int sp = pr ? pr->spans.open("export.telemetry", pr->root) : -1;
        auto e0 = Clock::now();
        HealthReport hr =
            buildHealthReport(*telem, cs.sim().now(),
                              emitter->recentDominants(),
                              emitter->windowWins());
        double elapsed_s = toSeconds(cs.sim().now());
        for (HostId h : cs.hostIds())
            hr.top_hosts.push_back(
                {"host-" + std::to_string(h.value),
                 srv.hostAgent(h).center().utilization()});
        Fabric &fab = cs.network().topology();
        for (std::size_t l = 0; l < fab.numLinks(); ++l) {
            auto id = static_cast<FabricLinkId>(l);
            hr.top_links.push_back(
                {fab.linkName(id),
                 toSeconds(fab.link(id).busyTime()) / elapsed_s});
        }
        topKCongested(hr.top_hosts);
        topKCongested(hr.top_links);
        emitter->finish(hr);
        if (!v.files && ndjson.tellp() <= 0)
            r.out.check_failures.push_back("empty metrics export");
        if (pr) {
            pr->finish_s = secondsSince(e0);
            pr->spans.close(sp);
        }
    }
    if (tracer) {
        int sp = pr ? pr->spans.open("export.trace", pr->root) : -1;
        auto e0 = Clock::now();
        if (!v.files) {
            if (exportPerfettoJson(*tracer).empty())
                r.out.check_failures.push_back("empty trace export");
        } else if (!writePerfettoJson(*tracer, prefix + ".trace.json")) {
            r.out.check_failures.push_back("cannot write trace file");
        }
        if (pr) {
            pr->export_s = secondsSince(e0);
            pr->spans.close(sp);
        }
    }
    r.wall_s = secondsSince(t1);

    // Outcome, checks and digest (not timed as part of the run).
    Outcome &o = r.out;
    CloudDirector &dir = cs.cloud();
    checkDrained(srv, dir, def.name, o.check_failures);
    mergeDeployLatency(cs.stats(), o.deploy_lat);
    o.deploys_ok = dir.deploysSucceeded();
    o.sim_hours = toHours(spec.workload.duration);
    std::uint64_t refused = refusedDeploys(cs.stats());
    o.ops_attempted = srv.opsSubmitted() + refused;
    o.ops_failed = srv.opsFailed() + refused;

    int sp_dump = pr ? pr->spans.open("dump.stats", pr->root) : -1;
    auto d0 = Clock::now();
    std::string stats_csv = cs.stats().toCsv();
    std::string ops_csv = cs.driver().ops().toCsv();
    if (pr) {
        pr->dump_s = secondsSince(d0);
        pr->spans.close(sp_dump);
    }
    Digest dg;
    dg.add(stats_csv);
    dg.add(ops_csv);
    dg.add(o.deploys_ok);
    dg.add(o.ops_attempted);
    dg.add(o.ops_failed);
    dg.add(o.deploy_lat.p50());
    dg.add(o.deploy_lat.p99());
    o.model_digest = dg.value();
    o.events = cs.eventsProcessed();
    dg.add(o.events);
    o.digest = dg.value();

    if (!pr)
        return r;

    // Per-layer counters, read from public accessors after the run.
    WorkloadDriver &drv = cs.driver();
    pr->add("workload.actions_issued", double(issuedTotal()), "count");
    pr->add("workload.actions_skipped", double(drv.skipped()), "count");
    pr->add("workload.live_vapps_peak", double(pr->live_peak), "count");
    addLayerMetrics(*pr, {{srv, dir, cs.stats(), *quantiles}},
                    cs.engine());
    pr->add("trace.records",
            tracer ? double(tracer->ring().totalRecorded()) : 0.0,
            "count");
    pr->add("trace.dropped",
            tracer ? double(tracer->ring().dropped()) : 0.0, "count");
    pr->add("telemetry.snapshots",
            emitter ? double(emitter->snapshots()) : 0.0, "count");
    return r;
}

/** Deploys in the federation burst and its share-nothing domains. */
constexpr int kBurst = 16384;
constexpr int kFedDomains = 8;

/**
 * Outgoing lookahead each execution shard promises.  The domains share
 * nothing and never post across shards, so any promise holds; 10 s
 * gives rounds of a few hundred events each, so the run measures event
 * execution and the round protocol rather than the wake-up latency of
 * one barrier per event.
 */
constexpr SimDuration kFedLookahead = seconds(10);

/**
 * Execution shards (worker threads) of the threaded federation.  Two
 * leave the rest of the host's cores free, so a neighbour on a shared
 * host delays a round barrier less often than with one thread per core.
 */
int
fedExecShards()
{
    return std::clamp(hostThreads(), 1, 2);
}

/**
 * An A3-style burst into share-nothing management domains on a
 * ShardedSimulator (Threaded, or the Merge oracle at the same shard
 * count).  Setup includes routing the whole burst.
 */
RunResult
runFederation(const WorkloadDef &def, std::uint64_t seed,
              const Variant &v, Probes *pr)
{
    RunResult r;
    int sp_setup = pr ? pr->spans.open("setup", pr->root) : -1;
    auto t0 = Clock::now();

    const int exec_shards = fedExecShards();
    ShardedSimulator::Options eo;
    eo.mode = exec_shards > 1 ? v.mode : ShardExecMode::Merge;
    eo.lookahead = kFedLookahead;
    ShardedSimulator eng(exec_shards, seed, eo);
    StatRegistry stats;
    FederationConfig cfg;
    cfg.shards = kFedDomains;
    cfg.hosts_per_shard = 32;
    cfg.host.cores = 16;
    cfg.host.memory = gib(128);
    cfg.host.cpu_overcommit = 8.0;
    cfg.datastores_per_shard = 1;
    cfg.datastore.capacity = gib(2048);
    cfg.datastore.copy_bandwidth = 200.0 * 1024 * 1024;
    cfg.server.dispatch_width = 64;
    cfg.director.pool.max_clones_per_base = 100000;
    cfg.engine = &eng;
    CloudFederation fed(eng.shard(0), stats, cfg);

    // One registry per domain, so no two worker threads share cells.
    std::vector<std::unique_ptr<TelemetryRegistry>> regs;
    if (pr) {
        for (std::size_t i = 0; i < fed.numShards(); ++i) {
            regs.push_back(std::make_unique<TelemetryRegistry>());
            fed.shardServer(i).attachTelemetry(regs.back().get());
        }
    }

    std::size_t tenant = fed.addTenant({"org", 0});
    std::size_t tmpl = fed.createTemplate("tmpl", gib(8), 0.5, 1, gib(1),
                                          1, hours(24));
    // Completion bookkeeping indexed by execution shard, so each
    // worker thread writes only its own slot.
    struct alignas(64) ExecSlot
    {
        int completed = 0;
        int failed = 0;
        SimTime done = 0;
    };
    std::vector<ExecSlot> slots(static_cast<std::size_t>(exec_shards));
    for (int i = 0; i < kBurst; ++i) {
        int s = fed.deploy(tenant, tmpl, [&](const VApp &va) {
            ShardId es = ShardedSimulator::currentShard();
            if (es == ShardedSimulator::kNoShard)
                es = 0;
            ExecSlot &slot = slots[es];
            if (va.state == VAppState::Deployed)
                slot.completed += 1;
            else
                slot.failed += 1;
            slot.done = eng.shard(es).now();
        });
        if (s < 0)
            r.out.check_failures.push_back("burst routing refused");
    }
    r.setup_s = secondsSince(t0);
    if (pr)
        pr->spans.close(sp_setup);

    auto finished = [&] {
        int n = 0;
        for (const ExecSlot &s : slots)
            n += s.completed + s.failed;
        return n;
    };
    const SimTime end = hours(12);
    auto t1 = Clock::now();
    if (!pr) {
        eng.runUntil(end);
    } else {
        int sp_run = pr->spans.open("run", pr->root);
        std::uint64_t events0 = 0;
        while (eng.now() < end) {
            SimTime until = finished() < kBurst
                ? std::min(end, eng.now() + def.slice)
                : end;
            int sp = pr->spans.open("slice", sp_run);
            eng.runUntil(until);
            std::uint64_t ev = eng.eventsProcessed();
            pr->spans.counter(sp, "events", double(ev - events0));
            events0 = ev;
            int pc = pr->spans.open("probe.counters", sp);
            pr->pending_peak =
                std::max(pr->pending_peak, eng.pendingEvents());
            std::size_t live = 0, queue = 0, transfers = 0;
            for (std::size_t i = 0; i < fed.numShards(); ++i) {
                ManagementServer &srv = fed.shardServer(i);
                live += fed.shard(i).numVApps();
                queue += srv.scheduler().queueLength();
                transfers += srv.network().topology().activeTransfers();
            }
            pr->live_peak = std::max(pr->live_peak, live);
            pr->sched_queue_peak = std::max(pr->sched_queue_peak, queue);
            pr->transfers_peak = std::max(pr->transfers_peak, transfers);
            pr->spans.close(pc);
            probePlacement(fed.shard(0), *pr, sp);
            pr->spans.close(sp);
        }
        pr->spans.close(sp_run);
    }
    r.wall_s = secondsSince(t1);

    Outcome &o = r.out;
    int completed = 0, failed = 0;
    SimTime done = 0;
    for (const ExecSlot &s : slots) {
        completed += s.completed;
        failed += s.failed;
        done = std::max(done, s.done);
    }
    if (completed + failed != kBurst)
        o.check_failures.push_back("burst incomplete");
    Digest dg;
    std::uint64_t submitted = 0, ops_failed = 0, refused = 0;
    for (std::size_t i = 0; i < fed.numShards(); ++i) {
        ManagementServer &srv = fed.shardServer(i);
        checkDrained(srv, fed.shard(i), "domain" + std::to_string(i),
                     o.check_failures);
        mergeDeployLatency(fed.shardStats(i), o.deploy_lat);
        submitted += srv.opsSubmitted();
        ops_failed += srv.opsFailed();
        refused += refusedDeploys(fed.shardStats(i));
        auto d0 = Clock::now();
        dg.add(fed.shardStats(i).toCsv());
        if (pr)
            pr->dump_s += secondsSince(d0);
    }
    o.deploys_ok = static_cast<std::uint64_t>(completed);
    o.sim_hours = toHours(done);
    o.ops_attempted = submitted + refused;
    o.ops_failed = ops_failed + refused;
    dg.add(static_cast<std::uint64_t>(done));
    dg.add(o.deploys_ok);
    dg.add(o.ops_attempted);
    dg.add(o.ops_failed);
    o.model_digest = dg.value();
    o.events = eng.eventsProcessed();
    dg.add(o.events);
    o.digest = dg.value();

    if (!pr)
        return r;

    std::vector<DomainView> domains;
    for (std::size_t i = 0; i < fed.numShards(); ++i)
        domains.push_back({fed.shardServer(i), fed.shard(i),
                           fed.shardStats(i), *regs[i]});
    pr->add("workload.actions_issued", double(kBurst), "count");
    pr->add("workload.actions_skipped", 0.0, "count");
    pr->add("workload.live_vapps_peak", double(pr->live_peak), "count");
    addLayerMetrics(*pr, domains, eng);
    pr->add("trace.records", 0.0, "count");
    pr->add("trace.dropped", 0.0, "count");
    pr->add("telemetry.snapshots", 0.0, "count");
    return r;
}

RunResult
runOnce(const WorkloadDef &def, std::uint64_t seed, const Variant &v,
        const std::string &out_dir, Probes *pr)
{
    if (def.kind == Kind::FederationThreads)
        return runFederation(def, seed, v, pr);
    return runCloud(def, seed, v, out_dir, pr);
}

// ---------------------------------------------------------------------
// Reporting

struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    std::vector<std::string> failures;
};

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

void
printReport(const Report &rep, const std::string &workload,
            std::uint64_t seed, int trace)
{
    for (const std::string &n : rep.notes)
        std::printf("%s\n", n.c_str());
    for (const std::string &f : rep.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::string j = "{\"correct\":";
    j += rep.correct ? "true" : "false";
    j += ",\"attempted\":" + std::to_string(rep.attempted);
    j += ",\"failed\":" + std::to_string(rep.failed);
    j += ",\"metrics\":{";
    char buf[128];
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        j += (i ? "," : "") + std::string("\"") + m.name +
             "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit + "\"}";
    }
    j += "},\"info\":{\"workload\":\"" + workload + "\"";
    j += ",\"seed\":" + std::to_string(seed);
    j += ",\"trace\":" + std::to_string(trace);
    j += ",\"build_type\":\"" VCPBENCH_BUILD_TYPE "\"";
    j += ",\"compiler\":\"" + jsonEscape(__VERSION__) + "\"";
    j += ",\"nproc\":" + std::to_string(hostThreads());
    j += ",\"failures\":[";
    for (std::size_t i = 0; i < rep.failures.size(); ++i)
        j += (i ? ",\"" : "\"") + jsonEscape(rep.failures[i]) + "\"";
    j += "]}}";
    std::printf("%s\n", j.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/** The tail percentile with at least ten samples beyond it. */
double
tailQuantile(std::uint64_t n)
{
    for (double q : {0.99, 0.98, 0.97, 0.96, 0.95, 0.9, 0.75})
        if (double(n) * (1.0 - q) + 1e-9 >= 10.0)
            return q;
    return 0.5;
}

/** Fold one run's check failures into the report. */
void
noteRun(Report &rep, const RunResult &r, const std::string &what)
{
    rep.attempted += r.out.ops_attempted;
    if (!r.out.check_failures.empty()) {
        rep.correct = false;
        rep.failed += r.out.ops_attempted;
        for (const std::string &f : r.out.check_failures)
            rep.failures.push_back(what + ": " + f);
    }
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Restrict this thread, and the threads it starts, to @p n of
 *  @p cpus starting at index @p first (wrapping). */
void
pinTo(const std::vector<int> &cpus, std::size_t first, int n)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i = 0; i < n; ++i)
        CPU_SET(cpus[(first + static_cast<std::size_t>(i)) % cpus.size()],
                &set);
    sched_setaffinity(0, sizeof set, &set);
}

/** --trace 0: end-to-end metrics from untraced runs. */
Report
measureEndToEnd(const WorkloadDef &def, std::uint64_t seed,
                double budget_s, const std::string &out_dir)
{
    Report rep;
    const Variant v = defaultVariant(def.kind);
    const int k = def.subseeds;
    std::vector<std::uint64_t> seeds(k);
    for (int i = 0; i < k; ++i)
        seeds[i] = ParallelSweepRunner::forkSeed(seed, i);

    std::vector<std::vector<double>> walls(k), setups(k);
    std::vector<std::uint64_t> digests(k, 0);
    Outcome pooled;
    std::uint64_t ok = 0, attempted = 0, op_failed = 0;
    double sim_hours = 0.0, rss_mb = 0.0;
    auto t0 = Clock::now();
    // One untimed run first, so allocator pools and caches are warm
    // before the first timed one.  It also writes the exporters' files
    // for the external checkers.
    Variant warm = v;
    warm.files = true;
    noteRun(rep, runOnce(def, seeds[0], warm, out_dir, nullptr),
            "warm-up");
    // On a shared host the vCPUs differ in speed, and a busy thread
    // stays on the vCPU it started on, so one process would time one
    // vCPU.  Each repeat is pinned to the next CPU instead (the next
    // pair for the threaded federation), and each sub-seed moves on by
    // one CPU per cycle, so every sub-seed's median spans the CPUs.
    const std::vector<int> cpus = allowedCpus();
    const int threads =
        def.kind == Kind::FederationThreads ? fedExecShards() : 1;
    for (int it = 0; it < k || secondsSince(t0) < budget_s; ++it) {
        int s = it % k;
        pinTo(cpus, static_cast<std::size_t>(s + it / k), threads);
        RunResult r = runOnce(def, seeds[s], v, out_dir, nullptr);
        std::string what = "run " + std::to_string(it) + " (seed " +
                           std::to_string(seeds[s]) + ")";
        if (it < k) {
            digests[s] = r.out.digest;
            pooled.deploy_lat.merge(r.out.deploy_lat);
            ok += r.out.deploys_ok;
            sim_hours += r.out.sim_hours;
            attempted += r.out.ops_attempted;
            op_failed += r.out.ops_failed;
            if (def.kind == Kind::FederationThreads) {
                Variant m = v;
                m.mode = ShardExecMode::Merge;
                RunResult oracle = runOnce(def, seeds[s], m, out_dir,
                                           nullptr);
                if (oracle.out.digest != r.out.digest)
                    r.out.check_failures.push_back(
                        "threaded digest differs from the merge oracle");
            }
        } else if (r.out.digest != digests[s]) {
            r.out.check_failures.push_back(
                "digest differs from an earlier run of the same seed");
        }
        noteRun(rep, r, what);
        // Peak RSS after the warm-up and one run per sub-seed: a fixed
        // amount of work, so a faster build that fits more repeats in
        // the window does not read as more memory.
        if (it == k - 1)
            rss_mb = peakRssMb();
        std::fprintf(stderr, "%s: setup %.6f s, wall %.6f s, %llu events\n",
                     what.c_str(), r.setup_s, r.wall_s,
                     (unsigned long long)r.out.events);
        walls[s].push_back(r.wall_s);
        setups[s].push_back(r.setup_s);
    }
    pinTo(cpus, 0, static_cast<int>(cpus.size()));

    double wall = 0.0, setup = 0.0;
    std::size_t runs = 0;
    for (int s = 0; s < k; ++s) {
        wall += median(walls[s]) / k;
        setup += median(setups[s]) / k;
        runs += walls[s].size();
    }
    std::uint64_t n = pooled.deploy_lat.count();
    double q = tailQuantile(n);
    // All ops counted when a run failed its checks.
    if (!rep.correct)
        op_failed = attempted;
    double ok_ratio =
        attempted ? 1.0 - double(op_failed) / double(attempted) : 0.0;

    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s seed=%llu: %zu timed runs over %d sub-seeds; "
                  "%llu deploys (tail percentile p%g); ops attempted "
                  "%llu, failed %llu (ops_failed_ratio %.6f)",
                  def.name, (unsigned long long)seed, runs, k,
                  (unsigned long long)n, q * 100,
                  (unsigned long long)attempted,
                  (unsigned long long)op_failed,
                  attempted ? double(op_failed) / double(attempted) : 0.0);
    rep.notes.push_back(buf);
    rep.metrics = {
        {"wall_s", wall, "s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"deploy_p50_sim_s", pooled.deploy_lat.p50() / 1e6, "s"},
        {"deploy_p99_sim_s", pooled.deploy_lat.quantile(q) / 1e6, "s"},
        {"deploys_ok_per_sim_h", sim_hours > 0 ? ok / sim_hours : 0.0,
         "1/h"},
        {"ops_ok_ratio", ok_ratio, "ratio"},
    };
    return rep;
}

/** --trace 1: per-layer metrics from a traced run of the first
 *  sub-seed, compared against untraced runs of the same seed. */
Report
measureLayers(const WorkloadDef &def, std::uint64_t seed,
              const std::string &out_dir)
{
    Report rep;
    const Variant v = defaultVariant(def.kind);
    const std::uint64_t s0 = ParallelSweepRunner::forkSeed(seed, 0);
    const int reps = 3;

    std::vector<double> untraced, traced;
    std::uint64_t digest = 0, model_digest = 0;
    Outcome base;
    std::unique_ptr<Probes> keep;
    for (int i = 0; i < reps; ++i) {
        RunResult u = runOnce(def, s0, v, out_dir, nullptr);
        noteRun(rep, u, "untraced run");
        untraced.push_back(u.wall_s);
        digest = u.out.digest;
        model_digest = u.out.model_digest;
        base = u.out;

        auto pr = std::make_unique<Probes>();
        pr->root = pr->spans.open(def.name, -1);
        RunResult t = runOnce(def, s0, v, out_dir, pr.get());
        pr->spans.close(pr->root);
        if (t.out.digest != u.out.digest)
            t.out.check_failures.push_back(
                "traced digest differs from the untraced run (a probe "
                "perturbed the model)");
        noteRun(rep, t, "traced run");
        traced.push_back(t.wall_s);
        keep = std::move(pr);
    }
    Probes &pr = *keep;
    double wall_u = median(untraced);
    double wall_t = median(traced);

    // Attached-vs-detached runs for the exporters' end-to-end cost.
    double trace_over = 0.0, telem_over = 0.0;
    if (v.tracer || v.telemetry) {
        std::vector<double> no_trace, no_telem;
        for (int i = 0; i < reps; ++i) {
            Variant a = v;
            a.tracer = false;
            RunResult r1 = runOnce(def, s0, a, out_dir, nullptr);
            Variant b = v;
            b.telemetry = false;
            RunResult r2 = runOnce(def, s0, b, out_dir, nullptr);
            for (RunResult *r : {&r1, &r2})
                if (r->out.model_digest != model_digest)
                    r->out.check_failures.push_back(
                        "digest depends on an attached exporter");
            noteRun(rep, r1, "tracer-detached run");
            noteRun(rep, r2, "telemetry-detached run");
            no_trace.push_back(r1.wall_s);
            no_telem.push_back(r2.wall_s);
        }
        trace_over = wall_u - median(no_trace);
        telem_over = wall_u - median(no_telem);
        // Leave the exported files of the full configuration behind
        // for the external checkers.
        Variant f = v;
        f.files = true;
        RunResult last = runOnce(def, s0, f, out_dir, nullptr);
        noteRun(rep, last, "export run");
    }

    double speedup = 1.0;
    if (def.kind == Kind::FederationThreads) {
        std::vector<double> merge;
        for (int i = 0; i < reps; ++i) {
            Variant m = v;
            m.mode = ShardExecMode::Merge;
            RunResult r = runOnce(def, s0, m, out_dir, nullptr);
            if (r.out.digest != digest)
                r.out.check_failures.push_back(
                    "threaded digest differs from the merge oracle");
            noteRun(rep, r, "merge-oracle run");
            merge.push_back(r.wall_s);
        }
        speedup = median(merge) / wall_u;
    }

    double events = 0.0;
    for (const Metric &m : pr.metrics)
        if (m.name == "sim.events")
            events = m.value;
    pr.add("workload.live_scan_ns",
           pr.live_scans ? pr.live_scan_ns / double(pr.live_scans) : 0.0,
           "ns");
    pr.add("cloud.place_ns",
           pr.places ? pr.place_ns / double(pr.places) : 0.0, "ns");
    pr.add("sim.host_ns_per_event",
           events > 0 ? wall_u * 1e9 / events : 0.0, "ns");
    pr.add("sim.queue_op_ns", queueOpNs(pr.pending_peak), "ns");
    pr.add("sim.threaded_speedup", speedup, "x");
    pr.add("trace.export_s", pr.export_s, "s");
    pr.add("trace.overhead_s", trace_over, "s");
    pr.add("telemetry.finish_s", pr.finish_s, "s");
    pr.add("telemetry.overhead_s", telem_over, "s");
    pr.add("stats.dump_s", pr.dump_s, "s");
    pr.add("bench.probe_overhead_ratio", wall_t / wall_u, "x");
    pr.add("ops_failed_ratio",
           base.ops_attempted
               ? double(base.ops_failed) / double(base.ops_attempted)
               : 0.0,
           "ratio");

    std::sort(pr.metrics.begin(), pr.metrics.end(),
              [](const Metric &a, const Metric &b) {
                  return a.name < b.name;
              });
    rep.metrics = pr.metrics;

    std::string spans_path = out_dir + "/" + def.name + ".spans.json";
    if (!pr.spans.write(spans_path)) {
        rep.correct = false;
        rep.failures.push_back("cannot write " + spans_path);
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s seed=%llu (sub-seed %llu): untraced wall %.4f s, "
                  "traced wall %.4f s; spans -> %s",
                  def.name, (unsigned long long)seed,
                  (unsigned long long)s0, wall_u, wall_t,
                  spans_path.c_str());
    rep.notes.push_back(buf);
    rep.notes.push_back(pr.spans.selfTimeTable());
    return rep;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: vcpbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n  workloads:");
    for (const WorkloadDef &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_dir = ".";
    std::uint64_t seed = 1;
    double budget = 10.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *val = argv[++i];
        char *endp = nullptr;
        if (a == "--workload") {
            workload = val;
        } else if (a == "--seed") {
            seed = std::strtoull(val, &endp, 10);
        } else if (a == "--seconds") {
            budget = std::strtod(val, &endp);
        } else if (a == "--trace") {
            trace = static_cast<int>(std::strtol(val, &endp, 10));
        } else if (a == "--out") {
            out_dir = val;
        } else {
            usage();
            return 2;
        }
        if (endp && *endp) {
            usage();
            return 2;
        }
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (workload == w.name)
            def = &w;
    if (!def || budget <= 0 || (trace != 0 && trace != 1)) {
        usage();
        return 2;
    }
    std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr, "vcpbench: refusing to measure: %s\n",
                     refusal.c_str());
        return 3;
    }
    setLogQuiet(true);
    // Keep freed memory in the heap instead of handing it back to the
    // kernel after every run, so repeats do not pay (and time) fresh
    // page faults for the same allocations.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    Report rep = trace ? measureLayers(*def, seed, out_dir)
                       : measureEndToEnd(*def, seed, budget, out_dir);
    printReport(rep, def->name, seed, trace);
    return 0;
}
