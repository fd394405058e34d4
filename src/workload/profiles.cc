#include "workload/profiles.hh"

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/sampler.hh"
#include "trace/tracer.hh"

namespace vcp {

CloudSetupSpec
cloudASpec()
{
    CloudSetupSpec s;
    s.name = "cloud-a-devtest";

    s.infra.hosts = 64;
    s.infra.host.cores = 16;
    s.infra.host.mhz_per_core = 2600.0;
    s.infra.host.memory = gib(128);
    s.infra.datastores = 8;
    s.infra.ds_capacity = gib(4096);
    s.infra.ds_copy_bandwidth = 200.0 * 1024 * 1024;

    for (int i = 0; i < 16; ++i) {
        TenantConfig t;
        t.name = "org-a" + std::to_string(i);
        t.vm_quota = 400;
        s.tenants.push_back(t);
    }

    s.templates = {
        {"lin-small", gib(8), 0.5, 1, gib(2), 2, hours(8)},
        {"lin-large", gib(16), 0.6, 2, gib(4), 3, hours(8)},
        {"win-dev", gib(24), 0.5, 2, gib(4), 1, hours(24)},
        {"ci-stack", gib(8), 0.4, 1, gib(2), 4, hours(4)},
    };

    s.director.use_linked_clones = true;
    s.director.pool.aggressive = true;
    s.director.pool.replication_factor = 2;
    s.director.pool.max_clones_per_base = 32;

    s.workload.duration = hours(24);
    s.workload.arrival.rate_per_hour = 120.0;
    s.workload.arrival.diurnal = true;
    s.workload.arrival.diurnal_amplitude = 0.8;
    s.workload.arrival.cv = 2.0;
    s.workload.tenant_zipf_s = 1.0;
    return s;
}

CloudSetupSpec
cloudBSpec()
{
    CloudSetupSpec s;
    s.name = "cloud-b-saas";

    s.infra.hosts = 128;
    s.infra.host.cores = 24;
    s.infra.host.mhz_per_core = 2400.0;
    s.infra.host.memory = gib(192);
    s.infra.datastores = 16;
    s.infra.ds_capacity = gib(8192);
    s.infra.ds_copy_bandwidth = 300.0 * 1024 * 1024;

    for (int i = 0; i < 8; ++i) {
        TenantConfig t;
        t.name = "org-b" + std::to_string(i);
        t.vm_quota = 900;
        s.tenants.push_back(t);
    }

    s.templates = {
        {"app-tier", gib(32), 0.6, 4, gib(8), 3, hours(72)},
        {"db-tier", gib(64), 0.7, 8, gib(16), 1, hours(168)},
    };

    s.director.use_linked_clones = true;
    s.director.pool.aggressive = false; // lazy: the Cloud B pain point
    s.director.pool.replication_factor = 1;
    s.director.pool.max_clones_per_base = 48;

    s.workload.duration = hours(24);
    s.workload.arrival.rate_per_hour = 40.0;
    s.workload.arrival.diurnal = true;
    s.workload.arrival.diurnal_amplitude = 0.4;
    s.workload.arrival.cv = 1.2;
    s.workload.tenant_zipf_s = 0.6;
    // Steadier population: fewer deploys, more day-2 operations.
    s.workload.action_weights = {15.0, 4.0, 35.0, 18.0,
                                 10.0, 8.0,  10.0};
    return s;
}

// Runs between engine_ and srv_ in the member-init sequence: by the
// time the server copies its config, the plan points at the live
// engine and the map matches the actual shard count.
const ManagementServerConfig &
CloudSimulation::shardedServerConfig()
{
    spec_.server.shard_plan.engine = &engine_;
    spec_.server.shard_plan.map = ShardMap(engine_.numShards());
    return spec_.server;
}

CloudSimulation::CloudSimulation(const CloudSetupSpec &spec,
                                 std::uint64_t seed)
    : spec_(spec),
      engine_(spec.exec.shards < 1 ? 1 : spec.exec.shards, seed),
      inv_(engine_.shard(0)),
      net_(engine_.shard(0), spec.infra.network),
      srv_(engine_.shard(0), inv_, net_, stats_,
           shardedServerConfig()),
      cloud_(srv_, spec.director)
{
    if (spec_.infra.hosts < 1 || spec_.infra.datastores < 1)
        fatal("CloudSimulation: need at least one host and datastore");

    // Stamp this thread's log lines with this simulation's clock
    // (thread-local, so sweep workers don't fight over it).
    setLogClock(engine_.shard(0).nowPtr());

    // Shared-storage cluster: every host sees every datastore.
    for (int d = 0; d < spec_.infra.datastores; ++d) {
        DatastoreConfig dc;
        dc.name = "ds" + std::to_string(d);
        dc.capacity = spec_.infra.ds_capacity;
        dc.copy_bandwidth = spec_.infra.ds_copy_bandwidth;
        ds_ids.push_back(inv_.addDatastore(dc));
    }
    ClusterId cluster = inv_.addCluster(spec_.name + "-cluster");
    for (int h = 0; h < spec_.infra.hosts; ++h) {
        HostConfig hc = spec_.infra.host;
        hc.name = "host" + std::to_string(h);
        HostId id = inv_.addHost(hc);
        inv_.assignHostToCluster(id, cluster);
        for (DatastoreId ds : ds_ids)
            inv_.connectHostToDatastore(id, ds);
        host_ids.push_back(id);
    }

    // A multi-link fabric needs every host and datastore pinned to a
    // rack; round-robin matches how the director spreads placements,
    // so rack-local and cross-rack copies both occur.
    Fabric &topo = net_.topology();
    if (!topo.degenerate()) {
        int racks = spec_.infra.network.fabric.racks;
        for (std::size_t i = 0; i < host_ids.size(); ++i)
            topo.attachHost(host_ids[i], static_cast<int>(i % racks));
        for (std::size_t i = 0; i < ds_ids.size(); ++i)
            topo.attachDatastore(ds_ids[i],
                                 static_cast<int>(i % racks));
    }

    for (const TenantConfig &t : spec_.tenants)
        tenant_ids.push_back(cloud_.addTenant(t));

    // Seed template golden masters round-robin across datastores.
    std::size_t ds_cursor = 0;
    for (const TemplateSpec &t : spec_.templates) {
        DatastoreId ds = ds_ids[ds_cursor++ % ds_ids.size()];
        template_ids.push_back(cloud_.createTemplate(
            t.name, ds, t.disk, t.fill, t.vcpus, t.memory, t.vm_count,
            t.lease));
    }

    driver_ = std::make_unique<WorkloadDriver>(
        cloud_, spec_.workload, engine_.shard(0).rng().fork());
}

CloudSimulation::~CloudSimulation()
{
    if (logClock() == engine_.shard(0).nowPtr())
        setLogClock(nullptr);
}

void
CloudSimulation::run(SimDuration drain)
{
    SimTime end = engine_.now() + spec_.workload.duration + drain;
    driver_->start();
    engine_.runUntil(end);
}

void
CloudSimulation::enableTracing(SpanTracer *tracer)
{
    srv_.attachTracer(tracer);
    cloud_.attachTracer(tracer);
}

namespace {

/** A control-plane load level, kept by a component of the server. */
struct StandardGauge
{
    const char *name;
    const LevelIntegral &(*level)(ManagementServer &);
};

/** The levels both addStandardGauges() and enableTelemetry() read. */
constexpr StandardGauge kStandardGauges[] = {
    {"api.queue",
     [](ManagementServer &s) -> const LevelIntegral & {
         return s.apiCenter().queueLevel();
     }},
    {"api.busy",
     [](ManagementServer &s) -> const LevelIntegral & {
         return s.apiCenter().busyLevel();
     }},
    {"sched.queue",
     [](ManagementServer &s) -> const LevelIntegral & {
         return s.scheduler().queueLevel();
     }},
    {"sched.running",
     [](ManagementServer &s) -> const LevelIntegral & {
         return s.scheduler().runningLevel();
     }},
    {"db.queue",
     [](ManagementServer &s) -> const LevelIntegral & {
         return s.database().center().queueLevel();
     }},
    {"db.busy",
     [](ManagementServer &s) -> const LevelIntegral & {
         return s.database().center().busyLevel();
     }},
};

} // namespace

void
CloudSimulation::addStandardGauges(GaugeSampler &sampler)
{
    for (const StandardGauge &g : kStandardGauges)
        sampler.addGauge(g.name, g.level(srv_));
}

void
CloudSimulation::enableTelemetry(TelemetryRegistry *reg)
{
    srv_.attachTelemetry(reg);
    if (!reg)
        return;

    // Queue-depth / occupancy gauges: each level with the integral
    // its component keeps, read at the snapshot's time.  Read on the
    // cold snapshot path, so a probe may walk aggregates.
    for (const StandardGauge &g : kStandardGauges)
        reg->addGaugeProbe(g.name, [this, level = g.level](SimTime t) {
            return level(srv_).at(t);
        });
    reg->addGaugeProbe("agents.busy", [this](SimTime t) {
        return srv_.agentLevels(&ServiceCenter::busyLevel, t);
    });
    reg->addGaugeProbe("agents.queued", [this](SimTime t) {
        return srv_.agentLevels(&ServiceCenter::queueLevel, t);
    });
    reg->addGaugeProbe("locks.keys", [this](SimTime t) {
        return srv_.lockManager().lockedKeysLevel().at(t);
    });
    reg->addGaugeProbe("fabric.active_transfers", [this](SimTime t) {
        return net_.topology().activeTransfersLevel().at(t);
    });

    // The resource list behind every bottleneck verdict.
    reg->setUtilizations([this] { return collectUtilizations(srv_); });

    // The fabric's monotone counters (the server registered its own).
    reg->addCounterProbe("fabric.reroutes", [this] {
        return net_.topology().reroutes();
    });
    reg->addCounterProbe("fabric.failed_transfers", [this] {
        return net_.topology().failedTransfers();
    });

    // Per-shard engine series.  Shard-scoped: exported under the
    // trailing "shards" section because their values legitimately
    // differ across --parallel-shards counts.
    reg->addCounterProbe(
        "sim.events", [this] { return engine_.eventsProcessed(); },
        true);
    for (int s = 0; s < engine_.numShards(); ++s) {
        auto sid = static_cast<ShardId>(s);
        std::string prefix = "shard" + std::to_string(s);
        reg->addCounterProbe(
            prefix + ".events",
            [this, sid] { return engine_.shardStats(sid).events; },
            true);
        reg->addCounterProbe(
            prefix + ".stalled_rounds",
            [this, sid] {
                return engine_.shardStats(sid).stalled_rounds;
            },
            true);
        reg->addCounterProbe(
            prefix + ".cross_sent",
            [this, sid] { return engine_.shardStats(sid).cross_sent; },
            true);
        reg->addCounterProbe(
            prefix + ".barrier_wait_ns",
            [this, sid] {
                return engine_.shardStats(sid).barrier_wait_ns;
            },
            true);
        // A level with no integral: shard-scoped gauges export their
        // level only.
        reg->addGaugeProbe(
            prefix + ".mailbox",
            [this, sid](SimTime) {
                return LevelReading{static_cast<std::int64_t>(
                    engine_.mailboxBacklog(sid))};
            },
            true);
    }
}

} // namespace vcp
