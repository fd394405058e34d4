/**
 * @file
 * The two studied cloud profiles and the all-in-one simulation
 * harness.
 *
 * The paper analyzes two real-world self-service setups.  Without
 * the production traces, we model their qualitative shapes (see
 * DESIGN.md):
 *
 *  - Cloud A ("dev/test"): many tenants, small short-lived vApps,
 *    strongly diurnal and bursty demand, very high churn.  This is
 *    the setup where linked-clone provisioning rates stress the
 *    control plane hardest.
 *  - Cloud B ("SaaS/production"): fewer tenants, larger longer-lived
 *    vApps, steadier arrivals, an op mix tilted toward power and
 *    reconfiguration actions on the standing population.
 */

#ifndef VCP_WORKLOAD_PROFILES_HH
#define VCP_WORKLOAD_PROFILES_HH

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_director.hh"
#include "sim/sharded_simulator.hh"
#include "workload/driver.hh"

namespace vcp {

class GaugeSampler;
class SpanTracer;
class TelemetryRegistry;

/** Physical-plant sizing. */
struct InfraSpec
{
    int hosts = 64;
    HostConfig host;
    int datastores = 8;
    Bytes ds_capacity = gib(4096);
    double ds_copy_bandwidth = 200.0 * 1024 * 1024;
    NetworkConfig network;
};

/** One catalog template to create. */
struct TemplateSpec
{
    std::string name;
    Bytes disk = gib(8);
    double fill = 0.5;
    int vcpus = 1;
    Bytes memory = gib(2);
    int vm_count = 2;
    SimDuration lease = hours(8);
};

/** Intra-run parallel execution of one simulated cloud. */
struct ExecSpec
{
    /**
     * Event-set shards.  Shard 0 is the serialized control shard
     * (API, scheduler, locks, DB, director); shards 1..n-1 spread
     * host agents and datastore slot centers.  1 reproduces the
     * classic single-kernel run exactly.
     */
    int shards = 1;

    /**
     * Execution mode for shards > 1.  The single-server model is not
     * shard-closed (pipeline helpers call host-agent and datastore
     * centers synchronously), so only the deterministic Merge oracle
     * is supported here — Threaded mode is rejected at construction.
     * Share-nothing federation stacks (cloud/federation.hh) support
     * Threaded.
     */
    ShardExecMode mode = ShardExecMode::Merge;

    /** Cross-shard delivery lookahead (Threaded mode only). */
    SimDuration lookahead = 0;
};

/** A complete simulated cloud: plant + tenancy + policy + demand. */
struct CloudSetupSpec
{
    std::string name;
    InfraSpec infra;
    std::vector<TenantConfig> tenants;
    std::vector<TemplateSpec> templates;
    ManagementServerConfig server;
    CloudDirectorConfig director;
    WorkloadConfig workload;
    ExecSpec exec;
};

/** The dev/test profile (high churn, bursty, diurnal). */
CloudSetupSpec cloudASpec();

/** The SaaS/production profile (steadier, op mix on standing VMs). */
CloudSetupSpec cloudBSpec();

/**
 * Owns every layer of one simulated cloud and wires them together:
 * kernel, inventory, network, management server, director, driver.
 * The convenience entry point for examples, tests, and benches.
 */
class CloudSimulation
{
  public:
    /**
     * Build the whole stack from a spec.
     * @param spec the cloud to simulate.
     * @param seed root RNG seed (runs are deterministic per seed).
     */
    explicit CloudSimulation(const CloudSetupSpec &spec,
                             std::uint64_t seed = 1);

    /** Detaches the log clock if it still points at this sim. */
    ~CloudSimulation();

    /** run()'s default drain. */
    static constexpr SimDuration kDrain = minutes(30);

    /**
     * Start the workload and run until the workload window closes
     * plus @p drain (letting in-flight operations finish).
     */
    void run(SimDuration drain = kDrain);

    /** Start the workload generator without running the clock. */
    void start() { driver_->start(); }

    /** Advance simulated time by @p d (phased runs for benches that
     *  snapshot utilizations before draining). */
    void runFor(SimDuration d)
    {
        engine_.runUntil(engine_.now() + d);
    }

    /** @{ Layer access. */
    /** The control shard's kernel (the only kernel when shards=1). */
    Simulator &sim() { return engine_.shard(0); }
    /** The sharded engine driving all kernels. */
    ShardedSimulator &engine() { return engine_; }
    StatRegistry &stats() { return stats_; }
    Inventory &inventory() { return inv_; }
    Network &network() { return net_; }
    ManagementServer &server() { return srv_; }
    const ManagementServer &server() const { return srv_; }
    CloudDirector &cloud() { return cloud_; }
    WorkloadDriver &driver() { return *driver_; }
    const CloudSetupSpec &spec() const { return spec_; }
    /** @} */

    /** Total events executed across every shard. */
    std::uint64_t eventsProcessed() const
    {
        return engine_.eventsProcessed();
    }

    /**
     * Attach @p tracer across the whole stack: the management server
     * (which fans out to scheduler, lock manager, database, and API
     * center) and the cloud director.  Pass nullptr to detach.
     */
    void enableTracing(SpanTracer *tracer);

    /**
     * Register the standard control-plane load gauges (API queue and
     * busy threads, dispatch queue and running tasks, DB queue and
     * busy connections) on a caller-owned sampler, the trace's gauge
     * tracks, under the names enableTelemetry() gives the same levels
     * ("api.queue", "sched.queue", ...).  Both read the one
     * LevelIntegral each component keeps.
     */
    void addStandardGauges(GaugeSampler &sampler);

    /**
     * Attach a caller-owned telemetry registry across the stack: the
     * management server's counters and histograms (scheduler, locks,
     * database, ops, agents) plus polled probes for every saturation
     * point — queue-depth gauges read from the components' level
     * integrals, the collectUtilizations() resource list, the
     * fabric's counters, and per-shard engine series (events, mailbox
     * backlog, horizon stalls, neighbour wait).  Pass nullptr to
     * detach the histograms.
     */
    void enableTelemetry(TelemetryRegistry *reg);

    /** Tenant/template ids in spec order. */
    const std::vector<TenantId> &tenantIds() const { return tenant_ids; }
    const std::vector<TemplateId> &templateIds() const
    {
        return template_ids;
    }

    /** Host/datastore ids in creation order. */
    const std::vector<HostId> &hostIds() const { return host_ids; }
    const std::vector<DatastoreId> &datastoreIds() const
    {
        return ds_ids;
    }

  private:
    /** Binds spec_.server.shard_plan to engine_ (init-order helper:
     *  runs after spec_ and engine_, before srv_). */
    const ManagementServerConfig &shardedServerConfig();

    CloudSetupSpec spec_;
    ShardedSimulator engine_;
    StatRegistry stats_;
    Inventory inv_;
    Network net_;
    ManagementServer srv_;
    CloudDirector cloud_;
    std::unique_ptr<WorkloadDriver> driver_;

    std::vector<HostId> host_ids;
    std::vector<DatastoreId> ds_ids;
    std::vector<TenantId> tenant_ids;
    std::vector<TemplateId> template_ids;
};

} // namespace vcp

#endif // VCP_WORKLOAD_PROFILES_HH
