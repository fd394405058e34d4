/**
 * @file
 * The management server: the control plane's front door and task
 * execution pipeline.
 *
 * Every operation flows through the same stations:
 *
 *   submit -> [api threads] -> [dispatch queue] -> [entity locks]
 *          -> [inventory DB txns] -> [host agent +/- data copy]
 *          -> [finalize DB txns] -> complete
 *
 * Each station is a bounded resource, so the pipeline exhibits the
 * queueing behaviour the paper characterizes: once provisioning no
 * longer pays a data-copy cost (linked clones), throughput is capped
 * by dispatch width, DB connections, host-agent slots, and lock
 * serialization — the management control plane itself.
 */

#ifndef VCP_CONTROLPLANE_MANAGEMENT_SERVER_HH
#define VCP_CONTROLPLANE_MANAGEMENT_SERVER_HH

#include <array>
#include <memory>
#include <vector>

#include "controlplane/cost_model.hh"
#include "controlplane/database.hh"
#include "controlplane/host_agent.hh"
#include "controlplane/lock_manager.hh"
#include "controlplane/op_types.hh"
#include "controlplane/rate_limiter.hh"
#include "controlplane/scheduler.hh"
#include "controlplane/task.hh"
#include "infra/arena.hh"
#include "infra/inventory.hh"
#include "infra/network.hh"
#include "sim/service_center.hh"
#include "sim/simulator.hh"
#include "stats/registry.hh"

namespace vcp {

class SpanTracer;
class TelemetryRegistry;
struct ResourceUtilization;

/** One in-flight operation's execution context (defined in the .cc). */
struct OpCtx;

/** Sizing and policy of the management server. */
struct ManagementServerConfig
{
    /** Front-door request-processing threads. */
    int api_threads = 8;

    /** Maximum concurrently executing tasks. */
    int dispatch_width = 32;

    /** Dispatch ordering policy. */
    SchedPolicy policy = SchedPolicy::Fifo;

    /** Database connection pool. */
    DatabaseConfig db;

    /** Per-host agent sizing. */
    HostAgentConfig agent;

    /** Concurrent provisioning/data ops allowed per datastore. */
    int datastore_slots = 8;

    /** Operation cost parameters. */
    CostModelConfig costs;

    /** Per-tenant API admission control. */
    RateLimitConfig rate_limit;

    /**
     * Background database load (statistics rollups, event purges):
     * every @c background_db_period the server runs
     * @c background_db_txns transactions through the same connection
     * pool operations use.  0 period disables it.  NOTE: when
     * enabled, the recurring event keeps the event set non-empty —
     * drive such simulations with runUntil(), not run().
     */
    SimDuration background_db_period = 0;
    int background_db_txns = 50;

    /**
     * Reconciliation cost after a host-agent reconnect: the resync
     * runs @c reconcile_base_txns database transactions plus
     * @c reconcile_txns_per_vm per resident VM before parked
     * completions resume — the same inventory-size-coupled pattern
     * that makes AddHost expensive.
     */
    int reconcile_base_txns = 8;
    int reconcile_txns_per_vm = 2;

    /**
     * Intra-run execution binding (sim/shard.hh).  With an engine
     * attached, per-host agents and per-datastore slot centers bind
     * to the shard kernels the map assigns them, while the server
     * core (API, scheduler, locks, DB, limiter) stays on the kernel
     * the server was constructed with — the serialized control
     * shard.  The default (null engine) reproduces the classic
     * single-kernel layout exactly.
     */
    ShardPlan shard_plan;
};

/** The vCenter-class management server model. */
class ManagementServer
{
  public:
    ManagementServer(Simulator &sim, Inventory &inventory,
                     Network &network, StatRegistry &stats,
                     const ManagementServerConfig &cfg = {});
    ~ManagementServer();

    ManagementServer(const ManagementServer &) = delete;
    ManagementServer &operator=(const ManagementServer &) = delete;

    /**
     * Submit an operation.  @p on_done fires when the task finishes
     * (successfully or not), receiving the final Task record.  A
     * rate-limited request still produces a (failed) task so the
     * rejection is observable.
     * @return the new task's id.
     */
    TaskId submit(const OpRequest &req, TaskCallback on_done = {});

    /**
     * Request cancellation of a task.  Best effort: honored if the
     * task has not yet dispatched (it then fails with
     * TaskError::Cancelled); a running task completes normally.
     * @return true if the request was registered.
     */
    bool cancel(TaskId id);

    /** True from submit() until the task finishes: a finished task's
     *  record is recycled once its callback returns. */
    bool hasTask(TaskId id) const { return tasks.has(id); }

    /** @{ Component access for tests, benches, and the cloud layer. */
    TaskScheduler &scheduler() { return sched; }
    InventoryDatabase &database() { return db; }
    LockManager &lockManager() { return locks; }
    TenantRateLimiter &rateLimiter() { return limiter; }
    OpCostModel &costModel() { return costs; }
    ServiceCenter &apiCenter() { return api; }
    HostAgent &hostAgent(HostId h);
    ServiceCenter &datastoreSlots(DatastoreId d);
    Inventory &inventory() { return inv; }
    Network &network() { return net; }
    Simulator &simulator() { return sim; }
    StatRegistry &statRegistry() { return stats; }
    const ManagementServerConfig &config() const { return cfg; }
    /** @} */

    /** @{ Aggregate counters. */
    std::uint64_t opsSubmitted() const { return submitted_ops; }
    std::uint64_t opsCompleted() const { return completed_ops; }
    std::uint64_t opsFailed() const { return failed_ops; }

    /** Bulk bytes moved by all data-plane phases so far. */
    Bytes bytesMoved() const { return bytes_moved; }
    /** @} */

    /**
     * Mark host @p h's management agent as disconnected (the session
     * dropped; the host itself keeps running, unlike a crash).  The
     * host is disconnected in the inventory too, so submissions are
     * rejected up front, and in-flight host-side completions park on
     * the agent until reconcileHost() runs.  No-op when the host or
     * agent is already disconnected.
     */
    void disconnectHost(HostId h);

    /**
     * Reconnect host @p h's agent and run the reconciliation pass:
     * a DB resync sized by the host's resident-VM count, a residency
     * audit repairing stale VM->host bindings, then every parked
     * completion resumes in park order.  @p done (optional) fires
     * when the pass completes.  No-op (runs @p done immediately) when
     * the agent is not disconnected.
     */
    void reconcileHost(HostId h, InlineAction done = {});

    /** @{ Disconnect/reconciliation lifetime counters. */
    std::uint64_t agentDisconnects() const { return agent_disconnects; }
    std::uint64_t reconciles() const { return reconcile_runs; }
    std::uint64_t reconcileOpsResumed() const
    {
        return reconcile_resumed;
    }
    std::uint64_t reconcileResidencyFixed() const
    {
        return reconcile_residency_fixed;
    }
    /** @} */

    /**
     * @{ The per-op latency cells (usec), stored in the stat registry
     * as "cp.latency_us.<op>" and "cp.phase_us.<op>.<phase>".  Every
     * finished op — rate-limited rejects included — adds its
     * end-to-end latency to its op type's cell, and the time of each
     * phase it entered to that phase's cell.  The cells are fed
     * whether or not a tracer or telemetry is attached; the stats
     * dump, the span tables and the benches all read them.  Reading
     * never creates a cell (an absent one reads as empty).
     */
    const LatencyHistogram &latencyHistogram(OpType t) const;
    const LatencyHistogram &phaseHistogram(OpType t, TaskPhase p) const;
    /** @} */

    /**
     * Observer invoked with every finished task (before the task's
     * own callback) — the hook the trace recorder uses.
     */
    void setTaskObserver(TaskCallback observer)
    {
        task_observer = std::move(observer);
    }

    /**
     * Attach the op-lifecycle span tracer.  Registers the op/phase/
     * error axes on @p t, interns the agent sub-span names, and
     * propagates the tracer to the scheduler, lock manager, database,
     * and API center.  Pass nullptr to detach.  Recording is further
     * gated on the tracer's runtime switch; with the switch off every
     * site costs one predictable branch.
     */
    void attachTracer(SpanTracer *t);

    /** The attached tracer, or nullptr. */
    SpanTracer *tracer() const { return tracer_; }

    /**
     * Attach the streaming-telemetry registry and propagate it to the
     * scheduler, lock manager, and database.  Registers the server's
     * counters, which read its lifetime integers ("cp.ops_submitted",
     * "cp.ops_completed", "cp.ops_failed", "cp.bytes_moved",
     * "agent.disconnects", "agent.reconcile.runs",
     * "agent.reconcile.resumed_ops"), and creates its histograms
     * ("cp.op_us" end-to-end latency, "agent.reconcile.us").  Pass
     * nullptr to detach the histograms; every push site then costs
     * one branch.
     */
    void attachTelemetry(TelemetryRegistry *reg);

    /**
     * One level of every per-host agent's op-slot center (@p level is
     * &ServiceCenter::busyLevel or &ServiceCenter::queueLevel),
     * summed with its integral up to @p now: the "agents.*"
     * telemetry gauges, one series per level instead of one per host.
     */
    LevelReading agentLevels(
        const LevelIntegral &(ServiceCenter::*level)() const,
        SimTime now) const;

  private:
    /**
     * Contexts are owned by a pool on the server and passed around as
     * raw pointers: one operation's pipeline is strictly linear (at
     * most one pending callback per context, finish() is terminal),
     * so the pointer cannot outlive its slot.
     */
    using CtxPtr = OpCtx *;

    /**
     * @{ The op interpreter.  Each op type maps to a recipe of four
     * steps (check, relock, prepare, apply; see the .cc and DESIGN.md
     * "Model performance"), and these stations run it:
     *
     *   runTask      dispatch: check, then acquire the lock set
     *   locksGranted relock, then the DB txns
     *   dbDone       prepare, then the host phase the recipe pinned:
     *                the data phase (a datastore slot), the agent
     *                phase (a host alone) or none
     *   hostDone     apply, then the finalize txns and finish()
     *
     * Only the stations schedule events, sample costs or call
     * finish(); every hop captures just {this, ctx}, so nothing
     * allocates per hop.  A recipe change that keeps each step's
     * inventory reads at the same station and adds no event or RNG
     * draw leaves the output byte-identical; the golden suite
     * (tests/golden/) checks that.
     */
    void runTask(CtxPtr ctx);
    void locksGranted(CtxPtr ctx);
    void dbDone(CtxPtr ctx);
    void hostDone(CtxPtr ctx);

    /** Run one recipe step; on error finish the task, return false. */
    bool runStep(CtxPtr ctx, TaskError (*step)(OpCtx &));
    /** @} */

    /**
     * @{ Data phase stages: datastore slot, then agent slot, host
     * setup, the copy (skipped for 0 bytes), release both and go on to
     * hostDone().  A disconnected agent parks the setup and copy
     * completions until reconciliation.
     */
    void dataSlotGranted(CtxPtr ctx);
    void dataAgentGranted(CtxPtr ctx);
    void dataSetupDone(CtxPtr ctx);
    void dataCopyDone(CtxPtr ctx);
    /** Fabric lost the path mid-copy: fail the task. */
    void dataCopyFailed(CtxPtr ctx);
    /** @} */

    /** Release the agent and datastore slots the ctx holds. */
    void releaseSlots(CtxPtr ctx);

    /**
     * Finish the task, releasing everything the ctx still holds.  The
     * one completion path of every op, a rate-limited reject
     * included: counters, latency cells and telemetry, then the
     * dispatch slot, then the op span, the observer and the callback.
     */
    void finish(CtxPtr ctx, TaskError err);

    /** Add [ctx->phase_start, now] to the task's @p phase time and
     *  record it as a @p phase span (when tracing).  Each phase ends
     *  at most once per op. */
    void endPhase(CtxPtr ctx, TaskPhase phase);

    /**
     * @{ Span recording.  No-ops (one branch) without an attached and
     * enabled tracer; see DESIGN.md "Observability".
     */

    /**
     * Split the HostAgent phase just recorded into agent-wait /
     * agent-exec sub-spans: @p service is the execution time sampled
     * at dispatch, so the wait is the remainder — no extra callback
     * wrapping needed.
     */
    void traceAgentSplit(CtxPtr ctx, SimDuration service);

    /** Record the whole-op span of a finished task. */
    void traceOp(const Task &t);
    /** @} */

    /** @{ Context pool. */
    OpCtx *allocCtx();
    void releaseCtx(OpCtx *ctx);
    /** @} */

    /** One reconciliation pass in flight (pooled by index). */
    struct ReconcileCtx
    {
        HostId host;
        SimTime started = 0;
        InlineAction done;
    };

    /** DB resync finished: audit residency, resume parked ops. */
    void reconcileResync(std::uint32_t idx);

    Simulator &sim;
    Inventory &inv;
    Network &net;
    StatRegistry &stats;
    ManagementServerConfig cfg;

    OpCostModel costs;
    ServiceCenter api;
    TaskScheduler sched;
    InventoryDatabase db;
    LockManager locks;
    TenantRateLimiter limiter;

    /** Recurring statistics-rollup load on the database. */
    void backgroundDbTick();

    /**
     * Hosts and datastores are never destroyed, so their arena slots
     * are dense and stable: the per-host agents and per-datastore
     * slot centers live in plain vectors indexed by slot.  Ids built
     * from bare values are normalized to full handles first.
     */
    std::vector<std::unique_ptr<HostAgent>> agents;
    std::vector<std::unique_ptr<ServiceCenter>> ds_slots;

    /** Reads agents and ds_slots without creating entries. */
    friend std::vector<ResourceUtilization>
    collectUtilizations(ManagementServer &srv);

    /** Task records, pooled; finished tasks recycle their slot. */
    SlotArena<Task, TaskId> tasks{"task"};

    /** @{ Context pool backing store. */
    std::vector<std::unique_ptr<OpCtx>> ctx_pool;
    std::vector<OpCtx *> ctx_free;
    /** @} */

    /**
     * Pre-resolved stat handles.  Dotted names are resolved at most
     * once per (op type, stat) and recorded through raw pointers; all
     * caches fill lazily on first use, so a cell exists only once an
     * op fed it and the sorted dump lists exactly the cells in use.
     */
    struct OpCells
    {
        LatencyHistogram *op = nullptr;
        std::array<LatencyHistogram *, kNumTaskPhases> phase{};
    };

    /** Add a finished task to its op and entered-phase cells. */
    void recordLatency(const Task &t);

    /** Cache for one error counter ("cp.errors.<name>"). */
    Counter &errorCounter(TaskError e);

    std::array<OpCells, kNumOpTypes> op_cells{};
    std::array<Counter *, kNumTaskErrors> error_stats{};
    Counter *submitted_stat = nullptr;
    Counter *completed_stat = nullptr;
    Counter *failed_stat = nullptr;
    Counter *bytes_moved_stat = nullptr;
    Counter *bg_txns_stat = nullptr;

    /** @{ Reconciliation state. */
    std::vector<ReconcileCtx> reconcile_ctxs;
    std::vector<std::uint32_t> reconcile_free;
    std::uint64_t agent_disconnects = 0;
    std::uint64_t reconcile_runs = 0;
    std::uint64_t reconcile_resumed = 0;
    std::uint64_t reconcile_residency_fixed = 0;
    Counter *disconnects_stat = nullptr;
    Counter *reconciles_stat = nullptr;
    Counter *resumed_stat = nullptr;
    Counter *residency_fixed_stat = nullptr;
    /** @} */

    TaskCallback task_observer;
    SpanTracer *tracer_ = nullptr;
    LatencyHistogram *t_op_lat = nullptr;
    LatencyHistogram *t_reconcile_lat = nullptr;
    std::uint16_t sub_agent_wait_ = 0;
    std::uint16_t sub_agent_exec_ = 0;
    std::int64_t next_task_id = 1;
    std::uint64_t submitted_ops = 0;
    std::uint64_t completed_ops = 0;
    std::uint64_t failed_ops = 0;
    Bytes bytes_moved = 0;
};

/**
 * The resource list every bottleneck verdict reads, in this order:
 * API threads, dispatch slots, DB connections, host agents (mean and
 * max across hosts), datastore slots (mean and max) — all control
 * plane — then datastore copy pipes (mean and max) and the busiest
 * network-fabric link — data plane.  Utilizations are busy fractions
 * over the run so far.  The read creates no agent or slot center (a
 * center's utilization counts from its creation, so periodic reads
 * must not create them); a host or datastore without one is idle.
 */
std::vector<ResourceUtilization>
collectUtilizations(ManagementServer &srv);

} // namespace vcp

#endif // VCP_CONTROLPLANE_MANAGEMENT_SERVER_HH
