#include "controlplane/management_server.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/tracer.hh"

namespace vcp {

/** The scalar part of an OpCtx: everything reset() restores. */
struct OpState
{
    Task *task = nullptr;

    /** @{ Entities the recipe pinned; later steps re-fetch them. */
    VmId vm;
    DiskId disk;
    DiskId parent;
    /** Host the host phase runs on; none skips the host phase. */
    HostId host;
    /** @} */

    /**
     * @{ Data phase, selected by a valid slot_ds: take a slot on
     * slot_ds and an agent slot on host, run the host-side setup,
     * then move @c bytes (0 = no copy).  A same-datastore copy charges
     * that datastore's own pipe; anything else crosses the routed
     * fabric between the datastores' nodes, or between the hosts
     * net_src -> net_dst when the recipe pinned them (live
     * migration's memory stream).
     */
    DatastoreId slot_ds;
    DatastoreId src_ds;
    DatastoreId dst_ds;
    Bytes bytes = 0;
    HostId net_src;
    HostId net_dst;
    /** @} */

    /** Host-agent slot held across an async data copy. */
    HostAgent *held_agent = nullptr;

    /** Per-datastore provisioning slot held. */
    ServiceCenter *held_ds_slot = nullptr;

    /** Host resources committed and not yet owned by a power state. */
    HostId committed_host;
    int committed_vcpus = 0;
    Bytes committed_memory = 0;

    /** Provisional disk (a base-disk replica) to destroy on failure. */
    DiskId created_disk;

    /** Raw datastore reservation to undo if the task fails. */
    DatastoreId reserved_ds;
    Bytes reserved_bytes = 0;

    /** Start of the phase in progress; sampled agent execution time. */
    SimTime phase_start = 0;
    SimDuration agent_service = 0;
};

/**
 * Per-task execution context: what one op's recipe steps and the
 * interpreter's stations share.
 *
 * Tracks which resources the pipeline currently holds so that
 * finish() can release them exactly once on every path — including
 * the failure paths, where provisional inventory records and resource
 * commitments are also rolled back.
 *
 * Rule enforced throughout this file: the context pins entity *ids*,
 * never references; steps re-fetch (and re-check) entities after
 * every asynchronous boundary, because the inventory may have changed
 * while the task waited.
 *
 * Contexts are pooled (allocCtx()/releaseCtx()), so each asynchronous
 * hop captures only {this, ctx} and stays inside InlineAction's
 * inline buffer.
 */
struct OpCtx : OpState
{
    OpCtx(Inventory &i, const OpCostModel &c) : inv(i), costs(c) {}

    /** What steps read and change.  The cost model is const: a step
     *  never draws a sample. */
    Inventory &inv;
    const OpCostModel &costs;

    TaskCallback cb;

    /** Lock set the check step builds; held_locks once granted. */
    std::vector<LockRequest> locks;
    std::vector<LockRequest> held_locks;

    /** Provisional VM records to destroy if the task fails. */
    std::vector<VmId> created_vms;

    /** Destroy: the disk set the VM had when its locks were built. */
    std::vector<DiskId> disks;

    const OpRequest &req() const { return task->request(); }
    OpType type() const { return task->type(); }

    /** Commit @p vm's shape on host @p h, to be released on failure. */
    bool
    commitOn(HostId h, const Vm &vm)
    {
        if (!inv.host(h).commit(vm.vcpus, vm.memory))
            return false;
        committed_host = h;
        committed_vcpus = vm.vcpus;
        committed_memory = vm.memory;
        return true;
    }

    /** Reserve @p b raw bytes on @p d, to be released on failure. */
    bool
    reserveOn(DatastoreId d, Bytes b)
    {
        if (!inv.datastore(d).reserve(b))
            return false;
        reserved_ds = d;
        reserved_bytes = b;
        return true;
    }

    /** Return to pool-fresh state (vectors keep their capacity). */
    void
    reset()
    {
        static_cast<OpState &>(*this) = OpState{};
        cb = nullptr;
        locks.clear();
        held_locks.clear();
        created_vms.clear();
        disks.clear();
    }
};

namespace {

/**
 * One recipe step: synchronous, it validates against or changes the
 * inventory through the context and returns the error that fails the
 * task (TaskError::None to go on).
 */
using OpStep = TaskError (*)(OpCtx &);

/**
 * An op family's recipe: four steps the interpreter runs at fixed
 * points of the pipeline (see DESIGN.md "Model performance").  A null
 * step does nothing.
 */
struct Recipe
{
    /** At dispatch: validate, pin ids into the context, build the
     *  lock set. */
    OpStep check;

    /** Once the locks are held: re-validate, commit or reserve. */
    OpStep relock;

    /** After the DB txns: create provisional records, point the host
     *  phase at a datastore slot. */
    OpStep prepare;

    /** After the host phase: change the inventory. */
    OpStep apply;
};

const Recipe &recipeFor(OpType t);

} // namespace

ManagementServer::~ManagementServer() = default;

OpCtx *
ManagementServer::allocCtx()
{
    if (!ctx_free.empty()) {
        OpCtx *ctx = ctx_free.back();
        ctx_free.pop_back();
        return ctx;
    }
    ctx_pool.push_back(std::make_unique<OpCtx>(inv, costs));
    return ctx_pool.back().get();
}

void
ManagementServer::releaseCtx(OpCtx *ctx)
{
    ctx->reset();
    ctx_free.push_back(ctx);
}

ManagementServer::ManagementServer(Simulator &sim_, Inventory &inventory,
                                   Network &network, StatRegistry &stats_,
                                   const ManagementServerConfig &cfg_)
    : sim(sim_), inv(inventory), net(network), stats(stats_), cfg(cfg_),
      costs(cfg_.costs, sim_.rng().fork()),
      api(sim_, "api", cfg_.api_threads),
      sched(sim_, cfg_.policy, cfg_.dispatch_width),
      db(sim_, inventory, costs, cfg_.db),
      locks(sim_),
      limiter(sim_, cfg_.rate_limit)
{
    if (cfg.datastore_slots < 1)
        fatal("ManagementServer: datastore_slots must be >= 1");
    if (cfg.background_db_period > 0) {
        if (cfg.background_db_txns < 1)
            fatal("ManagementServer: background_db_txns must be >= 1");
        sim.schedule(cfg.background_db_period,
                     [this] { backgroundDbTick(); });
    }
}

void
ManagementServer::backgroundDbTick()
{
    if (!bg_txns_stat)
        bg_txns_stat = &stats.counter("cp.db.background_txns");
    db.runTxns(cfg.background_db_txns, [this] {
        bg_txns_stat->inc(
            static_cast<std::uint64_t>(cfg.background_db_txns));
    });
    sim.schedule(cfg.background_db_period,
                 [this] { backgroundDbTick(); });
}

bool
ManagementServer::cancel(TaskId id)
{
    if (!tasks.has(id) || tasks.get(id).finished())
        return false;
    tasks.get(id).requestCancel();
    return true;
}

HostAgent &
ManagementServer::hostAgent(HostId h)
{
    if (!h.hasSlot())
        h = inv.host(h).id();
    if (h.slot >= agents.size())
        agents.resize(h.slot + 1);
    auto &agent = agents[h.slot];
    if (!agent) {
        // Bind the agent to its mapped shard kernel; without an
        // engine this is the server's own kernel.
        Simulator &asim = cfg.shard_plan.simFor(
            cfg.shard_plan.map.hostShard(h.slot), sim);
        agent = std::make_unique<HostAgent>(asim, h, cfg.agent);
    }
    return *agent;
}

ServiceCenter &
ManagementServer::datastoreSlots(DatastoreId d)
{
    if (!d.hasSlot())
        d = inv.datastore(d).id();
    if (d.slot >= ds_slots.size())
        ds_slots.resize(d.slot + 1);
    auto &center = ds_slots[d.slot];
    if (!center) {
        Simulator &dsim = cfg.shard_plan.simFor(
            cfg.shard_plan.map.datastoreShard(d.slot), sim);
        center = std::make_unique<ServiceCenter>(
            dsim, "ds-slots:" + std::to_string(d.value),
            cfg.datastore_slots);
    }
    return *center;
}

void
ManagementServer::disconnectHost(HostId h)
{
    if (!inv.hasHost(h))
        panic("ManagementServer::disconnectHost: no such host");
    Host &host = inv.host(h);
    HostAgent &agent = hostAgent(h);
    // A crashed host (disconnected in the inventory but with a live
    // agent record) recovers through the HA path, not this one.
    if (!host.connected() || !agent.connected())
        return;
    host.setConnected(false);
    agent.setConnected(false);
    ++agent_disconnects;
    if (!disconnects_stat)
        disconnects_stat = &stats.counter("agent.disconnects");
    disconnects_stat->inc();
}

void
ManagementServer::reconcileHost(HostId h, InlineAction done)
{
    if (!inv.hasHost(h))
        panic("ManagementServer::reconcileHost: no such host");
    HostAgent &agent = hostAgent(h);
    if (agent.connected()) {
        // Nothing to reconcile: the host was never disconnected, or
        // it crashed — crash recovery goes through HaManager.
        if (done)
            done();
        return;
    }
    agent.setConnected(true);
    inv.host(h).setConnected(true);

    std::uint32_t idx;
    if (!reconcile_free.empty()) {
        idx = reconcile_free.back();
        reconcile_free.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(reconcile_ctxs.size());
        reconcile_ctxs.emplace_back();
    }
    ReconcileCtx &rc = reconcile_ctxs[idx];
    rc.host = h;
    rc.started = sim.now();
    rc.done = std::move(done);

    // The resync reads back the host's view of every resident VM
    // through the same connection pool operations use — the cost
    // grows with the host's population, like AddHost.
    int txns = cfg.reconcile_base_txns +
               cfg.reconcile_txns_per_vm *
                   static_cast<int>(inv.host(h).vms().size());
    db.runTxns(txns, [this, idx] { reconcileResync(idx); });
}

void
ManagementServer::reconcileResync(std::uint32_t idx)
{
    ReconcileCtx &rc = reconcile_ctxs[idx];
    HostId h = rc.host;
    Host &host = inv.host(h);

    // Residency audit: the database inventory is authoritative.  Any
    // VM the host still lists that the DB destroyed or moved while
    // the agent was dark is dropped from the host's registration.
    std::uint64_t fixed = 0;
    std::vector<VmId> stale;
    for (VmId v : host.vms()) {
        if (!inv.hasVm(v) || inv.vm(v).host != h)
            stale.push_back(v);
    }
    for (VmId v : stale) {
        host.unregisterVm(v);
        ++fixed;
    }

    // Parked completions resume only after the resync committed:
    // until the server has re-read the host's state it cannot trust
    // any result the agent reports.
    std::size_t resumed = hostAgent(h).resumeParked();

    ++reconcile_runs;
    reconcile_resumed += resumed;
    reconcile_residency_fixed += fixed;
    if (!reconciles_stat)
        reconciles_stat = &stats.counter("agent.reconciles");
    reconciles_stat->inc();
    if (resumed > 0) {
        if (!resumed_stat)
            resumed_stat = &stats.counter("agent.reconcile_resumed");
        resumed_stat->inc(static_cast<std::uint64_t>(resumed));
    }
    if (fixed > 0) {
        if (!residency_fixed_stat) {
            residency_fixed_stat =
                &stats.counter("agent.reconcile_residency_fixed");
        }
        residency_fixed_stat->inc(fixed);
    }
    if (VCP_TELEM_ON(t_reconcile_lat))
        t_reconcile_lat->add(sim.now() - rc.started);

    InlineAction done = std::move(rc.done);
    reconcile_free.push_back(idx);
    if (done)
        done();
}

namespace {

std::string
opCellName(OpType t)
{
    return std::string("cp.latency_us.") + opTypeName(t);
}

std::string
phaseCellName(OpType t, TaskPhase p)
{
    return std::string("cp.phase_us.") + opTypeName(t) + "." +
           taskPhaseName(p);
}

} // namespace

const LatencyHistogram &
ManagementServer::latencyHistogram(OpType t) const
{
    return stats.latencyOrEmpty(opCellName(t));
}

const LatencyHistogram &
ManagementServer::phaseHistogram(OpType t, TaskPhase p) const
{
    return stats.latencyOrEmpty(phaseCellName(t, p));
}

void
ManagementServer::recordLatency(const Task &t)
{
    OpCells &c = op_cells[static_cast<std::size_t>(t.type())];
    if (!c.op)
        c.op = &stats.latency(opCellName(t.type()));
    c.op->add(t.latency());
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        auto phase = static_cast<TaskPhase>(p);
        if (!t.enteredPhase(phase))
            continue;
        if (!c.phase[p])
            c.phase[p] = &stats.latency(phaseCellName(t.type(), phase));
        c.phase[p]->add(t.phaseTime(phase));
    }
}

Counter &
ManagementServer::errorCounter(TaskError e)
{
    Counter *&c = error_stats[static_cast<std::size_t>(e)];
    if (!c)
        c = &stats.counter(std::string("cp.errors.") + taskErrorName(e));
    return *c;
}

void
ManagementServer::attachTracer(SpanTracer *t)
{
    tracer_ = t;
    sched.setTracer(t);
    locks.setTracer(t);
    db.setTracer(t);
    net.topology().setTracer(t);
    if (!t) {
        api.setTrace(nullptr, 0);
        return;
    }
    std::vector<std::string> op_names, phase_names, error_names;
    op_names.reserve(kNumOpTypes);
    for (std::size_t i = 0; i < kNumOpTypes; ++i)
        op_names.push_back(opTypeName(static_cast<OpType>(i)));
    phase_names.reserve(kNumTaskPhases);
    for (std::size_t i = 0; i < kNumTaskPhases; ++i)
        phase_names.push_back(taskPhaseName(static_cast<TaskPhase>(i)));
    error_names.reserve(kNumTaskErrors);
    for (std::size_t i = 0; i < kNumTaskErrors; ++i)
        error_names.push_back(taskErrorName(static_cast<TaskError>(i)));
    t->setAxes(std::move(op_names), std::move(phase_names),
               std::move(error_names));
    sub_agent_wait_ = t->intern("agent-wait");
    sub_agent_exec_ = t->intern("agent-exec");
    api.setTrace(&t->ring(), t->intern("api.exec"));
}

void
ManagementServer::attachTelemetry(TelemetryRegistry *reg)
{
    sched.setTelemetry(reg);
    locks.setTelemetry(reg);
    db.setTelemetry(reg);
    t_op_lat = t_reconcile_lat = nullptr;
    if (!reg)
        return;
    t_op_lat = reg->histogram("cp.op_us");
    t_reconcile_lat = reg->histogram("agent.reconcile.us");
    reg->addCounterProbe("agent.disconnects",
                         [this] { return agent_disconnects; });
    reg->addCounterProbe("agent.reconcile.runs",
                         [this] { return reconcile_runs; });
    reg->addCounterProbe("agent.reconcile.resumed_ops",
                         [this] { return reconcile_resumed; });
    reg->addCounterProbe("cp.ops_submitted",
                         [this] { return submitted_ops; });
    reg->addCounterProbe("cp.ops_completed",
                         [this] { return completed_ops; });
    reg->addCounterProbe("cp.ops_failed", [this] { return failed_ops; });
    reg->addCounterProbe("cp.bytes_moved", [this] {
        return static_cast<std::uint64_t>(bytes_moved);
    });
}

LevelReading
ManagementServer::agentLevels(
    const LevelIntegral &(ServiceCenter::*level)() const,
    SimTime now) const
{
    LevelReading sum;
    for (const auto &a : agents)
        if (a)
            sum += (a->center().*level)().at(now);
    return sum;
}

std::vector<ResourceUtilization>
collectUtilizations(ManagementServer &srv)
{
    std::vector<ResourceUtilization> out;
    Inventory &inv = srv.inventory();
    double elapsed = static_cast<double>(srv.simulator().now());

    out.push_back(
        {"api-threads", true, srv.apiCenter().utilization()});
    out.push_back(
        {"dispatch-slots", true, srv.scheduler().utilization()});
    out.push_back(
        {"db-connections", true, srv.database().center().utilization()});

    double agent_sum = 0.0;
    double agent_max = 0.0;
    std::size_t host_count = 0;
    for (HostId h : inv.hostIds()) {
        double u = h.slot < srv.agents.size() && srv.agents[h.slot]
            ? srv.agents[h.slot]->center().utilization()
            : 0.0;
        agent_sum += u;
        agent_max = std::max(agent_max, u);
        ++host_count;
    }
    if (host_count > 0) {
        out.push_back({"host-agents(mean)", true,
                       agent_sum / static_cast<double>(host_count)});
        out.push_back({"host-agents(max)", true, agent_max});
    }

    double slot_sum = 0.0;
    double slot_max = 0.0;
    double pipe_sum = 0.0;
    double pipe_max = 0.0;
    std::size_t ds_count = 0;
    for (DatastoreId d : inv.datastoreIds()) {
        double su = d.slot < srv.ds_slots.size() && srv.ds_slots[d.slot]
            ? srv.ds_slots[d.slot]->utilization()
            : 0.0;
        slot_sum += su;
        slot_max = std::max(slot_max, su);
        double pu = elapsed > 0.0
            ? static_cast<double>(
                  inv.datastore(d).copyPipe().busyTime()) / elapsed
            : 0.0;
        pipe_sum += pu;
        pipe_max = std::max(pipe_max, pu);
        ++ds_count;
    }
    if (ds_count > 0) {
        double n = static_cast<double>(ds_count);
        out.push_back({"datastore-slots(mean)", true, slot_sum / n});
        out.push_back({"datastore-slots(max)", true, slot_max});
        out.push_back({"datastore-pipes(mean)", false, pipe_sum / n});
        out.push_back({"datastore-pipes(max)", false, pipe_max});
    }

    // Busiest link of the routed topology; for the degenerate
    // single-link fabric this is exactly the old flat-pipe number.
    double net_u = elapsed > 0.0
        ? static_cast<double>(
              srv.network().topology().maxLinkBusyTime()) /
              elapsed
        : 0.0;
    out.push_back({"network-fabric", false, net_u});
    return out;
}

void
ManagementServer::endPhase(CtxPtr ctx, TaskPhase phase)
{
    // One sample per entered phase in the latency cells, one phase
    // span in the trace: both rely on this.
    if (ctx->task->enteredPhase(phase))
        panic("ManagementServer: phase %s ended twice",
              taskPhaseName(phase));
    ctx->task->addPhaseTime(phase, sim.now() - ctx->phase_start);
    if (!VCP_TRACER_ON(tracer_))
        return;
    tracer_->recordPhase(static_cast<std::uint8_t>(ctx->task->type()),
                         static_cast<std::uint8_t>(phase),
                         ctx->task->id().value, ctx->phase_start,
                         sim.now() - ctx->phase_start);
}

void
ManagementServer::traceAgentSplit(CtxPtr ctx, SimDuration service)
{
    if (!VCP_TRACER_ON(tracer_))
        return;
    SimTime end = sim.now();
    SimDuration wait = (end - ctx->phase_start) - service;
    if (wait < 0)
        wait = 0;
    std::int64_t tid = ctx->task->id().value;
    auto op = static_cast<std::uint8_t>(ctx->task->type());
    if (wait > 0) {
        tracer_->ring().push({ctx->phase_start, wait, tid,
                              sub_agent_wait_, SpanKind::Sub, op, {}});
    }
    tracer_->ring().push({end - service, service, tid, sub_agent_exec_,
                          SpanKind::Sub, op, {}});
}

void
ManagementServer::traceOp(const Task &t)
{
    if (!VCP_TRACER_ON(tracer_))
        return;
    tracer_->recordOp(static_cast<std::uint8_t>(t.type()),
                      static_cast<std::uint8_t>(t.error()),
                      t.id().value, t.submittedAt(), t.latency());
}

TaskId
ManagementServer::submit(const OpRequest &req, TaskCallback on_done)
{
    TaskId id =
        tasks.emplace(next_task_id++, [&](void *mem, TaskId tid) {
            new (mem) Task(tid, req);
        });
    Task &t = tasks.get(id);
    t.markSubmitted(sim.now());
    ++submitted_ops;
    if (!submitted_stat)
        submitted_stat = &stats.counter("cp.ops.submitted");
    submitted_stat->inc();

    OpCtx *ctx = allocCtx();
    ctx->task = &t;
    ctx->cb = std::move(on_done);

    // Per-tenant admission control happens before any server
    // resource is consumed.
    if (!limiter.tryAdmit(req.tenant)) {
        // Finish synchronously-on-next-event so callers observe a
        // consistent asynchronous contract.
        sim.schedule(0, [this, ctx]() {
            ctx->task->markStarted(sim.now());
            finish(ctx, TaskError::RateLimited);
        });
        return id;
    }

    ctx->phase_start = sim.now();
    api.submit(costs.sampleApi(req.type), [this, ctx]() {
        endPhase(ctx, TaskPhase::Api);
        sched.enqueue(ctx->task, [this, ctx]() {
            ctx->task->markStarted(sim.now());
            if (ctx->task->cancelRequested()) {
                finish(ctx, TaskError::Cancelled);
                return;
            }
            runTask(ctx);
        });
    });
    return id;
}

void
ManagementServer::releaseSlots(CtxPtr ctx)
{
    // Agent first, then the datastore slot: the reverse of
    // acquisition.
    if (ctx->held_agent) {
        ctx->held_agent->release();
        ctx->held_agent = nullptr;
    }
    if (ctx->held_ds_slot) {
        ctx->held_ds_slot->release();
        ctx->held_ds_slot = nullptr;
    }
}

void
ManagementServer::finish(CtxPtr ctx, TaskError err)
{
    releaseSlots(ctx);

    if (err != TaskError::None) {
        // Roll back provisional state.
        if (ctx->committed_host.valid() && inv.hasHost(ctx->committed_host)) {
            inv.host(ctx->committed_host)
                .release(ctx->committed_vcpus, ctx->committed_memory);
        }
        if (ctx->reserved_ds.valid() && ctx->reserved_bytes > 0)
            inv.datastore(ctx->reserved_ds).release(ctx->reserved_bytes);
        for (VmId v : ctx->created_vms) {
            if (!inv.hasVm(v))
                continue;
            Vm &vm = inv.vm(v);
            if (vm.host.valid()) {
                if (inv.hasHost(vm.host))
                    inv.host(vm.host).unregisterVm(v);
                vm.host = HostId();
            }
            vm.forcePowerState(PowerState::PoweredOff);
            if (!inv.destroyVm(v))
                panic("ManagementServer: rollback destroy failed");
        }
        if (ctx->created_disk.valid() && inv.hasDisk(ctx->created_disk) &&
            !inv.destroyDisk(ctx->created_disk)) {
            panic("ManagementServer: rollback disk destroy failed");
        }
    }

    if (!ctx->held_locks.empty())
        locks.releaseAll(ctx->held_locks);

    Task &t = *ctx->task;
    t.markFinished(sim.now(), err);

    if (err == TaskError::None) {
        ++completed_ops;
        if (!completed_stat)
            completed_stat = &stats.counter("cp.ops.completed");
        completed_stat->inc();
    } else {
        ++failed_ops;
        if (!failed_stat)
            failed_stat = &stats.counter("cp.ops.failed");
        failed_stat->inc();
        errorCounter(err).inc();
    }
    recordLatency(t);
    if (VCP_TELEM_ON(t_op_lat))
        t_op_lat->add(t.latency());

    // Dispatch charged the Queue phase; a rate-limited reject never
    // reached the scheduler and holds no slot.  The hand-off may
    // dispatch a cancelled task, which finishes synchronously, so it
    // stays ahead of this task's trace record and callback.
    if (t.enteredPhase(TaskPhase::Queue))
        sched.onTaskDone();
    traceOp(t);
    if (task_observer)
        task_observer(t);
    // The context goes back to the pool before the callback runs: the
    // callback routinely submits the tenant's next operation, which
    // may reuse this very slot.  The task record outlives it until
    // the callback returns; the latency cells are its only record
    // after that.
    TaskCallback cb = std::move(ctx->cb);
    TaskId tid = t.id();
    releaseCtx(ctx);
    if (cb)
        cb(t);
    tasks.destroy(tid);
}

/*
 * The interpreter.  Every op runs through the same stations —
 * dispatch, locks granted, DB done, host phase done, finalize done —
 * and only they schedule events, sample costs or finish the task.
 * Between them they run the op's recipe steps, which are synchronous.
 */

bool
ManagementServer::runStep(CtxPtr ctx, OpStep step)
{
    TaskError err = step ? step(*ctx) : TaskError::None;
    if (err == TaskError::None)
        return true;
    finish(ctx, err);
    return false;
}

void
ManagementServer::runTask(CtxPtr ctx)
{
    if (!runStep(ctx, recipeFor(ctx->type()).check))
        return;
    ctx->phase_start = sim.now();
    locks.acquireAll(ctx->locks, [this, ctx]() { locksGranted(ctx); });
}

void
ManagementServer::locksGranted(CtxPtr ctx)
{
    ctx->held_locks = std::move(ctx->locks);
    endPhase(ctx, TaskPhase::Locks);
    if (!runStep(ctx, recipeFor(ctx->type()).relock))
        return;
    ctx->phase_start = sim.now();
    db.runTxns(costs.dbTxns(ctx->type()),
               [this, ctx]() { dbDone(ctx); });
}

void
ManagementServer::dbDone(CtxPtr ctx)
{
    endPhase(ctx, TaskPhase::Db);
    if (!runStep(ctx, recipeFor(ctx->type()).prepare))
        return;
    // The host phase follows from what the recipe pinned: no host
    // goes straight on to apply, a datastore slot selects the data
    // phase, a host alone the agent phase.
    if (!ctx->host.valid()) {
        hostDone(ctx);
        return;
    }
    ctx->phase_start = sim.now();
    if (ctx->slot_ds.valid()) {
        datastoreSlots(ctx->slot_ds)
            .acquire([this, ctx]() { dataSlotGranted(ctx); });
        return;
    }
    ctx->agent_service = costs.sampleHost(ctx->type());
    hostAgent(ctx->host).execute(ctx->agent_service, [this, ctx]() {
        endPhase(ctx, TaskPhase::HostAgent);
        traceAgentSplit(ctx, ctx->agent_service);
        hostDone(ctx);
    });
}

void
ManagementServer::hostDone(CtxPtr ctx)
{
    if (!runStep(ctx, recipeFor(ctx->type()).apply))
        return;
    ctx->phase_start = sim.now();
    db.runTxns(costs.finalizeTxns(ctx->type()), [this, ctx]() {
        endPhase(ctx, TaskPhase::Finalize);
        finish(ctx, TaskError::None);
    });
}

void
ManagementServer::dataSlotGranted(CtxPtr ctx)
{
    ctx->held_ds_slot = &datastoreSlots(ctx->slot_ds);
    hostAgent(ctx->host)
        .acquireSlot([this, ctx]() { dataAgentGranted(ctx); });
}

void
ManagementServer::dataAgentGranted(CtxPtr ctx)
{
    ctx->held_agent = &hostAgent(ctx->host);
    ctx->agent_service = costs.sampleHost(ctx->type());
    sim.schedule(ctx->agent_service,
                 [this, ctx]() { dataSetupDone(ctx); });
}

void
ManagementServer::dataSetupDone(CtxPtr ctx)
{
    // The agent went dark while the setup ran: park until the
    // reconnect reconciliation re-enters here.  The agent slot and
    // datastore slot stay held — the host-side work really is
    // occupying them — and the parked window lands in this op's
    // HostAgent phase time.
    if (hostAgent(ctx->host)
            .parkIfDisconnected([this, ctx] { dataSetupDone(ctx); })) {
        return;
    }
    endPhase(ctx, TaskPhase::HostAgent);
    traceAgentSplit(ctx, ctx->agent_service);
    if (ctx->bytes <= 0) {
        releaseSlots(ctx);
        hostDone(ctx);
        return;
    }
    ctx->phase_start = sim.now();
    // Host-pinned endpoints always cross the fabric.
    bool host_to_host = ctx->net_src.valid();
    if (!host_to_host && ctx->src_ds == ctx->dst_ds) {
        inv.datastore(ctx->dst_ds)
            .copyPipe()
            .startTransfer(ctx->bytes,
                           [this, ctx]() { dataCopyDone(ctx); });
        return;
    }
    // The degenerate single-link topology ignores the endpoints.
    Fabric &fab = net.topology();
    FabricNodeId src = kInvalidFabricNode;
    FabricNodeId dst = kInvalidFabricNode;
    if (!fab.degenerate()) {
        src = host_to_host ? fab.hostNode(ctx->net_src)
                           : fab.datastoreNode(ctx->src_ds);
        dst = host_to_host ? fab.hostNode(ctx->net_dst)
                           : fab.datastoreNode(ctx->dst_ds);
    }
    fab.startTransfer(
        src, dst, ctx->bytes,
        [this, ctx]() { dataCopyDone(ctx); },
        [this, ctx]() { dataCopyFailed(ctx); },
        ctx->task->id().value,
        static_cast<std::uint8_t>(ctx->task->type()));
}

void
ManagementServer::dataCopyDone(CtxPtr ctx)
{
    // Same parking rule as dataSetupDone: a copy that finished
    // against a dark agent cannot report back until reconciliation.
    if (hostAgent(ctx->host)
            .parkIfDisconnected([this, ctx] { dataCopyDone(ctx); })) {
        return;
    }
    endPhase(ctx, TaskPhase::DataCopy);
    bytes_moved += ctx->bytes;
    if (!bytes_moved_stat)
        bytes_moved_stat = &stats.counter("cp.bytes_moved");
    bytes_moved_stat->inc(static_cast<std::uint64_t>(ctx->bytes));
    releaseSlots(ctx);
    hostDone(ctx);
}

void
ManagementServer::dataCopyFailed(CtxPtr ctx)
{
    endPhase(ctx, TaskPhase::DataCopy);
    // finish() releases the held agent and datastore slot and rolls
    // back the op's provisional records.
    finish(ctx, TaskError::NetworkUnreachable);
}

/*
 * The recipes.  Steps validate against and change the inventory only;
 * each reads it at the same point of the pipeline the op's semantics
 * need (e.g. Migrate picks its slot datastore after the DB phase,
 * RemoveSnapshot sizes its copy once its locks are held).
 */

namespace {

constexpr TaskError kOk = TaskError::None;

/** True if host @p h can take new work. */
bool
hostUsable(const Host &h)
{
    return h.connected() && !h.inMaintenance();
}

/*
 * Power verbs: exclusive VM lock + shared host lock; PowerOn commits
 * host resources before the host agent runs (admission control).
 */
TaskError
powerCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!c.inv.hasVm(req.vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(req.vm);
    if (!vm.host.valid() || vm.is_template)
        return TaskError::InvalidState;
    const Host &host = c.inv.host(vm.host);
    if (!host.connected() ||
        (req.type == OpType::PowerOn && host.inMaintenance())) {
        return TaskError::HostUnavailable;
    }
    c.vm = req.vm;
    c.host = vm.host;
    c.locks = {{lockKey(c.vm), LockMode::Exclusive},
               {lockKey(c.host), LockMode::Shared}};
    return kOk;
}

TaskError
powerRelock(OpCtx &c)
{
    // Re-validate: the VM may have been destroyed, moved to another
    // host (a migrate beat us to the lock), or changed power state
    // while we waited.  Acting on a stale host id would release the
    // commitment on the wrong host.
    if (!c.inv.hasVm(c.vm))
        return TaskError::NoSuchEntity;
    Vm &vm = c.inv.vm(c.vm);
    if (vm.host != c.host)
        return TaskError::InvalidState;
    OpType t = c.type();
    if (t == OpType::Reset) // stays on
        return vm.powerState() == PowerState::PoweredOn
                   ? kOk
                   : TaskError::InvalidState;
    PowerState target = (t == OpType::PowerOn) ? PowerState::PoweringOn
        : (t == OpType::PowerOff)              ? PowerState::PoweringOff
                                               : PowerState::Suspended;
    if (!vm.canTransitionTo(target))
        return TaskError::InvalidState;
    if (t == OpType::PowerOn) {
        if (!c.commitOn(c.host, vm))
            return TaskError::PlacementFailed;
        vm.transitionTo(PowerState::PoweringOn);
    } else if (t == OpType::PowerOff) {
        vm.transitionTo(PowerState::PoweringOff);
    }
    return kOk;
}

TaskError
powerApply(OpCtx &c)
{
    Vm &vm = c.inv.vm(c.vm);
    switch (c.type()) {
      case OpType::PowerOn:
        // A host crash may have forced the VM off mid-flight and
        // released the commitment already, so the clear must happen
        // on both branches; the failed transition then turns into a
        // task failure instead of a phantom "restarted" success for a
        // VM that is off.
        c.committed_host = HostId();
        if (!vm.transitionTo(PowerState::PoweredOn))
            return TaskError::InvalidState;
        break;
      case OpType::PowerOff:
      case OpType::Suspend:
        // A host crash may have forced the VM off (and released its
        // commitment) already; the failed transition tells us not to
        // double-release.
        if (vm.transitionTo(c.type() == OpType::PowerOff
                                ? PowerState::PoweredOff
                                : PowerState::Suspended)) {
            c.inv.host(c.host).release(vm.vcpus, vm.memory);
        }
        break;
      default:
        break; // Reset: no state change
    }
    return kOk;
}

/** Create a provisional VM record (destroyed if the task fails). */
VmId
provisionalVm(OpCtx &c, int vcpus, Bytes memory)
{
    const OpRequest &req = c.req();
    VmConfig vc;
    vc.name = req.name;
    vc.vcpus = vcpus;
    vc.memory = memory;
    vc.tenant = req.tenant;
    VmId v = c.inv.createVm(vc);
    c.created_vms.push_back(v);
    return v;
}

/** Give provisional VM @p v its disk and register it on c.host. */
TaskError
placeVm(OpCtx &c, VmId v, DiskConfig dc)
{
    dc.owner = v;
    DiskId disk = c.inv.createDisk(dc);
    if (!disk.valid())
        return TaskError::OutOfSpace;
    Vm &vm = c.inv.vm(v);
    vm.disks.push_back(disk);
    vm.host = c.host;
    c.inv.host(c.host).registerVm(v);
    c.task->setResultVm(v);
    return kOk;
}

/*
 * CreateVm: from-scratch creation with a flat disk; shared host and
 * datastore locks; the record is provisional until the task succeeds.
 */
TaskError
createCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!c.inv.hasHost(req.host))
        return TaskError::NoSuchEntity;
    const Host &host = c.inv.host(req.host);
    if (!hostUsable(host))
        return TaskError::HostUnavailable;
    if (!host.hasDatastore(req.datastore))
        return TaskError::BadRequest;
    c.host = req.host;
    c.locks = {{lockKey(req.host), LockMode::Shared},
               {lockKey(req.datastore), LockMode::Shared}};
    return kOk;
}

TaskError
createPrepare(OpCtx &c)
{
    const OpRequest &req = c.req();
    VmId v = provisionalVm(c, req.vcpus, req.memory);
    DiskConfig dc;
    dc.kind = DiskKind::Flat;
    dc.datastore = req.datastore;
    dc.capacity = req.disk_size;
    return placeVm(c, v, dc);
}

/*
 * CloneFull / CloneLinked: the paper's pivotal pair.  Both create a
 * provisional VM record and register it; a full clone then pushes the
 * source disks' allocated bytes through the storage (or network)
 * pipe, while a linked clone creates only a delta disk backed by a
 * prepared base disk — no bulk data at all.
 */
TaskError
cloneCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!c.inv.hasVm(req.vm) || !c.inv.hasHost(req.host))
        return TaskError::NoSuchEntity;
    const Host &host = c.inv.host(req.host);
    if (!hostUsable(host))
        return TaskError::HostUnavailable;
    if (!host.hasDatastore(req.datastore))
        return TaskError::BadRequest;
    bool linked = req.type == OpType::CloneLinked;
    if (linked) {
        if (!req.base_disk.valid() || !c.inv.hasDisk(req.base_disk))
            return TaskError::BadRequest;
        const VirtualDisk &base = c.inv.disk(req.base_disk);
        if (base.kind != DiskKind::Flat ||
            base.datastore != req.datastore) {
            return TaskError::BadRequest;
        }
    }
    c.host = req.host;
    c.locks = {{lockKey(req.vm), LockMode::Shared},
               {lockKey(req.host), LockMode::Shared},
               {lockKey(req.datastore), LockMode::Shared}};
    if (linked)
        c.locks.push_back({lockKey(req.base_disk), LockMode::Shared});
    return kOk;
}

TaskError
cloneRelock(OpCtx &c)
{
    // The source (and base) may have been destroyed while we waited;
    // once the shared locks are held they are safe.
    const OpRequest &req = c.req();
    if (!c.inv.hasVm(req.vm) ||
        (req.type == OpType::CloneLinked &&
         !c.inv.hasDisk(req.base_disk))) {
        return TaskError::NoSuchEntity;
    }
    return kOk;
}

TaskError
clonePrepare(OpCtx &c)
{
    const OpRequest &req = c.req();
    const Vm &src = c.inv.vm(req.vm);
    // Shape is inherited from the source.
    VmId v = provisionalVm(c, src.vcpus, src.memory);
    c.slot_ds = c.src_ds = c.dst_ds = req.datastore;
    DiskConfig dc;
    dc.datastore = req.datastore;
    if (req.type == OpType::CloneFull) {
        dc.kind = DiskKind::Flat;
        for (DiskId d : src.disks) {
            const VirtualDisk &sd = c.inv.disk(d);
            dc.capacity += sd.capacity;
            c.bytes += sd.allocated;
            c.src_ds = sd.datastore;
        }
        if (src.disks.empty())
            dc.capacity = c.bytes = req.disk_size;
    } else {
        const VirtualDisk &base = c.inv.disk(req.base_disk);
        dc.kind = DiskKind::LinkedCloneDelta;
        dc.capacity = base.capacity;
        dc.initial_allocation =
            c.costs.linkedDeltaAllocation(base.capacity);
        dc.parent = req.base_disk;
    }
    return placeVm(c, v, dc);
}

/*
 * Destroy: exclusive VM lock; the VM must be powered off and its
 * disks must not back any linked clones.
 */
TaskError
destroyCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!c.inv.hasVm(req.vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(req.vm);
    c.vm = req.vm;
    c.host = vm.host;
    c.disks = vm.disks;
    // Lock the VM's disks exclusively too: replication and
    // consolidation hold shared disk locks, and deleting a disk out
    // from under them would corrupt their copies.
    c.locks = {{lockKey(c.vm), LockMode::Exclusive}};
    if (c.host.valid())
        c.locks.push_back({lockKey(c.host), LockMode::Shared});
    for (DiskId d : c.disks)
        c.locks.push_back({lockKey(d), LockMode::Exclusive});
    return kOk;
}

TaskError
destroyRelock(OpCtx &c)
{
    // The VM (or its disk list) may have changed while waiting; the
    // lock set would no longer match, so bail out.
    if (!c.inv.hasVm(c.vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(c.vm);
    if (vm.disks != c.disks || vm.host != c.host ||
        vm.powerState() != PowerState::PoweredOff) {
        return TaskError::InvalidState;
    }
    // References from the VM's own snapshot chain are fine (the
    // destroy tears the chain down); only external linked-clone
    // children block it.
    for (DiskId d : vm.disks) {
        int refs_within_vm = 0;
        for (DiskId other : vm.disks) {
            if (c.inv.disk(other).parent == d)
                ++refs_within_vm;
        }
        if (c.inv.disk(d).ref_count > refs_within_vm)
            return TaskError::InvalidState;
    }
    return kOk;
}

TaskError
destroyApply(OpCtx &c)
{
    if (c.host.valid()) {
        c.inv.host(c.host).unregisterVm(c.vm);
        c.inv.vm(c.vm).host = HostId();
    }
    return c.inv.destroyVm(c.vm) ? kOk : TaskError::InvalidState;
}

/*
 * RegisterVm / UnregisterVm: light record operations.
 */
TaskError
registerCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!c.inv.hasVm(req.vm))
        return TaskError::NoSuchEntity;
    if (req.type == OpType::RegisterVm) {
        if (!c.inv.hasHost(req.host))
            return TaskError::NoSuchEntity;
        if (!hostUsable(c.inv.host(req.host)))
            return TaskError::HostUnavailable;
        c.host = req.host;
    } else {
        c.host = c.inv.vm(req.vm).host;
        // Nothing to unregister (a template, or already unregistered).
        if (!c.host.valid())
            return TaskError::InvalidState;
    }
    c.vm = req.vm;
    c.locks = {{lockKey(c.vm), LockMode::Exclusive},
               {lockKey(c.host), LockMode::Shared}};
    return kOk;
}

TaskError
registerRelock(OpCtx &c)
{
    if (!c.inv.hasVm(c.vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(c.vm);
    bool ok = (c.type() == OpType::RegisterVm)
                  ? !vm.host.valid()
                  : vm.host == c.host &&
                        vm.powerState() == PowerState::PoweredOff;
    return ok ? kOk : TaskError::InvalidState;
}

TaskError
registerApply(OpCtx &c)
{
    Vm &vm = c.inv.vm(c.vm);
    if (c.type() == OpType::RegisterVm) {
        vm.host = c.host;
        c.inv.host(c.host).registerVm(c.vm);
    } else {
        c.inv.host(vm.host).unregisterVm(c.vm);
        vm.host = HostId();
    }
    return kOk;
}

/** Pin a VM and its current host, locking both (Reconfigure,
 *  Snapshot, RemoveSnapshot). */
void
pinVmOnHost(OpCtx &c)
{
    c.vm = c.req().vm;
    c.host = c.inv.vm(c.vm).host;
    c.locks = {{lockKey(c.vm), LockMode::Exclusive}};
    if (c.host.valid())
        c.locks.push_back({lockKey(c.host), LockMode::Shared});
}

/*
 * Reconfigure: change a VM's shape.  A powered-on VM re-passes host
 * admission with its new shape.
 */
TaskError
reconfigureCheck(OpCtx &c)
{
    if (!c.inv.hasVm(c.req().vm))
        return TaskError::NoSuchEntity;
    pinVmOnHost(c);
    return kOk;
}

TaskError
reconfigureRelock(OpCtx &c)
{
    if (!c.inv.hasVm(c.vm))
        return TaskError::NoSuchEntity;
    // Moved (or [un]registered) while we waited; the locked host no
    // longer matches.
    if (c.inv.vm(c.vm).host != c.host)
        return TaskError::InvalidState;
    return kOk;
}

TaskError
reconfigureApply(OpCtx &c)
{
    const OpRequest &req = c.req();
    Vm &vm = c.inv.vm(c.vm);
    if (vm.powerState() == PowerState::PoweredOn) {
        Host &host = c.inv.host(c.host);
        host.release(vm.vcpus, vm.memory);
        if (!host.commit(req.vcpus, req.memory)) {
            // Restore the old commitment (always fits).
            if (!host.commit(vm.vcpus, vm.memory))
                panic("Reconfigure: restore failed");
            return TaskError::PlacementFailed;
        }
    }
    vm.vcpus = req.vcpus;
    vm.memory = req.memory;
    return kOk;
}

/*
 * Snapshot: appends a copy-on-write delta to the VM's disk chain.
 */
TaskError
snapshotCheck(OpCtx &c)
{
    if (!c.inv.hasVm(c.req().vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(c.req().vm);
    if (!vm.host.valid() || vm.disks.empty())
        return TaskError::InvalidState;
    pinVmOnHost(c);
    return kOk;
}

TaskError
snapshotRelock(OpCtx &c)
{
    if (!c.inv.hasVm(c.vm) || c.inv.vm(c.vm).disks.empty())
        return TaskError::NoSuchEntity;
    if (c.inv.vm(c.vm).host != c.host)
        return TaskError::InvalidState;
    return kOk;
}

TaskError
snapshotApply(OpCtx &c)
{
    Vm &vm = c.inv.vm(c.vm);
    DiskId tip = vm.disks.back();
    const VirtualDisk &tip_disk = c.inv.disk(tip);
    DiskConfig dc;
    dc.kind = DiskKind::SnapshotDelta;
    dc.datastore = tip_disk.datastore;
    dc.capacity = tip_disk.capacity;
    dc.initial_allocation = c.costs.linkedDeltaAllocation(tip_disk.capacity);
    dc.parent = tip;
    dc.owner = c.vm;
    DiskId delta = c.inv.createDisk(dc);
    if (!delta.valid())
        return TaskError::OutOfSpace;
    vm.disks.push_back(delta);
    return kOk;
}

/*
 * RemoveSnapshot: consolidates the newest snapshot delta back into
 * its parent (a data-moving operation on the datastore pipe).
 */
TaskError
removeSnapshotCheck(OpCtx &c)
{
    if (!c.inv.hasVm(c.req().vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(c.req().vm);
    if (!vm.host.valid() || vm.disks.empty())
        return TaskError::InvalidState;
    pinVmOnHost(c);
    // Lock the delta being consolidated too, so concurrent disk
    // operations (consolidate) cannot race its destruction.
    c.disk = vm.disks.back();
    c.locks.push_back({lockKey(c.disk), LockMode::Exclusive});
    return kOk;
}

TaskError
removeSnapshotRelock(OpCtx &c)
{
    // The chain may have changed while waiting; the locked tip must
    // still be the newest disk.
    if (!c.inv.hasVm(c.vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(c.vm);
    if (vm.host != c.host || vm.disks.empty() ||
        vm.disks.back() != c.disk ||
        c.inv.disk(c.disk).kind != DiskKind::SnapshotDelta ||
        c.inv.disk(c.disk).ref_count > 0) {
        return TaskError::InvalidState;
    }
    const VirtualDisk &delta = c.inv.disk(c.disk);
    c.slot_ds = c.src_ds = c.dst_ds = delta.datastore;
    c.bytes = delta.allocated;
    return kOk;
}

TaskError
removeSnapshotApply(OpCtx &c)
{
    c.inv.vm(c.vm).disks.pop_back();
    if (!c.inv.destroyDisk(c.disk))
        panic("RemoveSnapshot: destroy failed");
    return kOk;
}

/*
 * Relocate: cold-migrate a powered-off VM's storage to another
 * datastore.  Linked-clone VMs must be consolidated first (their
 * delta depends on a base disk that stays behind).
 */
TaskError
relocateCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!c.inv.hasVm(req.vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(req.vm);
    if (!vm.host.valid() || vm.powerState() != PowerState::PoweredOff)
        return TaskError::InvalidState;
    for (DiskId d : vm.disks) {
        if (c.inv.disk(d).isDelta() || c.inv.disk(d).ref_count > 0)
            return TaskError::InvalidState;
    }
    if (vm.disks.empty())
        return TaskError::InvalidState;
    DatastoreId src = c.inv.disk(vm.disks.front()).datastore;
    if (src == req.datastore ||
        !c.inv.host(vm.host).hasDatastore(req.datastore)) {
        return TaskError::BadRequest;
    }
    c.vm = req.vm;
    c.host = vm.host;
    c.src_ds = src;
    c.slot_ds = c.dst_ds = req.datastore;
    c.locks = {{lockKey(c.vm), LockMode::Exclusive},
               {lockKey(src), LockMode::Shared},
               {lockKey(c.dst_ds), LockMode::Shared}};
    return kOk;
}

TaskError
relocateRelock(OpCtx &c)
{
    if (!c.inv.hasVm(c.vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(c.vm);
    if (vm.host != c.host ||
        vm.powerState() != PowerState::PoweredOff ||
        vm.disks.empty() ||
        c.inv.disk(vm.disks.front()).datastore != c.src_ds) {
        return TaskError::InvalidState;
    }
    for (DiskId d : vm.disks)
        c.bytes += c.inv.disk(d).allocated;
    return c.reserveOn(c.dst_ds, c.bytes) ? kOk : TaskError::OutOfSpace;
}

TaskError
relocateApply(OpCtx &c)
{
    for (DiskId did : c.inv.vm(c.vm).disks) {
        VirtualDisk &d = c.inv.disk(did);
        c.inv.datastore(d.datastore).release(d.allocated);
        d.datastore = c.dst_ds;
    }
    // The raw reservation is now owned by the relocated disk records.
    c.reserved_bytes = 0;
    c.reserved_ds = DatastoreId();
    return kOk;
}

/*
 * Migrate: live-migrate a powered-on VM's memory image to another
 * host over the management network (shared storage stays put).  The
 * agent and the copy's endpoints are the hosts: net_src is the source,
 * host = net_dst the destination.
 */
TaskError
migrateCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!c.inv.hasVm(req.vm) || !c.inv.hasHost(req.host))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(req.vm);
    if (!vm.host.valid() || vm.host == req.host ||
        vm.powerState() != PowerState::PoweredOn) {
        return TaskError::InvalidState;
    }
    const Host &dhost = c.inv.host(req.host);
    if (!hostUsable(dhost))
        return TaskError::HostUnavailable;
    for (DiskId d : vm.disks) {
        if (!dhost.hasDatastore(c.inv.disk(d).datastore))
            return TaskError::BadRequest;
    }
    c.vm = req.vm;
    c.net_src = vm.host;
    c.host = c.net_dst = req.host;
    c.locks = {{lockKey(c.vm), LockMode::Exclusive},
               {lockKey(c.net_src), LockMode::Shared},
               {lockKey(c.host), LockMode::Shared}};
    return kOk;
}

TaskError
migrateRelock(OpCtx &c)
{
    if (!c.inv.hasVm(c.vm))
        return TaskError::NoSuchEntity;
    const Vm &vm = c.inv.vm(c.vm);
    if (vm.powerState() != PowerState::PoweredOn ||
        vm.host != c.net_src || vm.disks.empty()) {
        return TaskError::InvalidState;
    }
    if (!c.commitOn(c.host, vm))
        return TaskError::PlacementFailed;
    // Pre-copy overhead: dirty pages are retransmitted.
    c.bytes = static_cast<Bytes>(static_cast<double>(vm.memory) * 1.2);
    return kOk;
}

TaskError
migratePrepare(OpCtx &c)
{
    // Slot accounting on the VM's datastore, at the destination host.
    c.slot_ds = c.inv.disk(c.inv.vm(c.vm).disks.front()).datastore;
    return kOk;
}

TaskError
migrateApply(OpCtx &c)
{
    Vm &vm = c.inv.vm(c.vm);
    // The VM died mid-migration (source host crash); the rollback in
    // finish() returns the destination commitment.
    if (vm.powerState() != PowerState::PoweredOn)
        return TaskError::InvalidState;
    c.inv.host(c.net_src).release(vm.vcpus, vm.memory);
    c.inv.host(c.net_src).unregisterVm(c.vm);
    c.inv.host(c.host).registerVm(c.vm);
    vm.host = c.host;
    // Commitment now owned by the power state.
    c.committed_host = HostId();
    return kOk;
}

/*
 * Host lifecycle verbs.  AddHost connects a (previously disconnected)
 * host record and performs the expensive initial sync; maintenance
 * transitions gate on the host being empty of powered-on VMs —
 * evacuating them is the cloud layer's job.
 */
TaskError
hostCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!c.inv.hasHost(req.host))
        return TaskError::NoSuchEntity;
    c.host = req.host;
    c.locks = {{lockKey(c.host), LockMode::Exclusive}};
    if (req.type == OpType::AddHost || req.type == OpType::RemoveHost) {
        c.locks.push_back(
            {{LockKind::Global, 0}, LockMode::Exclusive});
    }
    return kOk;
}

TaskError
hostRelock(OpCtx &c)
{
    const Host &host = c.inv.host(c.host);
    bool ok;
    switch (c.type()) {
      case OpType::AddHost:
        ok = !host.connected();
        break;
      case OpType::RemoveHost:
        ok = host.connected() && host.numVms() == 0;
        break;
      case OpType::EnterMaintenance:
        ok = hostUsable(host) &&
             std::none_of(host.vms().begin(), host.vms().end(),
                          [&c](VmId v) {
                              return c.inv.vm(v).powerState() ==
                                     PowerState::PoweredOn;
                          });
        break;
      default: // ExitMaintenance
        ok = host.inMaintenance();
        break;
    }
    return ok ? kOk : TaskError::InvalidState;
}

TaskError
hostApply(OpCtx &c)
{
    Host &host = c.inv.host(c.host);
    OpType t = c.type();
    if (t == OpType::AddHost || t == OpType::RemoveHost)
        host.setConnected(t == OpType::AddHost);
    else
        host.setMaintenance(t == OpType::EnterMaintenance);
    return kOk;
}

/*
 * ReplicateBaseDisk: copy a linked-clone base disk to another
 * datastore — the unit step of "cloud reconfiguration" (spreading
 * base disks so linked clones can land on more datastores).
 */
TaskError
replicateCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!req.base_disk.valid() || !c.inv.hasDisk(req.base_disk) ||
        !c.inv.hasHost(req.host)) {
        return TaskError::NoSuchEntity;
    }
    if (c.inv.disk(req.base_disk).kind != DiskKind::Flat)
        return TaskError::BadRequest;
    // Same-datastore replication is legal (additional shadow copies
    // on one datastore); the copy then runs through that datastore's
    // own pipe instead of the network fabric.
    const Host &host = c.inv.host(req.host);
    if (!hostUsable(host))
        return TaskError::HostUnavailable;
    if (!host.hasDatastore(req.datastore))
        return TaskError::BadRequest;
    c.disk = req.base_disk;
    c.host = req.host;
    c.locks = {{lockKey(c.disk), LockMode::Shared},
               {lockKey(req.datastore), LockMode::Shared}};
    return kOk;
}

TaskError
replicateRelock(OpCtx &c)
{
    // The base may have been destroyed while we waited for the shared
    // lock; holding it now protects the copy.
    return c.inv.hasDisk(c.disk) ? kOk : TaskError::NoSuchEntity;
}

TaskError
replicatePrepare(OpCtx &c)
{
    const OpRequest &req = c.req();
    const VirtualDisk &base = c.inv.disk(c.disk);
    DiskConfig dc;
    dc.kind = DiskKind::Flat;
    dc.datastore = req.datastore;
    dc.capacity = base.capacity;
    DiskId copy = c.inv.createDisk(dc);
    if (!copy.valid())
        return TaskError::OutOfSpace;
    c.created_disk = copy;
    c.task->setResultDisk(copy);
    c.slot_ds = c.dst_ds = req.datastore;
    c.src_ds = base.datastore;
    c.bytes = base.allocated;
    return kOk;
}

/*
 * ConsolidateDisk: materialize a delta disk into a standalone flat
 * disk, detaching it from its base (bounds chain depth; frees the
 * base for retirement).
 */
TaskError
consolidateCheck(OpCtx &c)
{
    const OpRequest &req = c.req();
    if (!req.base_disk.valid() || !c.inv.hasDisk(req.base_disk) ||
        !c.inv.hasHost(req.host)) {
        return TaskError::NoSuchEntity;
    }
    const VirtualDisk &d = c.inv.disk(req.base_disk);
    if (!d.isDelta() || d.ref_count > 0)
        return TaskError::BadRequest;
    c.disk = req.base_disk;
    c.parent = d.parent;
    c.host = req.host;
    c.locks = {{lockKey(c.disk), LockMode::Exclusive},
               {lockKey(c.parent), LockMode::Shared}};
    return kOk;
}

TaskError
consolidateRelock(OpCtx &c)
{
    // Either end of the chain may have vanished while we waited (the
    // disks are not ours until the locks are).
    if (!c.inv.hasDisk(c.disk) || !c.inv.hasDisk(c.parent))
        return TaskError::NoSuchEntity;
    const VirtualDisk &d = c.inv.disk(c.disk);
    if (!d.isDelta() || d.parent != c.parent || d.ref_count > 0)
        return TaskError::InvalidState;
    // Space for the base content being copied in.
    Bytes extra = c.inv.disk(c.parent).allocated;
    if (!c.reserveOn(d.datastore, extra))
        return TaskError::OutOfSpace;
    c.slot_ds = c.dst_ds = d.datastore;
    c.bytes = extra;
    return kOk;
}

TaskError
consolidatePrepare(OpCtx &c)
{
    c.src_ds = c.inv.disk(c.parent).datastore;
    return kOk;
}

TaskError
consolidateApply(OpCtx &c)
{
    VirtualDisk &d = c.inv.disk(c.disk);
    VirtualDisk &parent = c.inv.disk(c.parent);
    d.allocated += c.reserved_bytes;
    d.kind = DiskKind::Flat;
    d.parent = DiskId();
    d.chain_depth = 1;
    parent.ref_count -= 1;
    if (parent.ref_count < 0)
        panic("Consolidate: ref underflow");
    // Reservation now owned by the disk record.
    c.reserved_bytes = 0;
    c.reserved_ds = DatastoreId();
    return kOk;
}

constexpr Recipe kPower{powerCheck, powerRelock, nullptr, powerApply};
constexpr Recipe kCreateVm{createCheck, nullptr, createPrepare, nullptr};
constexpr Recipe kClone{cloneCheck, cloneRelock, clonePrepare, nullptr};
constexpr Recipe kDestroy{destroyCheck, destroyRelock, nullptr,
                          destroyApply};
constexpr Recipe kRegister{registerCheck, registerRelock, nullptr,
                           registerApply};
constexpr Recipe kReconfigure{reconfigureCheck, reconfigureRelock,
                              nullptr, reconfigureApply};
constexpr Recipe kSnapshot{snapshotCheck, snapshotRelock, nullptr,
                           snapshotApply};
constexpr Recipe kRemoveSnapshot{removeSnapshotCheck,
                                 removeSnapshotRelock, nullptr,
                                 removeSnapshotApply};
constexpr Recipe kRelocate{relocateCheck, relocateRelock, nullptr,
                           relocateApply};
constexpr Recipe kMigrate{migrateCheck, migrateRelock, migratePrepare,
                          migrateApply};
constexpr Recipe kHostLifecycle{hostCheck, hostRelock, nullptr,
                                hostApply};
constexpr Recipe kReplicate{replicateCheck, replicateRelock,
                            replicatePrepare, nullptr};
constexpr Recipe kConsolidate{consolidateCheck, consolidateRelock,
                              consolidatePrepare, consolidateApply};

/** The recipe of every op type, in OpType order. */
constexpr std::pair<OpType, const Recipe *> kRecipes[] = {
    {OpType::PowerOn, &kPower},
    {OpType::PowerOff, &kPower},
    {OpType::Suspend, &kPower},
    {OpType::Reset, &kPower},
    {OpType::CreateVm, &kCreateVm},
    {OpType::CloneFull, &kClone},
    {OpType::CloneLinked, &kClone},
    {OpType::Destroy, &kDestroy},
    {OpType::RegisterVm, &kRegister},
    {OpType::UnregisterVm, &kRegister},
    {OpType::Reconfigure, &kReconfigure},
    {OpType::Snapshot, &kSnapshot},
    {OpType::RemoveSnapshot, &kRemoveSnapshot},
    {OpType::Relocate, &kRelocate},
    {OpType::Migrate, &kMigrate},
    {OpType::AddHost, &kHostLifecycle},
    {OpType::RemoveHost, &kHostLifecycle},
    {OpType::EnterMaintenance, &kHostLifecycle},
    {OpType::ExitMaintenance, &kHostLifecycle},
    {OpType::ReplicateBaseDisk, &kReplicate},
    {OpType::ConsolidateDisk, &kConsolidate},
};

constexpr bool
recipesInOpTypeOrder()
{
    for (std::size_t i = 0; i < std::size(kRecipes); ++i) {
        if (kRecipes[i].first != static_cast<OpType>(i))
            return false;
    }
    return true;
}

static_assert(std::size(kRecipes) == kNumOpTypes &&
                  recipesInOpTypeOrder(),
              "every op type needs a recipe, listed in OpType order");

const Recipe &
recipeFor(OpType t)
{
    return *kRecipes[static_cast<std::size_t>(t)].second;
}

} // namespace

} // namespace vcp
