/**
 * @file
 * Inventory-database model.
 *
 * The management server persists every state change through a
 * relational database; in production deployments the DB is one of the
 * first control-plane resources to saturate.  We model it as a small
 * connection pool (c-server FIFO center) with per-transaction service
 * times drawn from the cost model, which scales them with inventory
 * size per the configured scaling law.
 */

#ifndef VCP_CONTROLPLANE_DATABASE_HH
#define VCP_CONTROLPLANE_DATABASE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "controlplane/cost_model.hh"
#include "infra/inventory.hh"
#include "sim/service_center.hh"
#include "sim/simulator.hh"

namespace vcp {

class LatencyHistogram;
class SpanTracer;
class TelemetryRegistry;

/** Sizing of the database model. */
struct DatabaseConfig
{
    /** Parallel connections (servers in the queueing model). */
    int connections = 4;
};

/** The management server's persistence backend. */
class InventoryDatabase
{
  public:
    InventoryDatabase(Simulator &sim, Inventory &inventory,
                      OpCostModel &costs, const DatabaseConfig &cfg);

    InventoryDatabase(const InventoryDatabase &) = delete;
    InventoryDatabase &operator=(const InventoryDatabase &) = delete;

    /**
     * Run @p n transactions for one operation and call @p done.
     * Transactions within an operation are serialized (txn i+1 only
     * starts after txn i commits), matching how a task's writes
     * depend on one another; transactions of *different* operations
     * interleave across the connection pool.
     */
    void runTxns(int n, InlineAction done);

    /** Transactions committed so far. */
    std::uint64_t txnsCommitted() const { return txn_count; }

    /**
     * Stall or unstall the database (a failover window: the primary
     * is gone, connections hang).  While stalled, transactions
     * already in service complete, but the *next* transaction of
     * every chain parks instead of entering the pool — exactly how a
     * connection loss bites between statements.  Unstalling drains
     * the parked chains in stall order.
     */
    void setStalled(bool stalled);

    /** True while a failover window is open. */
    bool stalled() const { return stalled_; }

    /** Chains currently parked behind the stall. */
    std::size_t stalledChains() const { return stalled_chains.size(); }

    /** The underlying queueing station (stats, utilization). */
    ServiceCenter &center() { return pool; }
    const ServiceCenter &center() const { return pool; }

    /** The inventory database is an explicitly serialized domain:
     *  every txn mutates shared inventory state, so its events are
     *  pinned to the control shard — never spread. */
    static constexpr ShardDomain kShardDomain = ShardDomain::Control;

    /** Shard the connection-pool events execute on. */
    ShardId shard() const { return sim.shardId(); }

    /** Current inventory size used for cost scaling. */
    std::size_t inventorySize() const;

    /** Attach a span tracer: each committed transaction then records
     *  a "db.txn" execution span and the in-flight chain count is
     *  sampled on every change.  Pass nullptr to detach. */
    void setTracer(SpanTracer *t);

    /** Attach streaming telemetry: registers the "db.txn" counter
     *  (reads txnsCommitted()), and each committed transaction then
     *  feeds the "db.txn_us" latency histogram (queue wait + service
     *  per transaction).  Pass nullptr to detach the histogram. */
    void setTelemetry(TelemetryRegistry *reg);

  private:
    /** One operation's serialized transaction sequence in flight. */
    struct TxnChain
    {
        int remaining = 0;
        /** Submit time of the in-flight txn (telemetry latency). */
        SimTime txn_start = 0;
        InlineAction done;
    };

    /** Submit the next transaction of chain @p idx to the pool. */
    void step(std::uint32_t idx);

    Simulator &sim;
    Inventory &inventory;
    OpCostModel &costs;
    ServiceCenter pool;
    std::uint64_t txn_count = 0;

    /** In-flight chains, recycled by index (no per-txn allocation). */
    std::vector<TxnChain> chains;
    std::vector<std::uint32_t> free_chains;

    int active_chains = 0;
    bool stalled_ = false;
    /** Chains whose next txn is parked behind a failover window. */
    std::vector<std::uint32_t> stalled_chains;
    SpanTracer *tracer = nullptr;
    std::uint16_t chains_name = 0;
    LatencyHistogram *t_txn_lat = nullptr;
};

} // namespace vcp

#endif // VCP_CONTROLPLANE_DATABASE_HH
