#include "controlplane/database.hh"

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/tracer.hh"

namespace vcp {

InventoryDatabase::InventoryDatabase(Simulator &sim_,
                                     Inventory &inventory_,
                                     OpCostModel &costs_,
                                     const DatabaseConfig &cfg)
    : sim(sim_), inventory(inventory_), costs(costs_),
      pool(sim_, "db", cfg.connections)
{}

std::size_t
InventoryDatabase::inventorySize() const
{
    return inventory.numVms() + inventory.numHosts();
}

void
InventoryDatabase::setTracer(SpanTracer *t)
{
    TraceRing *ring = t ? &t->ring() : nullptr;
    active_chains.bindTrace(ring, t ? t->intern("db.active-chains") : 0);
    pool.setTrace(ring, t ? t->intern("db.txn") : 0);
}

void
InventoryDatabase::setTelemetry(TelemetryRegistry *reg)
{
    t_txn_lat = nullptr;
    if (!reg)
        return;
    reg->addCounterProbe("db.txn", [this] { return txn_count; });
    t_txn_lat = reg->histogram("db.txn_us");
}

void
InventoryDatabase::runTxns(int n, InlineAction done)
{
    if (n < 0)
        panic("InventoryDatabase::runTxns: negative count");
    if (n == 0) {
        done();
        return;
    }
    // Park the completion in a pooled chain record so each hop's
    // submit captures only {this, index} — re-wrapping the caller's
    // action every hop would spill past the inline buffer and
    // allocate per transaction.
    std::uint32_t idx;
    if (!free_chains.empty()) {
        idx = free_chains.back();
        free_chains.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(chains.size());
        chains.emplace_back();
    }
    chains[idx].remaining = n;
    chains[idx].done = std::move(done);
    active_chains.add(sim.now(), 1);
    step(idx);
}

void
InventoryDatabase::setStalled(bool stalled)
{
    if (stalled_ == stalled)
        return;
    stalled_ = stalled;
    if (stalled_)
        return;
    // Failover over: drain parked chains in stall order.  The queue
    // is detached first so a re-stall during the drain parks the
    // remainder onto a fresh queue instead of re-entering this loop.
    std::vector<std::uint32_t> parked;
    parked.swap(stalled_chains);
    for (std::uint32_t idx : parked)
        step(idx);
}

void
InventoryDatabase::step(std::uint32_t idx)
{
    if (stalled_) {
        stalled_chains.push_back(idx);
        return;
    }
    SimDuration service = costs.sampleDbTxn(inventorySize());
    chains[idx].txn_start = sim.now();
    pool.submit(service, [this, idx] {
        ++txn_count;
        if (VCP_TELEM_ON(t_txn_lat))
            t_txn_lat->add(sim.now() - chains[idx].txn_start);
        if (--chains[idx].remaining > 0) {
            step(idx);
            return;
        }
        InlineAction done = std::move(chains[idx].done);
        free_chains.push_back(idx);
        active_chains.add(sim.now(), -1);
        done();
    });
}

} // namespace vcp
