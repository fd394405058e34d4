#include "controlplane/cost_model.hh"

#include <cmath>

#include "sim/logging.hh"

namespace vcp {

const char *
dbScalingName(DbScaling s)
{
    switch (s) {
      case DbScaling::Constant:
        return "constant";
      case DbScaling::Logarithmic:
        return "logarithmic";
      case DbScaling::Linear:
        return "linear";
    }
    return "unknown";
}

namespace {

/** Shorthand for building the default cost table. */
OpCost
makeCost(SimDuration api_mean, int db_txns, SimDuration host_mean,
         int finalize_txns)
{
    OpCost c;
    c.api_mean = api_mean;
    c.db_txns = db_txns;
    c.host_mean = host_mean;
    c.finalize_txns = finalize_txns;
    return c;
}

} // namespace

CostModelConfig::CostModelConfig()
{
    auto set = [this](OpType t, OpCost c) {
        ops[static_cast<std::size_t>(t)] = c;
    };
    // Values are calibrated to the management-operation latencies
    // reported for vSphere-class control planes (ISCA'10 companion
    // study and public vCenter sizing guidance); see DESIGN.md.
    set(OpType::PowerOn, makeCost(msec(15), 2, seconds(2.0), 1));
    set(OpType::PowerOff, makeCost(msec(12), 2, seconds(1.0), 1));
    set(OpType::Suspend, makeCost(msec(12), 2, seconds(3.0), 1));
    set(OpType::Reset, makeCost(msec(12), 2, seconds(2.0), 1));
    set(OpType::CreateVm, makeCost(msec(25), 5, seconds(1.2), 2));
    set(OpType::CloneFull, makeCost(msec(30), 6, seconds(1.5), 2));
    set(OpType::CloneLinked, makeCost(msec(30), 8, seconds(4.0), 2));
    set(OpType::Destroy, makeCost(msec(15), 3, seconds(0.8), 2));
    set(OpType::RegisterVm, makeCost(msec(15), 2, seconds(0.5), 1));
    set(OpType::UnregisterVm, makeCost(msec(12), 2, seconds(0.4), 1));
    set(OpType::Reconfigure, makeCost(msec(20), 3, seconds(1.0), 1));
    set(OpType::Snapshot, makeCost(msec(20), 3, seconds(1.2), 1));
    set(OpType::RemoveSnapshot, makeCost(msec(20), 3, seconds(2.5), 1));
    set(OpType::Relocate, makeCost(msec(25), 5, seconds(1.2), 2));
    set(OpType::Migrate, makeCost(msec(25), 5, seconds(1.5), 2));
    set(OpType::AddHost, makeCost(msec(50), 20, seconds(15.0), 5));
    set(OpType::RemoveHost, makeCost(msec(30), 10, seconds(5.0), 3));
    set(OpType::EnterMaintenance, makeCost(msec(25), 4, seconds(10.0), 2));
    set(OpType::ExitMaintenance, makeCost(msec(25), 4, seconds(5.0), 2));
    set(OpType::ReplicateBaseDisk, makeCost(msec(25), 4, seconds(1.0), 2));
    set(OpType::ConsolidateDisk, makeCost(msec(25), 4, seconds(2.0), 2));
}

OpCostModel::OpCostModel(const CostModelConfig &cfg_, Rng rng_)
    : cfg(cfg_), rng(rng_)
{
    if (cfg.db_txn_mean <= 0)
        fatal("OpCostModel: db_txn_mean must be positive");
    if (cfg.db_scale_base == 0)
        fatal("OpCostModel: db_scale_base must be positive");
    if (cfg.linked_delta_fraction < 0.0 ||
        cfg.linked_delta_fraction > 1.0) {
        fatal("OpCostModel: linked_delta_fraction must be in [0,1]");
    }
}

const OpCost &
OpCostModel::costFor(OpType t) const
{
    std::size_t i = static_cast<std::size_t>(t);
    if (i >= kNumOpTypes)
        panic("OpCostModel: bad op type %zu", i);
    return cfg.ops[i];
}

SimDuration
OpCostModel::sampleApi(OpType t)
{
    const OpCost &c = costFor(t);
    double us = rng.lognormalMeanCv(
        static_cast<double>(c.api_mean), c.api_cv);
    return static_cast<SimDuration>(us);
}

double
OpCostModel::dbScaleFactor(std::size_t n) const
{
    double ratio = static_cast<double>(n) /
        static_cast<double>(cfg.db_scale_base);
    switch (cfg.db_scaling) {
      case DbScaling::Constant:
        return 1.0;
      case DbScaling::Logarithmic:
        if (ratio <= 1.0)
            return 1.0;
        return 1.0 + cfg.db_scale_coeff * std::log10(ratio);
      case DbScaling::Linear:
        if (ratio <= 1.0)
            return 1.0;
        return 1.0 + cfg.db_scale_coeff * (ratio - 1.0);
    }
    return 1.0;
}

SimDuration
OpCostModel::sampleDbTxn(std::size_t inventory_size)
{
    double mean = static_cast<double>(cfg.db_txn_mean) *
        dbScaleFactor(inventory_size);
    double us = rng.lognormalMeanCv(mean, cfg.db_txn_cv);
    return static_cast<SimDuration>(us);
}

int
OpCostModel::dbTxns(OpType t) const
{
    return costFor(t).db_txns;
}

int
OpCostModel::finalizeTxns(OpType t) const
{
    return costFor(t).finalize_txns;
}

SimDuration
OpCostModel::sampleHost(OpType t)
{
    const OpCost &c = costFor(t);
    double us = rng.lognormalMeanCv(
        static_cast<double>(c.host_mean), c.host_cv);
    return static_cast<SimDuration>(us);
}

Bytes
OpCostModel::linkedDeltaAllocation(Bytes base_size) const
{
    return static_cast<Bytes>(
        static_cast<double>(base_size) * cfg.linked_delta_fraction);
}

} // namespace vcp
