/**
 * @file
 * Operation cost model.
 *
 * Decomposes each management operation into the phases the
 * characterization figures break latency into:
 *
 *   api      — front-door session/validation CPU on the server
 *   db       — inventory-database transactions (count x txn cost,
 *              scaled by inventory size per the chosen scaling law)
 *   host     — host-agent (hostd) execution time
 *   data     — bulk bytes moved (0 for linked clones: the paper's
 *              bandwidth-conserving techniques); each op's recipe in
 *              the management server decides what it copies
 *   finalize — completion-side database transactions
 *
 * Service times are lognormal, parameterized by mean and coefficient
 * of variation, which matches the right-skewed latencies production
 * management planes exhibit.
 */

#ifndef VCP_CONTROLPLANE_COST_MODEL_HH
#define VCP_CONTROLPLANE_COST_MODEL_HH

#include <array>
#include <cstddef>

#include "controlplane/op_types.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace vcp {

/** How database transaction cost grows with inventory size. */
enum class DbScaling
{
    Constant,     ///< flat cost regardless of inventory
    Logarithmic,  ///< cost x (1 + c * log10(n / base)) — indexed tables
    Linear,       ///< cost x (1 + c * (n / base - 1)) — table scans
};

const char *dbScalingName(DbScaling s);

/** Static per-operation cost parameters. */
struct OpCost
{
    /** Mean front-door CPU time. */
    SimDuration api_mean = msec(15);
    double api_cv = 0.4;

    /** Inventory-DB transactions before host work. */
    int db_txns = 2;

    /** Mean host-agent execution time. */
    SimDuration host_mean = seconds(1.0);
    double host_cv = 0.3;

    /** Completion-side DB transactions. */
    int finalize_txns = 1;
};

/** Tunable parameters of the whole cost model. */
struct CostModelConfig
{
    /** Mean cost of one DB transaction at the base inventory size. */
    SimDuration db_txn_mean = msec(15);
    double db_txn_cv = 0.5;

    /** Inventory-size scaling law for DB cost. */
    DbScaling db_scaling = DbScaling::Logarithmic;

    /** Scaling coefficient (see DbScaling). */
    double db_scale_coeff = 0.5;

    /** Inventory size at which the scale factor is exactly 1. */
    std::size_t db_scale_base = 1000;

    /**
     * Initial physical allocation of a linked-clone delta disk as a
     * fraction of the base disk's capacity.
     */
    double linked_delta_fraction = 0.01;

    /** Per-op cost table, indexed by OpType. */
    std::array<OpCost, kNumOpTypes> ops;

    /** Build the default table (values documented in DESIGN.md). */
    CostModelConfig();
};

/** Samples phase costs for operations. */
class OpCostModel
{
  public:
    /**
     * @param cfg static parameters.
     * @param rng private random stream (fork from the simulator's).
     */
    OpCostModel(const CostModelConfig &cfg, Rng rng);

    const CostModelConfig &config() const { return cfg; }

    /** Sample the front-door CPU time for an op. */
    SimDuration sampleApi(OpType t);

    /**
     * Sample the cost of one DB transaction given the current
     * inventory size (number of managed VMs + hosts).
     */
    SimDuration sampleDbTxn(std::size_t inventory_size);

    /** Deterministic DB scale factor for an inventory size. */
    double dbScaleFactor(std::size_t inventory_size) const;

    /** Number of pre-host DB transactions for an op. */
    int dbTxns(OpType t) const;

    /** Number of completion-side DB transactions for an op. */
    int finalizeTxns(OpType t) const;

    /** Sample the host-agent execution time for an op. */
    SimDuration sampleHost(OpType t);

    /** Initial delta allocation for a linked clone of @p base_size. */
    Bytes linkedDeltaAllocation(Bytes base_size) const;

  private:
    const OpCost &costFor(OpType t) const;

    CostModelConfig cfg;
    Rng rng;
};

} // namespace vcp

#endif // VCP_CONTROLPLANE_COST_MODEL_HH
