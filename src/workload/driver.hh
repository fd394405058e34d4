/**
 * @file
 * The workload driver: turns an arrival process and an action mix
 * into a stream of self-service cloud actions against a
 * CloudDirector.  Churn-type actions (power cycles, early undeploys,
 * snapshots) pick their target by drawing a rank from the director's
 * Deployed list, which keeps the order in which vApps reached
 * Deployed.  The driver keeps no live set of its own, so vApps
 * deployed outside it are targets too.  Also supports
 * deterministic replay of a recorded ActionTrace for A/B experiments.
 */

#ifndef VCP_WORKLOAD_DRIVER_HH
#define VCP_WORKLOAD_DRIVER_HH

#include <array>
#include <memory>
#include <vector>

#include "cloud/cloud_director.hh"
#include "workload/actions.hh"
#include "workload/arrival.hh"
#include "workload/trace.hh"

namespace vcp {

/** Parameters of one workload run. */
struct WorkloadConfig
{
    /** Stop issuing new actions after this much simulated time. */
    SimDuration duration = hours(24);

    /** Action arrival process. */
    ArrivalConfig arrival;

    /**
     * Relative weights per CloudAction (indexed by the enum).
     * Defaults model a churn-heavy self-service cloud.
     */
    std::array<double, kNumCloudActions> action_weights = {
        30.0, // Deploy
        10.0, // EarlyUndeploy
        25.0, // PowerCycle
        10.0, // Reconfigure
        8.0,  // Snapshot
        6.0,  // RemoveSnapshot
        3.0,  // AdminMigrate
    };

    /** Zipf skew of tenant activity (0 = uniform). */
    double tenant_zipf_s = 1.0;

    /** Priority stamped on all generated operations. */
    int priority = 0;

    /** Record generator decisions into an ActionTrace. */
    bool record_actions = true;

    /** Record every finished op into an OpTrace (server observer). */
    bool record_ops = false;
};

/** Issues cloud actions against a director per the configuration. */
class WorkloadDriver
{
  public:
    /**
     * @param cloud the director to drive.
     * @param cfg workload parameters.
     * @param rng private random stream.
     */
    WorkloadDriver(CloudDirector &cloud, const WorkloadConfig &cfg,
                   Rng rng);

    WorkloadDriver(const WorkloadDriver &) = delete;
    WorkloadDriver &operator=(const WorkloadDriver &) = delete;

    /**
     * Begin generating: schedules arrivals from now until
     * now + cfg.duration.  Call sim.run()/runUntil() afterwards.
     */
    void start();

    /**
     * Schedule a recorded trace for replay instead of generating.
     * Records are issued at their recorded times (which must be in
     * the future).
     */
    void scheduleReplay(const ActionTrace &trace);

    /** @{ Results. */
    const ActionTrace &actions() const { return action_trace; }
    OpTrace &ops() { return op_trace; }

    /** Actions issued, by action type. */
    const std::array<std::uint64_t, kNumCloudActions> &
    issuedCounts() const
    {
        return issued;
    }

    /** Actions skipped because no eligible target existed. */
    std::uint64_t skipped() const { return skipped_count; }

    /** vApps currently Deployed, including ones deployed outside the
     *  driver. */
    std::size_t livePopulation() const
    {
        return cloud.deployedVApps().size();
    }
    /** @} */

    const WorkloadConfig &config() const { return cfg; }

  private:
    void scheduleNext();
    void fire();
    void issue(CloudAction a, int tenant_idx, int template_idx);

    /** @{ Per-action emitters; return false if no target existed. */
    bool doDeploy(int tenant_idx, int template_idx);
    bool doEarlyUndeploy();
    bool doPowerCycle();
    bool doReconfigure();
    bool doSnapshot();
    bool doRemoveSnapshot();
    bool doAdminMigrate();
    /** @} */

    /** Pick a random Deployed vApp; invalid id if none. */
    VAppId pickLiveVApp();

    /** Pick a random existing VM of a live vApp; invalid if none. */
    VmId pickLiveVm(bool require_powered_on);

    CloudDirector &cloud;
    ManagementServer &srv;
    Inventory &inv;
    Simulator &sim;
    WorkloadConfig cfg;
    Rng rng;

    ArrivalModel arrivals;
    DiscreteSampler action_sampler;
    std::unique_ptr<ZipfSampler> tenant_sampler;

    std::vector<TenantId> tenant_ids;
    std::vector<TemplateId> template_ids;

    SimTime end_time = 0;
    bool started = false;

    ActionTrace action_trace;
    OpTrace op_trace;
    std::array<std::uint64_t, kNumCloudActions> issued{};
    std::uint64_t skipped_count = 0;
};

} // namespace vcp

#endif // VCP_WORKLOAD_DRIVER_HH
