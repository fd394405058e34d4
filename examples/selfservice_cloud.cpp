/**
 * @file
 * Self-service cloud walkthrough: drives the Cloud A profile for a
 * simulated day, then prints the characterization a cloud operator
 * would want — op mix, deploy latency, churn, pool activity, and
 * which resource in the management stack is hottest.
 *
 * Usage: selfservice_cloud [hours=24] [seed=1]
 */

#include <cstdio>

#include "analysis/bottleneck.hh"
#include "analysis/breakdown.hh"
#include "analysis/report.hh"
#include "sim/logging.hh"
#include "sim/parse_util.hh"
#include "workload/profiles.hh"

int
main(int argc, char **argv)
{
    using namespace vcp;
    setLogQuiet(true);
    double sim_hours = 24.0;
    std::uint64_t seed = 1;
    if (argc > 1 &&
        (!parseStrictHours(argv[1], CloudSimulation::kDrain, sim_hours) ||
         sim_hours == 0.0)) {
        std::fprintf(stderr,
                     "selfservice_cloud: hours expects a positive "
                     "number within the simulator's event horizon, "
                     "got '%s'\n",
                     argv[1]);
        return 2;
    }
    if (argc > 2 && !parseStrictU64(argv[2], seed)) {
        std::fprintf(stderr,
                     "selfservice_cloud: seed expects an unsigned "
                     "integer, got '%s'\n",
                     argv[2]);
        return 2;
    }

    CloudSetupSpec spec = cloudASpec();
    spec.workload.duration = hours(sim_hours);

    CloudSimulation cs(spec, seed);
    TimeSeries provisioned(hours(1)), destroyed(hours(1));
    cs.cloud().setChurnSeries(&provisioned, &destroyed);

    std::printf("simulating '%s' for %.0f hours (seed %llu)...\n",
                spec.name.c_str(), sim_hours,
                (unsigned long long)seed);
    cs.run();

    CloudDirector &cloud = cs.cloud();
    ManagementServer &srv = cs.server();

    std::printf("\n== tenancy ==\n");
    for (TenantId t : cs.tenantIds()) {
        const Tenant &ten = cloud.tenant(t);
        if (ten.deploysRequested() == 0)
            continue;
        std::printf("  %-8s deploys=%llu ok=%llu vms_in_use=%d\n",
                    ten.name().c_str(),
                    (unsigned long long)ten.deploysRequested(),
                    (unsigned long long)ten.deploysSucceeded(),
                    ten.vmsInUse());
    }

    std::printf("\n== churn ==\n");
    std::printf("  vApps deployed %llu (failed %llu), undeployed "
                "%llu; lease expirations %llu\n",
                (unsigned long long)cloud.deploysSucceeded(),
                (unsigned long long)cloud.deploysFailed(),
                (unsigned long long)cloud.undeploysCompleted(),
                (unsigned long long)cloud.leases().expirations());
    std::printf("  VMs provisioned %llu, destroyed %llu, live %zu\n",
                (unsigned long long)cloud.vmsProvisioned(),
                (unsigned long long)cloud.vmsDestroyed(),
                cs.inventory().numVms() - cs.templateIds().size());

    std::printf("\n== management-operation mix (finished ops) ==\n");
    for (std::size_t i = 0; i < kNumOpTypes; ++i) {
        OpType op = static_cast<OpType>(i);
        const LatencyHistogram &lat = srv.latencyHistogram(op);
        if (lat.count() == 0)
            continue;
        std::printf("  %-20s %6llu  mean %.2fs\n", opTypeName(op),
                    (unsigned long long)lat.count(), lat.mean() / 1e6);
    }

    std::printf("\n== deploy latency ==\n  %s\n",
                cs.stats()
                    .histogram("cloud.deploy_latency_us")
                    .toString()
                    .c_str());

    std::printf("\n== base-disk pool (cloud reconfiguration) ==\n");
    for (TemplateId t : cs.templateIds()) {
        std::printf("  %-10s replicas=%zu utilization=%.2f\n",
                    cloud.catalog().get(t).name.c_str(),
                    cloud.pool().replicas(t).size(),
                    cloud.pool().poolUtilization(t));
    }
    std::printf("  replications issued=%llu ok=%llu\n",
                (unsigned long long)cloud.pool().replicationsIssued(),
                (unsigned long long)
                    cloud.pool().replicationsSucceeded());

    std::printf("\n== phase breakdown of linked clones ==\n%s",
                breakdownTable(srv, {OpType::CloneLinked,
                                     OpType::PowerOn, OpType::Destroy})
                    .toText()
                    .c_str());

    auto utils = collectUtilizations(srv);
    std::printf("\n== hottest management resources ==\n%s",
                utilizationTable(utils).toText().c_str());
    std::printf("\nbytes moved by the data plane: %s\n",
                formatBytes(srv.bytesMoved()).c_str());
    return 0;
}
