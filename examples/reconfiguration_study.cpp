/**
 * @file
 * Cloud reconfiguration study: demonstrates the paper's operational
 * claim end to end.  A cloud runs a steady self-service workload
 * while the operator (a) watches the base-disk pool manager keep up
 * with provisioning pressure and (b) performs a rolling host
 * maintenance (evacuate + enter maintenance + exit), all through the
 * public API.
 *
 * Usage: reconfiguration_study [hours=8]
 */

#include <cstdio>

#include "cloud/storage_rebalancer.hh"
#include "sim/logging.hh"
#include "sim/parse_util.hh"
#include "workload/profiles.hh"

int
main(int argc, char **argv)
{
    using namespace vcp;
    setLogQuiet(true);
    double sim_hours = 8.0;
    if (argc > 1 &&
        (!parseStrictHours(argv[1], CloudSimulation::kDrain, sim_hours) ||
         sim_hours == 0.0)) {
        std::fprintf(stderr,
                     "reconfiguration_study: hours expects a positive "
                     "number within the simulator's event horizon, "
                     "got '%s'\n",
                     argv[1]);
        return 2;
    }

    CloudSetupSpec spec = cloudASpec();
    spec.infra.hosts = 16;
    spec.infra.datastores = 4;
    spec.workload.duration = hours(sim_hours);
    spec.workload.arrival.rate_per_hour = 90.0;
    // Small fan-out cap: reconfiguration pressure is constant.
    spec.director.pool.max_clones_per_base = 16;
    spec.director.pool.aggressive = true;
    spec.director.pool.replication_factor = 2;
    spec.director.pool.check_period = minutes(3);

    CloudSimulation cs(spec, 77);
    cs.start();

    // Continuous storage rebalancing — the second kind of
    // reconfiguration the provisioning churn forces.
    RebalanceConfig rb_cfg;
    rb_cfg.period = minutes(20);
    rb_cfg.imbalance_threshold = 0.10;
    StorageRebalancer rebalancer(cs.server(), rb_cfg);
    rebalancer.start();

    // Rolling maintenance: at the 2-hour mark, evacuate host 0;
    // bring it back an hour later.
    HostId victim = cs.hostIds()[0];
    bool maintenance_ok = false;
    cs.sim().scheduleAt(hours(2), [&] {
        std::printf("[%s] operator: entering maintenance on host0 "
                    "(%zu VMs to evacuate)\n",
                    formatTime(cs.sim().now()).c_str(),
                    cs.inventory().host(victim).numVms());
        cs.cloud().enterMaintenance(victim, [&](bool ok) {
            maintenance_ok = ok;
            std::printf("[%s] maintenance %s\n",
                        formatTime(cs.sim().now()).c_str(),
                        ok ? "entered" : "FAILED");
        });
    });
    cs.sim().scheduleAt(hours(3), [&] {
        OpRequest req;
        req.type = OpType::ExitMaintenance;
        req.host = victim;
        cs.server().submit(req, [&](const Task &t) {
            std::printf("[%s] host0 back in service (%s)\n",
                        formatTime(cs.sim().now()).c_str(),
                        t.succeeded() ? "ok" : "failed");
        });
    });

    // Hourly pool report while the workload runs.
    for (double h = 1.0; h <= sim_hours; h += 1.0) {
        cs.sim().scheduleAt(hours(h), [&] {
            std::printf("[%s] pool:",
                        formatTime(cs.sim().now()).c_str());
            for (TemplateId t : cs.templateIds()) {
                std::printf(" %s=%zux(%.0f%%)",
                            cs.cloud().catalog().get(t).name.c_str(),
                            cs.cloud().pool().replicas(t).size(),
                            100.0 *
                                cs.cloud().pool().poolUtilization(t));
            }
            std::printf("  live_vapps=%zu migrations=%llu\n",
                        cs.driver().livePopulation(),
                        (unsigned long long)cs.server()
                            .latencyHistogram(OpType::Migrate)
                            .count());
        });
    }

    cs.runFor(hours(sim_hours) + CloudSimulation::kDrain);

    std::printf("\n== outcome ==\n");
    std::printf("maintenance workflow: %s\n",
                maintenance_ok ? "succeeded" : "did not complete");
    std::printf("replications: issued=%llu ok=%llu failed=%llu\n",
                (unsigned long long)
                    cs.cloud().pool().replicationsIssued(),
                (unsigned long long)
                    cs.cloud().pool().replicationsSucceeded(),
                (unsigned long long)
                    cs.cloud().pool().replicationsFailed());
    std::printf("deploys ok=%llu failed=%llu; stalls on pool=%llu\n",
                (unsigned long long)cs.cloud().deploysSucceeded(),
                (unsigned long long)cs.cloud().deploysFailed(),
                (unsigned long long)cs.stats()
                    .counter("cloud.deploy_pool_stalls")
                    .value());
    std::printf("storage rebalancer: scans=%llu moves=%llu "
                "(%s rebalanced), spread now %.2f\n",
                (unsigned long long)rebalancer.scans(),
                (unsigned long long)rebalancer.movesSucceeded(),
                formatBytes(rebalancer.bytesRebalanced()).c_str(),
                rebalancer.utilizationSpread());
    std::printf("ops completed=%llu failed=%llu\n",
                (unsigned long long)cs.server().opsCompleted(),
                (unsigned long long)cs.server().opsFailed());
    return 0;
}
