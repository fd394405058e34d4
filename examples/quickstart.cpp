/**
 * @file
 * Quickstart: build a small cloud, deploy a few vApps through the
 * self-service layer, and print what the management control plane
 * did.  ~60 lines of API surface.
 */

#include <cstdio>

#include "analysis/bottleneck.hh"
#include "workload/profiles.hh"

int
main()
{
    using namespace vcp;

    // A small cloud: 8 hosts, 2 datastores, 2 tenants, 1 template.
    CloudSetupSpec spec = cloudASpec();
    spec.name = "quickstart";
    spec.infra.hosts = 8;
    spec.infra.datastores = 2;
    spec.tenants.resize(2);
    spec.templates.resize(1);
    spec.workload.duration = hours(2);
    spec.workload.arrival.rate_per_hour = 40.0;

    CloudSimulation cloud_sim(spec, /*seed=*/42);

    // Deploy one vApp by hand before the generated workload starts.
    // Once Deployed it joins the driver's pool of targets: the
    // workload may power-cycle, snapshot or undeploy it too.
    DeployRequest req;
    req.tenant = cloud_sim.tenantIds()[0];
    req.tmpl = cloud_sim.templateIds()[0];
    cloud_sim.cloud().deployVApp(req, [](const VApp &va) {
        std::printf("hand-deployed vApp %lld -> %s (%zu VMs)\n",
                    static_cast<long long>(va.id.value),
                    vappStateName(va.state), va.vms.size());
    });

    // Run the generated self-service workload.
    cloud_sim.run();

    CloudDirector &cloud = cloud_sim.cloud();
    ManagementServer &srv = cloud_sim.server();
    std::printf("\n=== after %s of simulated time ===\n",
                formatTime(cloud_sim.sim().now()).c_str());
    std::printf("deploys: %llu ok, %llu failed; undeploys: %llu\n",
                (unsigned long long)cloud.deploysSucceeded(),
                (unsigned long long)cloud.deploysFailed(),
                (unsigned long long)cloud.undeploysCompleted());
    std::printf("VMs provisioned: %llu, destroyed: %llu, alive: %zu\n",
                (unsigned long long)cloud.vmsProvisioned(),
                (unsigned long long)cloud.vmsDestroyed(),
                cloud_sim.inventory().numVms());
    std::printf("management ops: %llu completed, %llu failed, "
                "%s moved\n",
                (unsigned long long)srv.opsCompleted(),
                (unsigned long long)srv.opsFailed(),
                formatBytes(srv.bytesMoved()).c_str());
    std::printf("linked-clone latency: %s\n",
                srv.latencyHistogram(OpType::CloneLinked)
                    .toString()
                    .c_str());

    auto utils = collectUtilizations(srv);
    std::printf("\nbusiest resources:\n%s",
                utilizationTable(utils).toText().c_str());
    ResourceUtilization top = bottleneckOf(utils);
    std::printf("bottleneck: %s (%s plane)\n", top.name.c_str(),
                top.control_plane ? "control" : "data");
    return 0;
}
