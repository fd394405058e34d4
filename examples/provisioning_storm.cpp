/**
 * @file
 * Provisioning storm: a class requests N lab vApps at 9am sharp
 * (the canonical virtual-desktop / training-lab scenario the paper's
 * domain cares about).  Compares how the storm lands with full
 * clones vs linked clones and prints the timeline.
 *
 * Usage: provisioning_storm [vapps=200]
 */

#include <cstdio>

#include "analysis/bottleneck.hh"
#include "sim/logging.hh"
#include "sim/parse_util.hh"
#include "workload/profiles.hh"

namespace {

void
runStorm(bool linked, int n)
{
    using namespace vcp;
    CloudSetupSpec spec;
    spec.name = linked ? "storm-linked" : "storm-full";
    spec.infra.hosts = 32;
    spec.infra.host.cores = 16;
    spec.infra.host.memory = gib(128);
    spec.infra.datastores = 8;
    spec.infra.ds_capacity = gib(4096);
    spec.infra.ds_copy_bandwidth = 200.0 * 1024 * 1024;
    TenantConfig t;
    t.name = "training-lab";
    t.vm_quota = 0;
    spec.tenants.push_back(t);
    spec.templates = {{"lab-vm", gib(8), 0.5, 1, gib(2), 1, hours(8)}};
    spec.director.use_linked_clones = linked;
    spec.director.pool.aggressive = linked;
    spec.director.pool.replication_factor = 4;
    spec.director.pool.max_clones_per_base = 64;
    spec.workload.duration = seconds(1);
    spec.workload.arrival.rate_per_hour = 1.0;

    CloudSimulation cs(spec, 9);
    TimeSeries done(minutes(1));

    int remaining = n;
    SimTime finished_at = 0;
    for (int i = 0; i < n; ++i) {
        DeployRequest req;
        req.tenant = cs.tenantIds()[0];
        req.tmpl = cs.templateIds()[0];
        cs.cloud().deployVApp(req, [&](const VApp &va) {
            if (va.state == VAppState::Deployed)
                done.add(cs.sim().now());
            if (--remaining == 0)
                finished_at = cs.sim().now();
        });
    }
    cs.sim().runUntil(hours(6));

    Histogram &lat = cs.stats().histogram("cloud.deploy_latency_us");
    std::printf("\n-- %s --\n", spec.name.c_str());
    std::printf("  storm of %d vApps: all ready after %s\n", n,
                formatTime(finished_at).c_str());
    std::printf("  deploy latency: p50=%.1fs p95=%.1fs max=%.1fs\n",
                lat.p50() / 1e6, lat.p95() / 1e6, lat.max() / 1e6);
    std::printf("  data moved: %s; pool replications: %llu\n",
                formatBytes(cs.server().bytesMoved()).c_str(),
                (unsigned long long)
                    cs.cloud().pool().replicationsSucceeded());

    // Ready-per-minute ramp (first 20 minutes).
    std::printf("  ready per minute:");
    for (std::size_t b = 0; b < done.numBuckets() && b < 20; ++b)
        std::printf(" %llu",
                    (unsigned long long)done.bucket(b).count);
    std::printf("\n");

    std::printf(
        "  bottleneck: %s\n",
        vcp::bottleneckOf(vcp::collectUtilizations(cs.server()))
            .name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vcp;
    setLogQuiet(true);
    int n = 200;
    if (argc > 1 && !parseStrictPositiveInt(argv[1], n)) {
        std::fprintf(stderr,
                     "provisioning_storm: vapps expects a positive "
                     "integer, got '%s'\n",
                     argv[1]);
        return 2;
    }
    std::printf("9am lab storm: %d single-VM vApps requested at "
                "once\n",
                n);
    runStorm(/*linked=*/false, n);
    runStorm(/*linked=*/true, n);
    std::printf("\nconclusion: linked clones turn an hours-long "
                "storm into minutes — and shift the limit from "
                "storage bandwidth to the management control "
                "plane.\n");
    return 0;
}
