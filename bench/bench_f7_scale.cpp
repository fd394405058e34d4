/**
 * @file
 * F7 — Inventory-size scaling: operation latency versus the number
 * of managed VMs, under the three database cost-scaling laws.
 *
 * Reconstructed [R] from "these demands may influence virtualized
 * datacenter design": cloud churn inflates the inventory the
 * management database indexes, so per-op DB cost — and with linked
 * clones, total op latency — grows with cloud size.  The scaling-law
 * ablation shows how much design headroom an indexed (log) schema
 * buys over a scan-bound (linear) one.  Probes run sequentially
 * (no queueing) so the DB term is visible; both the DB phase and the
 * end-to-end latency are reported.
 */

#include <optional>

#include "bench_util.hh"

namespace {

struct ScalePoint
{
    double db_phase_ms = 0.0;
    double total_s = 0.0;
};

/** Mean clone latency with the inventory pre-populated. */
ScalePoint
opLatency(vcp::DbScaling scaling, int standing_vms, int shards,
          std::uint64_t seed)
{
    using namespace vcp;
    CloudSetupSpec spec = sweepCloud(true);
    spec.exec.shards = shards; // merge mode: rows are identical
    spec.server.costs.db_scaling = scaling;
    spec.server.costs.db_scale_coeff =
        (scaling == DbScaling::Linear) ? 0.2 : 1.0;
    spec.server.costs.db_scale_base = 1000;
    spec.workload.duration = seconds(1);
    spec.workload.arrival.rate_per_hour = 1.0;
    CloudSimulation cs(spec, seed);
    Inventory &inv = cs.inventory();

    // Pre-populate the standing inventory (records only; no ops).
    HostId h = cs.hostIds()[0];
    for (int i = 0; i < standing_vms; ++i) {
        VmConfig vc;
        vc.name = "standing" + std::to_string(i);
        vc.memory = mib(64);
        VmId vm = inv.createVm(vc);
        inv.vm(vm).host = h;
        inv.host(h).registerVm(vm);
    }

    // Sequential linked-clone probes: issue the next only after the
    // previous finishes, so no queueing pollutes the measurement.
    const int probes = 30;
    int remaining = probes;
    std::function<void()> next = [&]() {
        if (remaining-- == 0)
            return;
        DeployRequest req;
        req.tenant = cs.tenantIds()[0];
        req.tmpl = cs.templateIds()[0];
        cs.cloud().deployVApp(req, [&](const VApp &) { next(); });
    };
    next();
    cs.sim().runUntil(hours(4));

    ScalePoint p;
    const ManagementServer &srv = cs.server();
    p.db_phase_ms =
        (srv.phaseHistogram(OpType::CloneLinked, TaskPhase::Db).mean() +
         srv.phaseHistogram(OpType::CloneLinked, TaskPhase::Finalize)
             .mean()) /
        1000.0;
    p.total_s =
        cs.server().latencyHistogram(OpType::CloneLinked).mean() /
        1e6;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vcp;
    setLogQuiet(true);
    SweepOptions opts = parseSweepOptions(argc, argv);
    banner("F7", "op latency vs inventory size (DB scaling ablation)");

    const std::vector<int> sizes = {1000, 2000, 4000,
                                    8000, 16000, 32000};
    const std::vector<DbScaling> laws = {DbScaling::Constant,
                                         DbScaling::Logarithmic,
                                         DbScaling::Linear};
    // Point index = row-major (size, law): stable across thread
    // counts, so seeds and therefore results are too.
    std::vector<ScalePoint> results(sizes.size() * laws.size());
    makeSweepRunner(opts).run(results.size(), [&](std::size_t i) {
        results[i] = opLatency(laws[i % laws.size()],
                               sizes[i / laws.size()], opts.shards,
                               ParallelSweepRunner::forkSeed(71, i));
    });

    Table t({"standing_vms", "const_db_ms", "const_total_s",
             "log_db_ms", "log_total_s", "linear_db_ms",
             "linear_total_s"});
    for (std::size_t r = 0; r < sizes.size(); ++r) {
        t.row().cell(static_cast<std::int64_t>(sizes[r]));
        for (std::size_t c = 0; c < laws.size(); ++c) {
            const ScalePoint &p = results[r * laws.size() + c];
            t.cell(p.db_phase_ms, 0).cell(p.total_s, 2);
        }
    }
    printTable("linked-clone DB phase and total latency", t);
    maybeWriteCsv(opts, t);
    std::printf("expected shape: constant flat; log grows gently "
                "(per decade); linear makes the DB phase — and "
                "eventually the whole op — track cloud size.\n");
    return 0;
}
