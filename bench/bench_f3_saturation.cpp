/**
 * @file
 * F3 — Control-plane saturation: achieved provisioning throughput
 * and latency percentiles versus offered deploy rate, full vs
 * linked clones.
 *
 * Reconstructed [R] from "the management control plane now becomes a
 * significant limiting factor in deploying cloud resources": full
 * clones saturate early on datastore copy bandwidth; linked clones
 * push an order of magnitude further but then hit a *control-plane*
 * ceiling (dispatch slots / host agents / DB) far below the
 * hardware's data capacity.  Utilizations are snapshotted at the end
 * of the offered window (before draining), and the bottleneck column
 * makes the attribution explicit.  The sweep cloud leases VMs for 20
 * minutes so the standing population churns instead of exhausting
 * host capacity.
 */

#include "analysis/bottleneck.hh"
#include "bench_util.hh"

namespace {

struct F3Point
{
    bool linked = false;
    double rate = 0.0;
};

struct F3Result
{
    double achieved_per_h = 0.0;
    double p50_s = 0.0;
    double p95_s = 0.0;
    std::uint64_t failed = 0;
    std::string bneck_name;
    double bneck_util = 0.0;
};

F3Result
runPoint(const F3Point &pt, double window_h, int shards,
         std::uint64_t seed)
{
    using namespace vcp;
    CloudSetupSpec spec = sweepCloud(pt.linked);
    spec.workload.duration = hours(window_h);
    spec.workload.arrival.rate_per_hour = pt.rate;
    spec.server.dispatch_width = 16;
    spec.exec.shards = shards; // merge mode: rows are identical
    CloudSimulation cs(spec, seed);
    cs.start();
    cs.runFor(hours(window_h));
    // Snapshot the verdict over the loaded window.
    ResourceUtilization top =
        bottleneckOf(collectUtilizations(cs.server()));
    double provisioned_in_window =
        static_cast<double>(cs.cloud().vmsProvisioned());
    cs.runFor(hours(6)); // drain

    OpType op = pt.linked ? OpType::CloneLinked : OpType::CloneFull;
    const LatencyHistogram &lat = cs.server().latencyHistogram(op);

    F3Result r;
    r.achieved_per_h = provisioned_in_window / window_h;
    r.p50_s = lat.p50() / 1e6;
    r.p95_s = lat.p95() / 1e6;
    r.failed = cs.server().opsFailed();
    r.bneck_name = top.name;
    r.bneck_util = top.utilization;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vcp;
    setLogQuiet(true);
    SweepOptions opts = parseSweepOptions(argc, argv);
    double window_h = opts.positional.empty()
        ? 1.0
        : parseHoursOption("window-hours", opts.positional[0].c_str());
    banner("F3", "throughput and latency vs offered deploy rate");

    std::vector<F3Point> points;
    for (double rate : {60, 240, 480, 960, 1920, 3840})
        points.push_back({false, rate});
    for (double rate : {60, 240, 960, 3840, 7680, 15360})
        points.push_back({true, rate});

    // Each point is an independent simulation seeded from (31, point
    // index), so parallel and serial sweeps produce identical rows.
    std::vector<F3Result> results(points.size());
    makeSweepRunner(opts).run(points.size(), [&](std::size_t i) {
        results[i] = runPoint(points[i], window_h, opts.shards,
                              ParallelSweepRunner::forkSeed(31, i));
    });

    Table t({"mode", "offered/h", "achieved/h", "p50_s", "p95_s",
             "failed", "bottleneck", "bneck_util"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const F3Point &pt = points[i];
        const F3Result &r = results[i];
        t.row()
            .cell(pt.linked ? "linked" : "full")
            .cell(pt.rate, 0)
            .cell(r.achieved_per_h, 1)
            .cell(r.p50_s, 1)
            .cell(r.p95_s, 1)
            .cell(r.failed)
            .cell(r.bneck_name)
            .cell(r.bneck_util, 2);
    }

    printTable("saturation sweep (" + std::to_string(window_h) +
                   "h offered window; utils at window end)",
               t);
    maybeWriteCsv(opts, t);
    std::printf(
        "expected shape: full clones flatten first on the data plane "
        "(datastore pipes); linked clones sustain ~10x higher rates "
        "and then flatten on a control-plane resource.\n");
    return 0;
}
