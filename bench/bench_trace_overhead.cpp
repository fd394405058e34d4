/**
 * @file
 * Observability-overhead smoke (the perf_smoke_trace ctest): runs the
 * fixed Cloud-A F3 slice with tracing / telemetry off and on,
 * interleaved best-of-N, and fails when the instrumented events/sec
 * rate falls more than 5% below the bare rate.  Also checks the
 * zero-perturbation contract: a span tracer or a telemetry registry
 * alone (no gauge sampler or snapshot emitter, which legitimately add
 * their own periodic events) must leave the processed event count
 * exactly unchanged.
 *
 * The export path is guarded too: the Full and TelemExport slices
 * render their exports into memory (the Perfetto JSON of the ring,
 * and a burst of ND-JSON snapshot lines), and the render cost per
 * trace record and per snapshot line, as a multiple of the bare
 * slice's host ns/event from the same process, must stay under a
 * bound.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "bench_util.hh"
#include "telemetry/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "trace/perfetto.hh"
#include "trace/sampler.hh"
#include "trace/tracer.hh"

namespace vcp {
namespace {

struct SliceResult
{
    std::uint64_t events = 0;
    double seconds = 0.0;
    std::uint64_t recorded = 0;
    /** Full: Perfetto render time per ring record (ns). */
    double trace_render_ns = 0.0;
    /** TelemExport: time per snapshot line of a burst (ns). */
    double line_render_ns = 0.0;
};

enum class Mode
{
    Off,         ///< no tracer or telemetry attached
    TracerOnly,  ///< spans only (event-count comparable with Off)
    Full,        ///< spans + periodic gauge sampling, as vcpsim wires it
    TelemOnly,   ///< telemetry histograms + probes (comparable w/ Off)
    TelemExport, ///< telemetry + sampler + snapshot emitter, as vcpsim
};

/** Window width: wide enough that the timed region (~15 ms) is not
 *  dominated by scheduler noise, small enough to stay a smoke. */
constexpr int kWindowMin = 8;

/** Snapshot lines rendered back to back after a TelemExport slice. */
constexpr int kBurstLines = 64;

/**
 * Export-render bounds, as multiples of the bare slice's host
 * ns/event: twice the highest best-of-rounds ratio in 13 runs on a
 * 4-vCPU box, alone and under a parallel ctest (0.18 per trace
 * record, 15.6 per snapshot line).
 */
constexpr double kMaxTraceRenderRatio = 0.36;
constexpr double kMaxLineRenderRatio = 31.0;

double
nsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

SliceResult
runSlice(Mode mode)
{
    CloudSetupSpec spec = sweepCloud(/*linked=*/true);
    spec.workload.duration = minutes(kWindowMin);
    spec.workload.arrival.rate_per_hour = 7680.0;
    spec.server.dispatch_width = 16;

    // The tracer is allocated in *every* mode, before the model, and
    // sized to the window (it must not wrap, or the recorded count
    // differs run to run).  Off mode just never attaches it: that
    // keeps the heap layout of the model identical across modes, so
    // the comparison isolates recording work from allocation-address
    // luck (which is stable within a process and would otherwise
    // swamp a few-percent overhead).
    TracerConfig cfg;
    cfg.capacity = 1u << 17;
    auto tracer = std::make_unique<SpanTracer>(cfg);
    auto telem = std::make_unique<TelemetryRegistry>(seconds(60));

    CloudSimulation cs(spec, /*seed=*/31);
    std::unique_ptr<GaugeSampler> sampler;
    std::unique_ptr<SnapshotEmitter> emitter;
    std::ostringstream sink;
    if (mode == Mode::TracerOnly || mode == Mode::Full) {
        cs.enableTracing(tracer.get());
        if (mode == Mode::Full) {
            sampler = std::make_unique<GaugeSampler>(cs.sim(),
                                                     tracer.get());
            cs.addStandardGauges(*sampler);
            sampler->start();
        }
    } else if (mode == Mode::TelemOnly || mode == Mode::TelemExport) {
        cs.enableTelemetry(telem.get());
        if (mode == Mode::TelemExport) {
            emitter = std::make_unique<SnapshotEmitter>(
                cs.sim(), *telem, seconds(60));
            emitter->writeTo(&sink);
            emitter->start();
            sampler = std::make_unique<GaugeSampler>(cs.sim(),
                                                     nullptr);
            cs.addStandardGauges(*sampler);
            sampler->attachTelemetry(telem.get());
            sampler->start();
        }
    }

    auto t0 = std::chrono::steady_clock::now();
    cs.start();
    cs.runFor(minutes(kWindowMin));
    cs.runFor(minutes(30)); // drain in-flight operations
    auto t1 = std::chrono::steady_clock::now();

    SliceResult r;
    r.events = cs.sim().eventsProcessed();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.recorded = tracer ? tracer->ring().totalRecorded() : 0;

    // Export render cost, outside the timed slice.
    if (mode == Mode::Full) {
        auto e0 = std::chrono::steady_clock::now();
        std::string json = exportPerfettoJson(*tracer);
        double ns = nsSince(e0);
        // An empty ring or export leaves 0, which fails the bound.
        if (tracer->ring().size() > 0 && !json.empty())
            r.trace_render_ns =
                ns / static_cast<double>(tracer->ring().size());
    }
    if (mode == Mode::TelemExport) {
        auto e0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kBurstLines; ++i)
            emitter->emitNow();
        r.line_render_ns = nsSince(e0) / kBurstLines;
    }
    return r;
}

} // namespace
} // namespace vcp

int
main()
{
    using namespace vcp;
    setLogQuiet(true);

    // Zero-perturbation: a span tracer must not change the event
    // stream (recording reads the clock; it never schedules), and
    // neither may telemetry (histograms update in place at
    // completion sites; counters are probes, read only on export).
    SliceResult off = runSlice(Mode::Off);
    SliceResult spans = runSlice(Mode::TracerOnly);
    SliceResult telem = runSlice(Mode::TelemOnly);
    if (spans.events != off.events) {
        std::printf("FAIL: tracer perturbed the simulation "
                    "(%llu events traced vs %llu untraced)\n",
                    static_cast<unsigned long long>(spans.events),
                    static_cast<unsigned long long>(off.events));
        return 1;
    }
    if (spans.recorded == 0) {
        std::printf("FAIL: tracer attached but nothing recorded\n");
        return 1;
    }
    if (telem.events != off.events) {
        std::printf("FAIL: telemetry perturbed the simulation "
                    "(%llu events instrumented vs %llu bare)\n",
                    static_cast<unsigned long long>(telem.events),
                    static_cast<unsigned long long>(off.events));
        return 1;
    }

    // Overhead: interleaved rounds, each contributing one paired
    // events/sec ratio (pairing cancels common-mode machine noise;
    // the median shrugs off outlier rounds).  TracerOnly keeps the
    // event stream identical, so the rates compare like for like;
    // Full adds the gauge sampler's own (cheap) tick events, which
    // would skew an events/sec comparison, so it is reported but not
    // asserted.
    constexpr int kRounds = 7;
    runSlice(Mode::Off); // warm allocator, page cache, branch state
    runSlice(Mode::TracerOnly);
    std::vector<double> ratios, telem_ratios;
    double best_off = 0.0, best_on = 0.0, best_full = 0.0;
    double best_telem = 0.0, best_export = 0.0;
    // Export render cost over bare host ns/event, best round.
    double trace_render = 1e300, line_render = 1e300;
    for (int i = 0; i < kRounds; ++i) {
        // Report-only modes first: the asserted pairs then run late
        // in the round, after concurrently-started ctest peers (all
        // much shorter than this bench) have drained off the cores.
        SliceResult c = runSlice(Mode::Full);
        SliceResult e = runSlice(Mode::TelemExport);
        SliceResult a = runSlice(Mode::Off);
        SliceResult b = runSlice(Mode::TracerOnly);
        SliceResult d = runSlice(Mode::TelemOnly);
        double off_rate = a.events / a.seconds;
        ratios.push_back((b.events / b.seconds) / off_rate);
        telem_ratios.push_back((d.events / d.seconds) / off_rate);
        best_off = std::max(best_off, off_rate);
        best_on = std::max(best_on, b.events / b.seconds);
        best_full = std::max(best_full, c.events / c.seconds);
        best_telem = std::max(best_telem, d.events / d.seconds);
        best_export = std::max(best_export, e.events / e.seconds);
        double bare_ns = a.seconds * 1e9 / static_cast<double>(a.events);
        trace_render = std::min(trace_render, c.trace_render_ns / bare_ns);
        line_render = std::min(line_render, e.line_render_ns / bare_ns);
    }
    std::sort(ratios.begin(), ratios.end());
    std::sort(telem_ratios.begin(), telem_ratios.end());

    // Three robust estimates of the true instrumented/bare rate
    // ratio: the median of the paired per-round ratios, the ratio of
    // best rates, and the cleanest single round.  External load
    // depresses the first two (a contaminated round slows whichever
    // side it hits) and can only briefly inflate one paired round, so
    // the largest of the three is the best estimate — while a real
    // >=5% regression, present in every round, still depresses all.
    double median = ratios[ratios.size() / 2];
    double ratio = std::max({median, best_on / best_off,
                             ratios.back()});
    double telem_median = telem_ratios[telem_ratios.size() / 2];
    double telem_ratio = std::max({telem_median,
                                   best_telem / best_off,
                                   telem_ratios.back()});

    std::printf("events/sec untraced %.3g; traced/untraced ratio "
                "%.3f (median %.3f, best-of %.3f; floor 0.95; "
                "with gauges %.3g)\n",
                best_off, ratio, median, best_on / best_off,
                best_full);
    std::printf("telemetry/bare ratio %.3f (median %.3f, best-of "
                "%.3f; floor 0.95; with sampler+emitter %.3g)\n",
                telem_ratio, telem_median, best_telem / best_off,
                best_export);
    std::printf("export render / bare ns per event: %.3f per trace "
                "record (bound %.3g), %.3g per snapshot line (bound "
                "%.3g)\n",
                trace_render, kMaxTraceRenderRatio, line_render,
                kMaxLineRenderRatio);
    if (ratio < 0.95) {
        std::printf("FAIL: tracing overhead exceeds 5%%\n");
        return 1;
    }
    if (!(trace_render > 0.0 && trace_render <= kMaxTraceRenderRatio)) {
        std::printf("FAIL: trace export render cost out of bound\n");
        return 1;
    }
    if (!(line_render > 0.0 && line_render <= kMaxLineRenderRatio)) {
        std::printf("FAIL: snapshot line render cost out of bound\n");
        return 1;
    }
    if (telem_ratio < 0.95) {
        std::printf("FAIL: telemetry overhead exceeds 5%%\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
