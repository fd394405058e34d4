/**
 * @file
 * TelemetryRegistry: pushed histograms plus polled probes.
 *
 * The registry is the observation API for the whole simulator.  Hot
 * paths hold raw histogram pointers obtained once at attach time and
 * feed them with a few integer ops per event; cold paths (snapshot
 * emitter, gauge sampler) walk the registry to read them.  Counters
 * are never pushed: each one is a probe reading the monotone integer
 * its component already keeps, registered in the component's attach
 * call.  Memory is O(registered instruments) — independent of run
 * length, event count, and entity count — because every instrument is
 * one of the fixed-footprint primitives in instruments.hh.
 *
 * One kernel feeds a registry: a CloudSimulation's components all run
 * on its control shard, and a threaded federation gives each domain
 * its own registry.  So every series is one instrument, written
 * without synchronization, and a run emits the same series names and
 * values for any --parallel-shards count (Merge-mode sharded execution
 * is byte-identical to serial).
 *
 * Hot-path guard: like VCP_TRACER_ON for spans, the VCP_TELEM_ON(p)
 * macro compiles to `false` under -DVCP_TELEMETRY_DISABLED=1, letting
 * the optimizer drop every push site so the instrumented binary can
 * be proven byte-identical to an uninstrumented one.
 */

#ifndef VCP_TELEMETRY_TELEMETRY_HH
#define VCP_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "telemetry/instruments.hh"
#include "trace/latency_hist.hh"

#ifndef VCP_TELEMETRY_DISABLED
#define VCP_TELEMETRY_DISABLED 0
#endif

#if VCP_TELEMETRY_DISABLED
#define VCP_TELEM_ON(p) (false)
#else
/** True when telemetry pointer @p p is attached; compiled out when disabled. */
#define VCP_TELEM_ON(p) ((p) != nullptr)
#endif

namespace vcp {

/** One bounded resource's utilization, as the bottleneck verdict reads it. */
struct ResourceUtilization
{
    std::string name;

    /** Control plane vs data plane, for the headline attribution. */
    bool control_plane = true;

    /** Busy fraction over the run so far, in [0, 1]. */
    double utilization = 0.0;
};

/** Named instrument store: pushed histograms and polled probes. */
class TelemetryRegistry
{
  public:
    /**
     * @param window the EWMA time constant for gauges (vcpsim passes
     *        its snapshot interval).
     */
    explicit TelemetryRegistry(SimDuration window = seconds(60));

    TelemetryRegistry(const TelemetryRegistry &) = delete;
    TelemetryRegistry &operator=(const TelemetryRegistry &) = delete;

    /**
     * Get-or-create histogram series @p name.  The returned pointer
     * is stable for the registry's lifetime.
     */
    LatencyHistogram *histogram(const std::string &name);

    /** Get-or-create the decaying gauge @p name. */
    DecayingGauge *gauge(const std::string &name);

    /**
     * Register a polled level probe (queue depth, slot occupancy).
     * Sampled into the series' DecayingGauge by sampleGauges() —
     * driven by the snapshot emitter and/or the GaugeSampler.
     * @p shard_scoped series are exported under the "shards" section.
     */
    void addGaugeProbe(const std::string &name,
                       std::function<std::int64_t()> fn,
                       bool shard_scoped = false);

    /**
     * Register the resource list (collectUtilizations() for a cloud):
     * read once per snapshot, it feeds the "utils" section, the
     * window's dominant and the health report.  Replaces any earlier
     * list.
     */
    void setUtilizations(
        std::function<std::vector<ResourceUtilization>()> fn);

    /** Read the resource list now (empty when none is registered). */
    std::vector<ResourceUtilization> utilizations() const;

    /**
     * Register counter @p name: a probe reading a monotone integer
     * its component keeps (dispatches, grants, completed ops).  The
     * emitter differences consecutive reads, so a window holds
     * exactly the events since the previous snapshot.  Register each
     * name once: the export renders one entry per probe.
     */
    void addCounterProbe(const std::string &name,
                         std::function<std::uint64_t()> fn,
                         bool shard_scoped = false);

    /** Poll every gauge probe into its DecayingGauge at @p now. */
    void sampleGauges(SimTime now);

    /** A counter read at one instant. */
    struct CounterReading
    {
        std::uint64_t value = 0;
        std::uint64_t total() const { return value; }
    };

    /** Read counter probe @p name now (zero when none has that name). */
    CounterReading mergedCounter(const std::string &name) const;

    /** A copy of histogram series @p name (empty when unregistered). */
    LatencyHistogram mergedHistogram(const std::string &name) const;

    // --- enumeration (snapshot emitter / tests) -------------------

    const DecayingGauge *findGauge(const std::string &name) const;

    /** Call f(name, histogram) for every histogram series, in
     *  registration order. */
    template <typename F>
    void
    forEachHistogram(F &&f) const
    {
        for (const auto &s : hists_)
            f(s.name, *s.hist);
    }

    /**
     * Call f(name, gauge, shard_scoped) for every gauge series, in
     * registration order; @c shard_scoped is the flag of the first
     * gauge probe that feeds the series (false when none does).
     */
    template <typename F>
    void
    forEachGauge(F &&f) const
    {
        for (const auto &g : gauges_)
            f(g.name, *g.gauge, g.shard_scoped);
    }

    struct CounterProbe
    {
        std::string name;
        std::function<std::uint64_t()> fn;
        bool shard_scoped = false;
        /** Previous reading, differenced by the emitter per window. */
        std::uint64_t prev = 0;
    };

    struct GaugeProbe
    {
        std::string name;
        std::function<std::int64_t()> fn;
        bool shard_scoped = false;
        DecayingGauge *sink = nullptr;
    };

    std::vector<CounterProbe> &counterProbes() { return cprobes_; }
    const std::vector<GaugeProbe> &gaugeProbes() const { return gprobes_; }

    // --- footprint (O(1)-memory acceptance test) ------------------

    /** Number of instruments + probes registered. */
    std::size_t numInstruments() const;

    /**
     * Bytes held by instruments.  Proxy for RSS growth: two runs
     * with the same instrument set report the same footprint no
     * matter how long they ran.
     */
    std::size_t footprintBytes() const;

  private:
    struct HistSeries
    {
        std::string name;
        std::unique_ptr<LatencyHistogram> hist;
    };

    struct GaugeSeries
    {
        std::string name;
        std::unique_ptr<DecayingGauge> gauge;
        bool shard_scoped = false;
    };

    /** Get-or-create the gauge series @p name. */
    GaugeSeries &gaugeSeries(const std::string &name);

    SimDuration window_;
    std::vector<HistSeries> hists_;
    std::vector<GaugeSeries> gauges_;
    std::function<std::vector<ResourceUtilization>()> utils_;
    std::vector<CounterProbe> cprobes_;
    std::vector<GaugeProbe> gprobes_;
};

} // namespace vcp

#endif // VCP_TELEMETRY_TELEMETRY_HH
