/**
 * @file
 * TelemetryRegistry: pushed histograms plus polled probes.
 *
 * The registry is the observation API for the whole simulator.  Hot
 * paths hold raw histogram pointers obtained once at attach time and
 * feed them with a few integer ops per event; the snapshot emitter
 * walks the registry to read them.  Counters and gauges are never
 * pushed: a counter is a probe reading the monotone integer its
 * component already keeps, and a gauge is a probe reading a level and
 * the level's time integral (LevelIntegral), both registered in the
 * component's attach call.  Memory is O(registered instruments) —
 * independent of run length, event count, and entity count — because
 * the only stored instrument, LatencyHistogram, has a fixed footprint.
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

#include "sim/level_integral.hh"
#include "sim/types.hh"
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
    /** The argument is ignored; perfbench/vcpbench.cc still passes one. */
    explicit TelemetryRegistry(SimDuration = seconds(60)) {}

    TelemetryRegistry(const TelemetryRegistry &) = delete;
    TelemetryRegistry &operator=(const TelemetryRegistry &) = delete;

    /**
     * Get-or-create histogram series @p name.  The returned pointer
     * is stable for the registry's lifetime.
     */
    LatencyHistogram *histogram(const std::string &name);

    /**
     * Register gauge @p name: a probe reading a level (queue depth,
     * slot occupancy) and the level's integral up to the instant it
     * is passed.  The emitter passes its snapshot time and differences
     * consecutive integrals, so a window's mean is the exact
     * time-weighted mean of the level over the window.  A
     * @p shard_scoped gauge is exported under the "shards" section
     * with its level only; its integral is not read.  Register each
     * name once.
     */
    void addGaugeProbe(const std::string &name,
                       std::function<LevelReading(SimTime)> fn,
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

    /** Call f(name, histogram) for every histogram series, in
     *  registration order. */
    template <typename F>
    void
    forEachHistogram(F &&f) const
    {
        for (const auto &s : hists_)
            f(s.name, *s.hist);
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
        std::function<LevelReading(SimTime)> fn;
        bool shard_scoped = false;
        /** The emitter's state: the integral at the previous
         *  snapshot (0 before the first, like a counter's total), and
         *  the latest snapshot's level and window mean (the
         *  Prometheus file repeats them). */
        std::int64_t prev = 0;
        std::int64_t last = 0;
        double mean = 0.0;
    };

    std::vector<CounterProbe> &counterProbes() { return cprobes_; }
    std::vector<GaugeProbe> &gaugeProbes() { return gprobes_; }

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

    std::vector<HistSeries> hists_;
    std::function<std::vector<ResourceUtilization>()> utils_;
    std::vector<CounterProbe> cprobes_;
    std::vector<GaugeProbe> gprobes_;
};

} // namespace vcp

#endif // VCP_TELEMETRY_TELEMETRY_HH
