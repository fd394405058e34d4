/**
 * @file
 * TelemetryRegistry: named streaming instruments plus polled probes.
 *
 * The registry is the observation API for the whole simulator.  Hot
 * paths hold raw instrument pointers obtained once at attach time and
 * feed them with a couple of integer ops per event; cold paths
 * (snapshot emitter, gauge sampler) walk the registry to read merged
 * views.  Memory is O(registered instruments) — independent of run
 * length, event count, and entity count — because every instrument is
 * one of the fixed-footprint primitives in instruments.hh.
 *
 * Sharding: counter and histogram series allocate one cell per shard
 * (`counter(name, shard)`), so shard workers write without
 * synchronization; export merges the cells into one unified series.
 * A serial run (everything in shard 0) therefore emits the same
 * series names, and — because Merge-mode sharded execution is
 * byte-identical to serial — the same values for any shard count.
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

/** Named instrument store with per-shard cells and polled probes. */
class TelemetryRegistry
{
  public:
    /**
     * @param window sliding-window width for counters/rates; also
     *        the EWMA time constant for gauges.
     */
    explicit TelemetryRegistry(SimDuration window = seconds(60));

    TelemetryRegistry(const TelemetryRegistry &) = delete;
    TelemetryRegistry &operator=(const TelemetryRegistry &) = delete;

    /**
     * Get-or-create the cell of counter series @p name for @p shard.
     * The returned pointer is stable for the registry's lifetime.
     */
    WindowedCounter *counter(const std::string &name, int shard = 0);

    /** Get-or-create the histogram cell of series @p name for @p shard. */
    LatencyHistogram *histogram(const std::string &name, int shard = 0);

    /** Get-or-create the (unsharded) decaying gauge @p name. */
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
     * Register a monotone-counter probe for a value maintained
     * elsewhere (completed ops, reroutes).  The emitter differences
     * consecutive reads to derive the windowed rate.
     */
    void addCounterProbe(const std::string &name,
                         std::function<std::uint64_t()> fn,
                         bool shard_scoped = false);

    /** Poll every gauge probe into its DecayingGauge at @p now. */
    void sampleGauges(SimTime now);

    /** Merged (cross-shard) view of counter series @p name. */
    WindowedCounter mergedCounter(const std::string &name) const;

    /** Merged (cross-shard) view of histogram series @p name. */
    LatencyHistogram mergedHistogram(const std::string &name) const;

    // --- enumeration (snapshot emitter / tests) -------------------

    std::vector<std::string> counterNames() const;
    std::vector<std::string> histogramNames() const;
    std::vector<std::string> gaugeNames() const;
    const DecayingGauge *findGauge(const std::string &name) const;

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

    /** Whether gauge series @p name came from a shard-scoped probe. */
    bool gaugeShardScoped(const std::string &name) const;

    // --- footprint (O(1)-memory acceptance test) ------------------

    /** Number of instrument cells + probes registered. */
    std::size_t numInstruments() const;

    /**
     * Bytes held by instrument cells.  Proxy for RSS growth: two runs
     * with the same instrument set report the same footprint no
     * matter how long they ran.
     */
    std::size_t footprintBytes() const;

    SimDuration window() const { return window_; }

  private:
    template <typename T>
    struct Series
    {
        std::string name;
        /** One cell per shard, created on demand; stable addresses. */
        std::vector<std::unique_ptr<T>> cells;
    };

    template <typename T>
    static T *cellFor(Series<T> &s, int shard, SimDuration window);

    SimDuration window_;
    std::vector<Series<WindowedCounter>> counters_;
    std::vector<Series<LatencyHistogram>> hists_;
    std::vector<std::pair<std::string, std::unique_ptr<DecayingGauge>>>
        gauges_;
    std::function<std::vector<ResourceUtilization>()> utils_;
    std::vector<CounterProbe> cprobes_;
    std::vector<GaugeProbe> gprobes_;
};

} // namespace vcp

#endif // VCP_TELEMETRY_TELEMETRY_HH
