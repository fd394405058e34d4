/**
 * @file
 * Periodic gauge sampling into the trace ring.
 *
 * Queue depths and in-flight counts change on almost every event;
 * recording each change would flood the ring for no analytical gain.
 * Instead a GaugeSampler polls registered probes on a fixed sim-time
 * period and records one Counter sample per probe per tick — bounded,
 * cheap, and exactly what a trace viewer needs for a load timeline.
 * Telemetry needs no sampler: its gauges read the time integrals the
 * components keep (sim/level_integral.hh).
 *
 * The sampler only schedules events once start() is called, so a
 * simulation without tracing keeps a byte-identical event stream.
 * NOTE: like other recurring components, a started sampler re-arms
 * indefinitely — drive such simulations with runUntil(), not run().
 */

#ifndef VCP_TRACE_SAMPLER_HH
#define VCP_TRACE_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/tracer.hh"

namespace vcp {

class TelemetryRegistry;

/** Polls registered gauges into Counter records. */
class GaugeSampler
{
  public:
    /**
     * @param sim event kernel.
     * @param tracer destination ring (also supplies name interning);
     *        with nullptr the sampler ticks but records nothing.
     * @param period sampling period (> 0), default 100 sim-ms.
     */
    GaugeSampler(Simulator &sim, SpanTracer *tracer,
                 SimDuration period = msec(100));

    GaugeSampler(const GaugeSampler &) = delete;
    GaugeSampler &operator=(const GaugeSampler &) = delete;

    /** Register a probe; sampled every period once started. */
    void addGauge(const std::string &name,
                  std::function<std::int64_t()> probe);

    /** Does nothing; perfbench/vcpbench.cc still calls it. */
    void attachTelemetry(TelemetryRegistry *) {}

    /** Begin sampling (re-arms until stop()). */
    void start();

    /** Stop sampling after the current tick. */
    void stop() { running = false; }

    /** Samples recorded so far (all probes combined). */
    std::uint64_t samples() const { return sample_count; }

    SimDuration period() const { return period_; }

  private:
    void tick();

    struct Probe
    {
        /** Interned trace name (0 without a tracer). */
        std::uint16_t name = 0;
        std::function<std::int64_t()> read;
    };

    Simulator &sim;
    SpanTracer *tracer;
    SimDuration period_;
    bool running = false;
    std::uint64_t sample_count = 0;
    std::vector<Probe> probes;
};

} // namespace vcp

#endif // VCP_TRACE_SAMPLER_HH
