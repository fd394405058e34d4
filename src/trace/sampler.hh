/**
 * @file
 * The trace's gauge tracks, drawn from the levels components keep.
 *
 * A started GaugeSampler records each registered LevelIntegral once,
 * then binds it to the tracer's ring, so each later change pushes one
 * Counter record (time, new level): the exact step function whose
 * window integrals telemetry's gauge means read.  It schedules no
 * event, so a traced run keeps the untraced run's event stream.
 */

#ifndef VCP_TRACE_SAMPLER_HH
#define VCP_TRACE_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/level_integral.hh"
#include "sim/simulator.hh"
#include "trace/tracer.hh"

namespace vcp {

class TelemetryRegistry;

/** Binds registered levels to the trace as Counter tracks. */
class GaugeSampler
{
  public:
    /**
     * @param sim event kernel (the time of start()'s records).
     * @param tracer destination ring (also supplies name interning);
     *        with nullptr the sampler records nothing.
     * The period is ignored; perfbench/vcpbench.cc still passes one.
     */
    GaugeSampler(Simulator &sim, SpanTracer *tracer, SimDuration = 0);

    GaugeSampler(const GaugeSampler &) = delete;
    GaugeSampler &operator=(const GaugeSampler &) = delete;

    ~GaugeSampler() { stop(); }

    /** Register a level (before start()); it must outlive the
     *  sampler or its stop(). */
    void addGauge(const std::string &name, const LevelIntegral &level);

    /** Does nothing; perfbench/vcpbench.cc still calls it. */
    void attachTelemetry(TelemetryRegistry *) {}

    /** Record each level once at the current time and bind it, so
     *  each later change records too. */
    void start();

    /** Unbind every level: nothing more is recorded. */
    void stop();

  private:
    struct Gauge
    {
        std::uint16_t name; ///< interned (0 without a tracer)
        const LevelIntegral *level;
    };

    Simulator &sim;
    SpanTracer *tracer;
    bool running = false;
    std::vector<Gauge> gauges;
};

} // namespace vcp

#endif // VCP_TRACE_SAMPLER_HH
