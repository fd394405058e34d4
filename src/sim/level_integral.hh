/**
 * @file
 * A level and its exact time integral.
 *
 * Queue lengths, busy servers, locked keys and in-flight transfers
 * change at known instants.  A component that owns such a level folds
 * level x elapsed time into an integer area at each change, so the
 * level's time-weighted mean over any interval is the change in area
 * divided by the interval's length: exact, in integer sim-µs, and
 * with no sampling events.  ServiceCenter reads its busy area as
 * busy server-time; the telemetry snapshot emitter differences the
 * areas per window (see TelemetryRegistry::addGaugeProbe).
 * A level bound to a trace ring also records each change there, so
 * its trace track is the same step function (see GaugeSampler).
 */

#ifndef VCP_SIM_LEVEL_INTEGRAL_HH
#define VCP_SIM_LEVEL_INTEGRAL_HH

#include <cstdint>

#include "sim/types.hh"
#include "trace/ring.hh"

namespace vcp {

/** A level read at one instant, with its integral up to that instant. */
struct LevelReading
{
    std::int64_t level = 0;

    /** Integral of the level over time, in level x sim-µs. */
    std::int64_t integral = 0;

    LevelReading &
    operator+=(const LevelReading &o)
    {
        level += o.level;
        integral += o.integral;
        return *this;
    }
};

/** A level, its integral over time, and the time of its last change. */
class LevelIntegral
{
  public:
    /** A level of 0 since @p start. */
    explicit LevelIntegral(SimTime start = 0) : last_change(start) {}

    /** The level moves by @p delta at @p now (not before the last
     *  change); a bound level records (now, new level). */
    void
    add(SimTime now, std::int64_t delta)
    {
        area = integralAt(now);
        last_change = now;
        level_ += delta;
        if (VCP_TRACE_ON(ring))
            ring->push({now, level_, 0, trace_name, SpanKind::Counter,
                        0xff, {}});
    }

    /** Record each later change into @p r as a Counter named
     *  @p name_id, or stop (nullptr); binding records nothing.  An
     *  observer, not model state, so a const level takes it. */
    void
    bindTrace(TraceRing *r, std::uint16_t name_id) const
    {
        ring = r;
        trace_name = name_id;
    }

    std::int64_t level() const { return level_; }

    /** The integral from the start up to @p now (not before the last
     *  change). */
    std::int64_t
    integralAt(SimTime now) const
    {
        return area + level_ * (now - last_change);
    }

    LevelReading at(SimTime now) const { return {level_, integralAt(now)}; }

  private:
    std::int64_t level_ = 0;
    std::int64_t area = 0;
    SimTime last_change = 0;
    mutable TraceRing *ring = nullptr;
    mutable std::uint16_t trace_name = 0;
};

} // namespace vcp

#endif // VCP_SIM_LEVEL_INTEGRAL_HH
