/**
 * @file
 * Core simulated-time types for the management control plane simulator.
 *
 * Simulated time is a 64-bit count of microseconds since simulation
 * start.  All latencies and service times in the cost models are
 * expressed in these ticks; helpers below build them from humane units.
 */

#ifndef VCP_SIM_TYPES_HH
#define VCP_SIM_TYPES_HH

#include <cstdint>
#include <string>

namespace vcp {

/** Simulated time in microseconds since simulation start. */
using SimTime = std::int64_t;

/** A span of simulated time, also in microseconds. */
using SimDuration = std::int64_t;

/** The maximum representable simulated time. */
constexpr SimTime kMaxSimTime = INT64_MAX;

/**
 * The latest time an event can be scheduled at: event times fit in
 * 47 bits, about 4.4 simulated years (see EventQueue).
 */
constexpr SimTime kMaxEventTime = (SimTime(1) << 47) - 1;

/** @{ Duration constructors from humane units. */
constexpr SimDuration
usec(double n)
{
    return static_cast<SimDuration>(n);
}

constexpr SimDuration
msec(double n)
{
    return static_cast<SimDuration>(n * 1e3);
}

constexpr SimDuration
seconds(double n)
{
    return static_cast<SimDuration>(n * 1e6);
}

constexpr SimDuration
minutes(double n)
{
    return static_cast<SimDuration>(n * 60e6);
}

constexpr SimDuration
hours(double n)
{
    return static_cast<SimDuration>(n * 3600e6);
}

constexpr SimDuration
days(double n)
{
    return static_cast<SimDuration>(n * 86400e6);
}
/** @} */

/** @{ Converters back to floating-point humane units. */
constexpr double
toUsec(SimDuration d)
{
    return static_cast<double>(d);
}

constexpr double
toMsec(SimDuration d)
{
    return static_cast<double>(d) / 1e3;
}

constexpr double
toSeconds(SimDuration d)
{
    return static_cast<double>(d) / 1e6;
}

constexpr double
toMinutes(SimDuration d)
{
    return static_cast<double>(d) / 60e6;
}

constexpr double
toHours(SimDuration d)
{
    return static_cast<double>(d) / 3600e6;
}
/** @} */

/**
 * Render a simulated time as a short human-readable string,
 * e.g.\ "1d02h03m04.500s".
 */
std::string formatTime(SimTime t);

/** Bytes, used by the storage and network models. */
using Bytes = std::int64_t;

/** @{ Byte-quantity constructors. */
constexpr Bytes
kib(double n)
{
    return static_cast<Bytes>(n * 1024.0);
}

constexpr Bytes
mib(double n)
{
    return static_cast<Bytes>(n * 1024.0 * 1024.0);
}

constexpr Bytes
gib(double n)
{
    return static_cast<Bytes>(n * 1024.0 * 1024.0 * 1024.0);
}
/** @} */

/** Render a byte count as a short human-readable string, e.g. "1.5 GiB". */
std::string formatBytes(Bytes b);

} // namespace vcp

#endif // VCP_SIM_TYPES_HH
