/**
 * @file
 * O(1)-memory streaming instruments for live telemetry.
 *
 * Every instrument here has a fixed footprint regardless of how many
 * samples it absorbs or how long the run lasts — the ROADMAP's
 * cloud-scale item (10k+ hosts, 1M+ VMs) rules out the per-entity,
 * per-bucket growth of stats::TimeSeries for always-on collection.
 * Two pushed primitives cover the saturation points the paper cares
 * about:
 *
 *  - DecayingGauge: exponentially-weighted moving average of a
 *    sampled level (queue depth, slot occupancy) with min/max/last.
 *  - LatencyHistogram (from trace/latency_hist.hh): quarter-octave
 *    clz-bucketed HDR-style histogram; merges exactly.
 *
 * Counts need no instrument: a counter is a probe that reads the
 * monotone integer its component already keeps (see
 * TelemetryRegistry::addCounterProbe), so its windowed count is the
 * exact change between two snapshots.
 */

#ifndef VCP_TELEMETRY_INSTRUMENTS_HH
#define VCP_TELEMETRY_INSTRUMENTS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/types.hh"

namespace vcp {

/**
 * Exponentially-decaying gauge: EWMA of a sampled level with a fixed
 * time constant, plus last/min/max over the whole run.  sample() runs
 * on the cold sampler/snapshot path, never per event, and pays one
 * exp() only when the step since the previous sample differs from the
 * step before it: a fixed-period sampler reuses the decay factor.
 */
class DecayingGauge
{
  public:
    explicit DecayingGauge(SimDuration tau = seconds(60))
        : tau_s(std::max(toSeconds(tau), 1e-9))
    {}

    void
    sample(SimTime now, double v)
    {
        if (n == 0) {
            ewma_ = v;
        } else {
            SimDuration step = now - last_t;
            if (step != step_) {
                double dt = toSeconds(step);
                step_ = step;
                alpha_ = dt > 0 ? 1.0 - std::exp(-dt / tau_s) : 0.0;
            }
            ewma_ += alpha_ * (v - ewma_);
        }
        last_t = now;
        last_ = v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        ++n;
    }

    double last() const { return n ? last_ : 0.0; }
    double ewma() const { return n ? ewma_ : 0.0; }
    double min() const { return n ? min_ : 0.0; }
    double max() const { return n ? max_ : 0.0; }
    std::uint64_t samples() const { return n; }

  private:
    double tau_s;
    double ewma_ = 0.0;
    double last_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    SimTime last_t = 0;
    std::uint64_t n = 0;
    /** The last step length between samples and its decay factor. */
    SimDuration step_ = 0;
    double alpha_ = 0.0;
};

} // namespace vcp

#endif // VCP_TELEMETRY_INSTRUMENTS_HH
