/**
 * @file
 * O(1)-memory streaming instruments for live telemetry.
 *
 * Every instrument here has a fixed footprint regardless of how many
 * samples it absorbs or how long the run lasts — the ROADMAP's
 * cloud-scale item (10k+ hosts, 1M+ VMs) rules out the per-entity,
 * per-bucket growth of stats::TimeSeries for always-on collection.
 * Three primitives cover the saturation points the paper cares about:
 *
 *  - WindowedCounter: monotone total plus a sliding-window rate kept
 *    in a small ring of sub-window slots.  add() is a few integer
 *    ops; reading the window sums at most kSlots slots.
 *  - DecayingGauge: exponentially-weighted moving average of a
 *    sampled level (queue depth, slot occupancy) with min/max/last.
 *  - LatencyHistogram (from trace/latency_hist.hh): quarter-octave
 *    clz-bucketed HDR-style histogram; exact-merge across shards.
 *
 * All three merge exactly, which is what lets per-shard instruments
 * collapse into one unified export stream: a sharded run and a serial
 * run of the same workload emit comparable series.
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
 * Monotone counter with a sliding-window rate.
 *
 * The window is divided into kSlots sub-windows; each slot remembers
 * the epoch (window-slot index of sim time) it last accumulated for,
 * so stale slots are lazily zeroed on the next touch.  inWindow()
 * sums the slots whose epoch falls inside the trailing window —
 * O(kSlots), no per-event storage.
 */
class WindowedCounter
{
  public:
    static constexpr int kSlots = 8;

    explicit WindowedCounter(SimDuration window = seconds(60))
        : slot_width(std::max<SimDuration>(window / kSlots, 1))
    {}

    /** Record @p n events at sim time @p now. */
    void
    add(SimTime now, std::uint64_t n = 1)
    {
        total_ += n;
        std::int64_t epoch = now / slot_width;
        auto idx = static_cast<std::size_t>(epoch % kSlots);
        if (epochs[idx] != epoch) {
            epochs[idx] = epoch;
            slots[idx] = 0;
        }
        slots[idx] += n;
    }

    /** All-time total. */
    std::uint64_t total() const { return total_; }

    /** Events inside the trailing window ending at @p now. */
    std::uint64_t
    inWindow(SimTime now) const
    {
        std::int64_t epoch = now / slot_width;
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < kSlots; ++i)
            if (epochs[i] > epoch - kSlots && epochs[i] <= epoch)
                sum += slots[i];
        return sum;
    }

    /** Windowed rate in events per sim second. */
    double
    ratePerSec(SimTime now) const
    {
        double win_s = toSeconds(slot_width) * kSlots;
        return win_s > 0
            ? static_cast<double>(inWindow(now)) / win_s
            : 0.0;
    }

    SimDuration window() const { return slot_width * kSlots; }

    /**
     * Fold @p other into this counter.  Slot widths must match (all
     * cells of one registry series share a width); slots are aligned
     * by epoch so the merged window equals a single counter fed both
     * streams.
     */
    void
    merge(const WindowedCounter &other)
    {
        total_ += other.total_;
        for (std::size_t i = 0; i < kSlots; ++i) {
            if (other.epochs[i] < 0)
                continue;
            if (epochs[i] == other.epochs[i]) {
                slots[i] += other.slots[i];
            } else if (epochs[i] < other.epochs[i]) {
                epochs[i] = other.epochs[i];
                slots[i] = other.slots[i];
            }
            // epochs[i] > other.epochs[i]: other's slot is stale
            // relative to ours — drop it, as add() would have.
        }
    }

  private:
    SimDuration slot_width;
    std::uint64_t total_ = 0;
    std::uint64_t slots[kSlots] = {};
    std::int64_t epochs[kSlots] = {-1, -1, -1, -1, -1, -1, -1, -1};
};

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
