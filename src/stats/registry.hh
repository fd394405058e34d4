/**
 * @file
 * Named statistics registry.
 *
 * Components register counters and histograms under hierarchical
 * dotted names ("cp.latency_us.clone-linked").  The registry owns the
 * storage; callers keep cheap handles.  A dump renders everything to
 * CSV.
 */

#ifndef VCP_STATS_REGISTRY_HH
#define VCP_STATS_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/histogram.hh"
#include "trace/latency_hist.hh"

namespace vcp {

/** Monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { val += by; }
    std::uint64_t value() const { return val; }

  private:
    std::uint64_t val = 0;
};

/**
 * Owner of all named statistics for one simulation.
 *
 * Registration and resolution go through hash maps (no ordered
 * string compares on the hot path); dumps sort the names on the way
 * out, so their order stays deterministic.  The maps are node-based,
 * so the references handed out stay valid for the registry's
 * lifetime — components are encouraged to resolve a dotted name
 * *once* and record through the returned reference (see the
 * management server's per-op stat cache).
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Get or create the counter with the given dotted name. */
    Counter &counter(const std::string &name);

    /**
     * Get or create a histogram.  Creation parameters are only used
     * the first time a name is seen.
     */
    Histogram &histogram(const std::string &name, double min_value = 1.0,
                         double growth = 1.15);

    /**
     * Get or create a latency cell: integer microseconds in fixed
     * quarter-octave buckets, exact count, sum, mean and max.  The
     * management server's per-op and per-phase latencies live here.
     */
    LatencyHistogram &latency(const std::string &name);

    /**
     * The latency cell @p name, or an empty cell when none was
     * created.  Reading never creates, so the dump does not depend on
     * who read what.
     */
    const LatencyHistogram &latencyOrEmpty(const std::string &name) const;

    /**
     * @{ Resolve-once overloads: fill @p slot on first use and reuse
     * the raw handle on every later call, skipping the name hash.
     * Because the slot fills lazily, the set of registered names —
     * and therefore the sorted dump — is identical to what repeated
     * by-name lookups would have produced.
     */
    Counter &
    counter(Counter *&slot, const std::string &name)
    {
        if (!slot)
            slot = &counter(name);
        return *slot;
    }

    Histogram &
    histogram(Histogram *&slot, const std::string &name,
              double min_value = 1.0, double growth = 1.15)
    {
        if (!slot)
            slot = &histogram(name, min_value, growth);
        return *slot;
    }
    /** @} */

    /** True if any stat with this exact name exists. */
    bool has(const std::string &name) const;

    /**
     * Render all stats as CSV lines "name,kind,field,value": counters,
     * then histograms and latency cells in one name order, each
     * expanded into count/mean/p50/p95/p99/max rows of kind
     * "histogram".
     */
    std::string toCsv() const;

  private:
    /** Sorted keys of @p map (dump-time determinism). */
    template <typename Map>
    static std::vector<std::string> sortedKeys(const Map &map);

    std::unordered_map<std::string, Counter> counters;
    std::unordered_map<std::string, std::unique_ptr<Histogram>>
        histograms;
    std::unordered_map<std::string, LatencyHistogram> latencies;
};

} // namespace vcp

#endif // VCP_STATS_REGISTRY_HH
