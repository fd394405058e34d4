/**
 * @file
 * Fixed-width-bucket time series for rate and utilization plots.
 *
 * Samples are (time, value) pairs; the series aggregates them into
 * contiguous buckets of a fixed simulated-time width, tracking count,
 * sum, and mean per bucket.  This backs the "ops per hour over time"
 * style figures.
 */

#ifndef VCP_STATS_TIMESERIES_HH
#define VCP_STATS_TIMESERIES_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace vcp {

/** One aggregated bucket of a TimeSeries. */
struct TimeBucket
{
    SimTime start = 0;
    std::uint64_t count = 0;
    double sum = 0.0;

    double
    mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }
};

/** Time-bucketed aggregation of (time, value) samples. */
class TimeSeries
{
  public:
    /** @param bucket_width width of each bucket in simulated time. */
    explicit TimeSeries(SimDuration bucket_width);

    /** Record a value at a simulated time (must be >= 0). */
    void add(SimTime t, double value = 1.0);

    /** Number of buckets materialized so far. */
    std::size_t numBuckets() const { return buckets.size(); }

    /** Bucket @p i; buckets with no samples exist but hold zeros. */
    const TimeBucket &bucket(std::size_t i) const { return buckets[i]; }

    SimDuration bucketWidth() const { return width; }

    /** Sum of all sample values. */
    double totalSum() const { return total_sum; }

    /** Total number of samples. */
    std::uint64_t totalCount() const { return total_count; }

  private:
    SimDuration width;
    std::vector<TimeBucket> buckets;
    double total_sum = 0.0;
    std::uint64_t total_count = 0;
};

} // namespace vcp

#endif // VCP_STATS_TIMESERIES_HH
