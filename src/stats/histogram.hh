/**
 * @file
 * Log-bucketed histogram for latency-like quantities.
 *
 * Buckets grow geometrically, giving roughly constant relative error
 * across many orders of magnitude (the management-operation latency
 * range spans sub-millisecond DB writes to multi-minute full clones).
 * Quantiles are estimated by linear interpolation within a bucket.
 */

#ifndef VCP_STATS_HISTOGRAM_HH
#define VCP_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/summary.hh"

namespace vcp {

/** Geometric-bucket histogram over non-negative values. */
class Histogram
{
  public:
    /**
     * @param min_value lower edge of the first finite bucket (> 0).
     * @param growth per-bucket geometric growth factor (> 1).
     * @param max_buckets cap on bucket count; overflow lands in the
     *        last bucket.
     */
    explicit Histogram(double min_value = 1.0, double growth = 1.15,
                       std::size_t max_buckets = 256);

    /** Record one sample (negative samples are clamped to zero). */
    void add(double x);

    /** Record @p weight occurrences of @p x. */
    void add(double x, std::uint64_t weight);

    /** Merge a histogram with identical bucketing. */
    void merge(const Histogram &other);

    std::uint64_t count() const { return summary.count(); }
    double mean() const { return summary.mean(); }
    double stddev() const { return summary.stddev(); }
    double min() const { return summary.min(); }
    double max() const { return summary.max(); }

    /**
     * Estimate the q-quantile (q in [0, 1]) by interpolating within
     * the containing bucket.  Returns 0 when empty.
     */
    double quantile(double q) const;

    /** Convenience percentiles. */
    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    /** One-line summary rendering. */
    std::string toString() const;

    /** Bucket count (for tests and dump tools). */
    std::size_t numBuckets() const { return counts.size(); }

    /** Raw count in bucket @p i. */
    std::uint64_t bucketCount(std::size_t i) const { return counts[i]; }

    /** Lower edge of bucket @p i (bucket 0 holds [0, min_value)). */
    double bucketLowerEdge(std::size_t i) const;

  private:
    std::size_t bucketFor(double x) const;

    double min_value;
    double log_growth;
    double growth;
    std::vector<std::uint64_t> counts;
    SummaryStats summary;
};

} // namespace vcp

#endif // VCP_STATS_HISTOGRAM_HH
