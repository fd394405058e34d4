/**
 * @file
 * Streaming summary statistics (count/mean/variance/min/max) using
 * Welford's numerically stable online algorithm.
 */

#ifndef VCP_SIM_SUMMARY_HH
#define VCP_SIM_SUMMARY_HH

#include <cstdint>
#include <limits>
#include <string>

namespace vcp {

/** Online mean/variance/min/max accumulator. */
class SummaryStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const SummaryStats &other);

    std::uint64_t count() const { return n; }
    double sum() const { return total; }

    /** Sample mean; 0 when empty. */
    double mean() const { return n ? running_mean : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;

    /** Square root of variance(). */
    double stddev() const;

    /** Coefficient of variation (stddev / mean); 0 when mean is 0. */
    double cv() const;

    /** Smallest sample; +inf when empty. */
    double min() const { return minimum; }

    /** Largest sample; -inf when empty. */
    double max() const { return maximum; }

    /** One-line human-readable rendering. */
    std::string toString() const;

  private:
    std::uint64_t n = 0;
    double running_mean = 0.0;
    double m2 = 0.0;
    double total = 0.0;
    double minimum = std::numeric_limits<double>::infinity();
    double maximum = -std::numeric_limits<double>::infinity();
};

} // namespace vcp

#endif // VCP_SIM_SUMMARY_HH
