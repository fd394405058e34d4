#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace vcp {

Histogram::Histogram(double min_value_, double growth_,
                     std::size_t max_buckets)
    : min_value(min_value_), growth(growth_)
{
    if (min_value <= 0.0)
        panic("Histogram: min_value must be > 0, got %f", min_value);
    if (growth <= 1.0)
        panic("Histogram: growth must be > 1, got %f", growth);
    if (max_buckets < 2)
        panic("Histogram: need at least 2 buckets");
    log_growth = std::log(growth);
    counts.assign(max_buckets, 0);
}

std::size_t
Histogram::bucketFor(double x) const
{
    if (x < min_value)
        return 0;
    double idx = std::floor(std::log(x / min_value) / log_growth) + 1.0;
    if (idx >= static_cast<double>(counts.size()))
        return counts.size() - 1;
    return static_cast<std::size_t>(idx);
}

void
Histogram::add(double x)
{
    add(x, 1);
}

void
Histogram::add(double x, std::uint64_t weight)
{
    if (weight == 0)
        return;
    x = std::max(x, 0.0);
    counts[bucketFor(x)] += weight;
    for (std::uint64_t i = 0; i < weight; ++i)
        summary.add(x);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.counts.size() != counts.size() ||
        other.min_value != min_value || other.growth != growth) {
        panic("Histogram::merge: incompatible bucketing");
    }
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    summary.merge(other.summary);
}

double
Histogram::bucketLowerEdge(std::size_t i) const
{
    if (i == 0)
        return 0.0;
    return min_value * std::pow(growth, static_cast<double>(i - 1));
}

double
Histogram::quantile(double q) const
{
    std::uint64_t n = summary.count();
    if (n == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double target = q * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        double before = static_cast<double>(seen);
        seen += counts[i];
        if (static_cast<double>(seen) >= target) {
            double lo = bucketLowerEdge(i);
            double hi = (i + 1 < counts.size())
                ? bucketLowerEdge(i + 1)
                : summary.max();
            hi = std::max(hi, lo);
            double frac = (target - before)
                / static_cast<double>(counts[i]);
            frac = std::clamp(frac, 0.0, 1.0);
            double est = lo + frac * (hi - lo);
            // Never report outside the observed range.
            return std::clamp(est, summary.min(), summary.max());
        }
    }
    return summary.max();
}

std::string
Histogram::toString() const
{
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
                  static_cast<unsigned long long>(count()), mean(), p50(),
                  p95(), p99(), count() ? max() : 0.0);
    return buf;
}

} // namespace vcp
