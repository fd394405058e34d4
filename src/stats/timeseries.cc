#include "stats/timeseries.hh"

#include "sim/logging.hh"

namespace vcp {

TimeSeries::TimeSeries(SimDuration bucket_width)
    : width(bucket_width)
{
    if (width <= 0)
        panic("TimeSeries: bucket width must be positive");
}

void
TimeSeries::add(SimTime t, double value)
{
    if (t < 0)
        panic("TimeSeries::add: negative time");
    std::size_t idx = static_cast<std::size_t>(t / width);
    if (idx >= buckets.size()) {
        std::size_t old = buckets.size();
        buckets.resize(idx + 1);
        for (std::size_t i = old; i < buckets.size(); ++i)
            buckets[i].start = static_cast<SimTime>(i) * width;
    }
    buckets[idx].count += 1;
    buckets[idx].sum += value;
    total_sum += value;
    total_count += 1;
}

} // namespace vcp
