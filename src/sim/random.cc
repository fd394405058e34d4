#include "sim/random.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace vcp {

Rng
Rng::fork()
{
    // Draw two words to derive a well-separated child seed.
    std::uint64_t a = engine();
    std::uint64_t b = engine();
    return Rng(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
}

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::uniformInt: lo (%lld) > hi (%lld)",
              static_cast<long long>(lo), static_cast<long long>(hi));
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    std::bernoulli_distribution d(p);
    return d(engine);
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        panic("Rng::exponential: nonpositive mean %f", mean);
    std::exponential_distribution<double> d(1.0 / mean);
    return d(engine);
}

double
Rng::normal(double mean, double stddev)
{
    std::normal_distribution<double> d(mean, stddev);
    return d(engine);
}

double
Rng::lognormalMeanCv(double mean, double cv)
{
    if (mean <= 0.0)
        panic("Rng::lognormalMeanCv: nonpositive mean %f", mean);
    if (cv <= 0.0) {
        // Degenerate: a constant.
        return mean;
    }
    double sigma2 = std::log(1.0 + cv * cv);
    double mu = std::log(mean) - 0.5 * sigma2;
    return lognormal(mu, std::sqrt(sigma2));
}

double
Rng::lognormal(double mu, double sigma)
{
    std::lognormal_distribution<double> d(mu, sigma);
    return d(engine);
}

ZipfSampler::ZipfSampler(std::int64_t n_, double s)
    : n(n_)
{
    if (n < 1)
        panic("ZipfSampler: n must be >= 1, got %lld",
              static_cast<long long>(n));
    cdf.resize(static_cast<std::size_t>(n));
    double acc = 0.0;
    for (std::int64_t r = 0; r < n; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf[static_cast<std::size_t>(r)] = acc;
    }
    for (auto &c : cdf)
        c /= acc;
    cdf.back() = 1.0;
}

std::int64_t
ZipfSampler::operator()(Rng &rng) const
{
    double u = rng.uniform(0.0, 1.0);
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::int64_t>(it - cdf.begin());
}

double
ZipfSampler::pmf(std::int64_t r) const
{
    if (r < 0 || r >= n)
        return 0.0;
    std::size_t i = static_cast<std::size_t>(r);
    double lo = (i == 0) ? 0.0 : cdf[i - 1];
    return cdf[i] - lo;
}

DiscreteSampler::DiscreteSampler(std::vector<double> weights)
{
    if (weights.empty())
        panic("DiscreteSampler: empty weight vector");
    double sum = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            panic("DiscreteSampler: negative weight %f", w);
        sum += w;
    }
    if (sum <= 0.0)
        panic("DiscreteSampler: weights sum to zero");
    probs.reserve(weights.size());
    cdf.reserve(weights.size());
    double acc = 0.0;
    for (double w : weights) {
        acc += w;
        probs.push_back(w / sum);
        cdf.push_back(acc / sum);
    }
    cdf.back() = 1.0;
}

std::size_t
DiscreteSampler::operator()(Rng &rng) const
{
    double u = rng.uniform(0.0, 1.0);
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::size_t>(it - cdf.begin());
}

double
DiscreteSampler::probability(std::size_t i) const
{
    return i < probs.size() ? probs[i] : 0.0;
}

} // namespace vcp
