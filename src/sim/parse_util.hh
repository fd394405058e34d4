/**
 * @file
 * Strict numeric parsing.
 *
 * std::atoi/atof silently turn garbage ("four", "", "8x") into 0,
 * and a bare strtoll accepts trailing junk — both have bitten real
 * call sites (trace CSV fields landing on tenant 0, `--hours abc`
 * running a zero-hour simulation without a word).  Every textual
 * number in the tree goes through these helpers instead: the whole
 * string must be one base-10 number or the parse is rejected.
 */

#ifndef VCP_SIM_PARSE_UTIL_HH
#define VCP_SIM_PARSE_UTIL_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "sim/types.hh"

namespace vcp {

/**
 * Parse @p s as a complete base-10 integer.
 * @return true and set @p out iff the entire string is one integer
 *         (no empty input, no trailing junk, no overflow).
 */
inline bool
parseStrictInt(const char *s, long long &out)
{
    if (!s || *s == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

/**
 * Parse @p s as a strictly positive integer (>= 1).
 * @return true and set @p out iff the entire string is one positive
 *         integer.
 */
inline bool
parseStrictPositiveInt(const char *s, int &out)
{
    long long v = 0;
    if (!parseStrictInt(s, v) || v < 1 || v > INT32_MAX)
        return false;
    out = static_cast<int>(v);
    return true;
}

/**
 * Parse @p s as a complete base-10 unsigned 64-bit integer.  Unlike
 * a bare strtoull, a leading '-' is rejected instead of wrapping.
 * @return true and set @p out iff the entire string is one unsigned
 *         integer.
 */
inline bool
parseStrictU64(const char *s, std::uint64_t &out)
{
    if (!s || *s == '\0')
        return false;
    const char *p = s;
    while (*p == ' ' || *p == '\t')
        ++p;
    if (*p == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE)
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

/**
 * Parse @p s as one complete finite floating-point number.  Rejects
 * empty input, trailing junk, overflow, and non-finite spellings
 * ("inf", "nan").
 */
inline bool
parseStrictDouble(const char *s, double &out)
{
    if (!s || *s == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v)) {
        return false;
    }
    out = v;
    return true;
}

/**
 * Parse @p s as a strictly positive finite floating-point number
 * (> 0).
 */
inline bool
parseStrictPositiveDouble(const char *s, double &out)
{
    double v = 0.0;
    if (!parseStrictDouble(s, v) || v <= 0.0)
        return false;
    out = v;
    return true;
}

/**
 * Parse @p s as a non-negative finite floating-point number (>= 0).
 */
inline bool
parseStrictNonNegativeDouble(const char *s, double &out)
{
    double v = 0.0;
    if (!parseStrictDouble(s, v) || v < 0.0)
        return false;
    out = v;
    return true;
}

/**
 * Parse @p s as a non-negative number of hours that a run can last:
 * its microseconds plus @p extra (a drain, say) must not pass
 * kMaxEventTime.  Check before hours() converts the value: past
 * that, runs panic in the event queue, and past INT64_MAX the
 * conversion itself is undefined.
 */
inline bool
parseStrictHours(const char *s, SimDuration extra, double &out)
{
    double v = 0.0;
    if (!parseStrictNonNegativeDouble(s, v) ||
        v * 3600e6 > static_cast<double>(kMaxEventTime - extra)) {
        return false;
    }
    out = v;
    return true;
}

} // namespace vcp

#endif // VCP_SIM_PARSE_UTIL_HH
