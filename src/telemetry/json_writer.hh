/**
 * @file
 * Append-style text rendering shared by the three exporters: the
 * Perfetto trace, the snapshot stream (ND-JSON lines and the
 * Prometheus file) and the health report.  Each helper appends to a
 * caller-owned std::string, so an exporter renders a whole line or
 * document into one reused buffer with no temporaries.
 *
 * The output is byte-identical to the printf rendering these helpers
 * replaced: integers as "%lld"/"%llu", numbers as "%.6g" (non-finite
 * values as 0, to keep the stream parseable), names escaped as below.
 * Every helper is locale-independent.
 */

#ifndef VCP_TELEMETRY_JSON_WRITER_HH
#define VCP_TELEMETRY_JSON_WRITER_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace vcp {
namespace telemetry {

/**
 * Append @p s escaped for use inside a JSON string literal: quote,
 * backslash, \n, \t and \r get their short escapes, other bytes below
 * 0x20 become \u00xx, and every other byte passes through.
 */
inline void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0; // start of the bytes not yet appended
    for (std::size_t i = 0; i < s.size(); ++i) {
        auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                              kHex[c & 0xf]};
            out.append(u, sizeof(u));
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

/** Append the decimal form of integer @p v. */
template <typename T>
inline void
appendInt(std::string &out, T v)
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    char buf[24];
    auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

/**
 * Append @p v as printf("%.6g") would: compact, and stable across
 * platforms for the value ranges the exporters produce.  Integers
 * below 1e6 in magnitude (counts, whole microseconds) take an exact
 * integer path; the rest go through to_chars(general, 6), which the
 * standard defines as that same printf conversion.
 */
inline void
appendNum(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += '0';
        return;
    }
    if (v > -1e6 && v < 1e6) {
        auto i = static_cast<std::int64_t>(v);
        if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
            appendInt(out, i);
            return;
        }
    }
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::general, 6);
    out.append(buf, r.ptr);
}

/** Append @p s as a Prometheus metric name: [a-zA-Z0-9_:] only. */
inline void
appendPromName(std::string &out, std::string_view s)
{
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
}

} // namespace telemetry
} // namespace vcp

#endif // VCP_TELEMETRY_JSON_WRITER_HH
