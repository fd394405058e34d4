#include "sim/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

#include "sim/parse_util.hh"

namespace vcp {

namespace {

std::atomic<int> level_flag{static_cast<int>(LogLevel::Info)};

/** Installed at startup (see setLogSink); empty = default stdio. */
LogSink log_sink;

bool
levelEnabled(LogLevel lvl)
{
    return level_flag.load(std::memory_order_relaxed) >=
        static_cast<int>(lvl);
}

/** Thread-local so each parallel-sweep worker stamps its own sim. */
thread_local const std::int64_t *log_clock = nullptr;

/** Shared warn/inform emitter: sink, or sim-tick prefix + tag. */
void
emitLine(std::FILE *to, LogLevel lvl, const char *component,
         const std::string &msg)
{
    if (log_sink) {
        log_sink(lvl, component, msg);
        return;
    }
    const char *level = lvl == LogLevel::Warn ? "warn" : "info";
    std::string prefix;
    if (log_clock) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "@%.6fs ",
                      static_cast<double>(*log_clock) / 1e6);
        prefix += buf;
    }
    if (component) {
        prefix += '[';
        prefix += component;
        prefix += "] ";
    }
    std::fprintf(to, "%s: %s%s\n", level, prefix.c_str(),
                 msg.c_str());
}

} // namespace

std::string
vformatMessage(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return fmt;
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatMessage(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    throw PanicError(msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatMessage(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    throw FatalError(msg);
}

void
warn(const char *fmt, ...)
{
    if (!levelEnabled(LogLevel::Warn))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatMessage(fmt, ap);
    va_end(ap);
    emitLine(stderr, LogLevel::Warn, nullptr, msg);
}

void
inform(const char *fmt, ...)
{
    if (!levelEnabled(LogLevel::Info))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatMessage(fmt, ap);
    va_end(ap);
    emitLine(stdout, LogLevel::Info, nullptr, msg);
}

void
warnTagged(const char *component, const char *fmt, ...)
{
    if (!levelEnabled(LogLevel::Warn))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatMessage(fmt, ap);
    va_end(ap);
    emitLine(stderr, LogLevel::Warn, component, msg);
}

void
informTagged(const char *component, const char *fmt, ...)
{
    if (!levelEnabled(LogLevel::Info))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatMessage(fmt, ap);
    va_end(ap);
    emitLine(stdout, LogLevel::Info, component, msg);
}

void
setLogClock(const std::int64_t *now_us)
{
    log_clock = now_us;
}

const std::int64_t *
logClock()
{
    return log_clock;
}

void
setLogLevel(LogLevel level)
{
    level_flag.store(static_cast<int>(level),
                     std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        level_flag.load(std::memory_order_relaxed));
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Silent:
        return "silent";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Info:
        return "info";
    }
    return "?";
}

bool
parseLogLevel(const char *s, LogLevel &out)
{
    if (!s)
        return false;
    if (std::strcmp(s, "silent") == 0 ||
        std::strcmp(s, "quiet") == 0) {
        out = LogLevel::Silent;
        return true;
    }
    if (std::strcmp(s, "warn") == 0) {
        out = LogLevel::Warn;
        return true;
    }
    if (std::strcmp(s, "info") == 0) {
        out = LogLevel::Info;
        return true;
    }
    long long v = 0;
    if (parseStrictInt(s, v) && v >= 0 && v <= 2) {
        out = static_cast<LogLevel>(v);
        return true;
    }
    return false;
}

void
setLogSink(LogSink sink)
{
    log_sink = std::move(sink);
}

void
setLogQuiet(bool quiet)
{
    setLogLevel(quiet ? LogLevel::Silent : LogLevel::Info);
}

bool
logQuiet()
{
    return logLevel() == LogLevel::Silent;
}

} // namespace vcp
