/**
 * @file
 * Periodic telemetry snapshot emitter.
 *
 * Every interval the emitter polls the registry's probes, reads its
 * histograms, and writes one newline-delimited JSON object to the
 * metrics stream; alongside it rewrites a Prometheus text-exposition
 * file so an external scraper always sees the latest state.  Its tick
 * is the only event telemetry adds, and only once start() is called:
 * a run without metrics keeps a byte-identical event stream, and a
 * run with metrics adds one event per snapshot.
 *
 * Counters and gauges are read at the snapshot's time: a counter's
 * window is the change in its total, and a gauge's window mean the
 * change in its integral over window_us.
 *
 * Layout contract: the "shards" key is always the LAST key of a
 * snapshot object.  Everything before it is derived from
 * shard-independent state, so two runs of the same workload with
 * different --parallel-shards produce identical snapshot prefixes up
 * to `,"shards":` — the determinism tests rely on this.
 *
 * The emitter also keeps the per-window dominant-bottleneck history
 * (bounded: a win counter per resource plus a fixed-size recent ring)
 * that feeds the end-of-run health report.
 */

#ifndef VCP_TELEMETRY_SNAPSHOT_HH
#define VCP_TELEMETRY_SNAPSHOT_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "telemetry/health.hh"
#include "telemetry/telemetry.hh"

namespace vcp {

/** Writes ND-JSON + Prometheus snapshots of a TelemetryRegistry. */
class SnapshotEmitter
{
  public:
    /** Number of recent window-dominants kept for the health report. */
    static constexpr std::size_t kRecentWindows = 64;

    SnapshotEmitter(Simulator &sim, TelemetryRegistry &reg,
                    SimDuration interval = seconds(60));

    SnapshotEmitter(const SnapshotEmitter &) = delete;
    SnapshotEmitter &operator=(const SnapshotEmitter &) = delete;

    /**
     * Open @p path for ND-JSON output and derive the Prometheus
     * exposition path as `path + ".prom"`.  Returns false (with a
     * warning) when the file cannot be opened.
     */
    bool openNdjson(const std::string &path);

    /** Direct the ND-JSON stream at @p os instead of a file (tests). */
    void writeTo(std::ostream *os);

    /** Begin periodic emission (re-arms until stop()). */
    void start();

    void stop() { running = false; }

    /** Emit one snapshot at the current sim time. */
    void emitNow();

    /**
     * Emit a final partial-window snapshot (if anything happened
     * since the last one), append the health line, and rewrite the
     * Prometheus file one last time.
     * @return false (with a warning) when a line of the stream or the
     *         last Prometheus file did not reach its file.
     */
    bool finish(const HealthReport &hr);

    std::uint64_t snapshots() const { return seq; }
    SimDuration interval() const { return interval_; }

    /** Dominant subsystem of recent windows, oldest first. */
    std::vector<std::string> recentDominants() const;

    /** Windows won per subsystem over the run. */
    std::vector<std::pair<std::string, std::uint64_t>>
    windowWins() const
    {
        return wins;
    }

  private:
    void tick();
    /** Write `line` and a newline to the stream. */
    void emitLine();
    /** Render the current snapshot into `line`. */
    void renderSnapshot(const std::vector<ResourceUtilization> &u);
    void noteDominant(const std::vector<ResourceUtilization> &u);
    /** Rewrite the Prometheus file; false when that failed. */
    bool writeProm(const std::vector<ResourceUtilization> &u);

    Simulator &sim;
    TelemetryRegistry &reg;
    SimDuration interval_;
    bool running = false;
    std::uint64_t seq = 0;
    SimTime last_emit = 0;

    std::ostream *out = nullptr;
    std::unique_ptr<std::ofstream> owned_out;
    std::string prom_path;

    /** Reused render buffers: one stream line, one Prometheus file. */
    std::string line;
    std::string prom;

    /**
     * The `"name":` keys of one kind of registry series, escaped the
     * first time each series is rendered.  Series are append-only, so
     * a series keeps its index; each snapshot asks for every index in
     * order.
     */
    struct KeyCache
    {
        std::vector<std::string> keys;

        /** Key of series @p i, whose name is @p name. */
        const std::string &at(std::size_t i, std::string_view name);
    };
    KeyCache probe_keys, gauge_keys, hist_keys;

    /** One (name, count) per resource, plus "none" for idle windows. */
    std::vector<std::pair<std::string, std::uint64_t>> wins;
    /** Fixed-size ring of recent window dominants. */
    std::string recent[kRecentWindows];
    std::size_t recent_n = 0;
};

} // namespace vcp

#endif // VCP_TELEMETRY_SNAPSHOT_HH
