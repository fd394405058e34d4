/**
 * @file
 * Shared helpers for the experiment benches: banner printing and a
 * deploy-only cloud spec used by several sweeps.
 */

#ifndef VCP_BENCH_BENCH_UTIL_HH
#define VCP_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/parallel_sweep.hh"
#include "sim/parse_util.hh"
#include "stats/table.hh"
#include "workload/profiles.hh"

namespace vcp {

/** Print an experiment banner. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::printf("\n==== %s: %s ====\n\n", id.c_str(), title.c_str());
}

/** Print a table with a caption. */
inline void
printTable(const std::string &caption, const Table &t)
{
    std::printf("-- %s --\n%s\n", caption.c_str(),
                t.toText().c_str());
}

/**
 * Command-line options shared by the sweep benches.
 *
 * Every sweep bench runs its points through a ParallelSweepRunner;
 * results are bit-identical between --serial and parallel runs
 * because each point's seed is forked from (base seed, point index)
 * and rows are assembled in index order after the sweep.
 */
struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    int jobs = 0;
    /** Force single-threaded execution (same as --jobs 1). */
    bool serial = false;
    /**
     * Intra-run event-set shards per simulation point (the
     * sim/sharded_simulator.hh engine).  Orthogonal to --jobs, which
     * spreads whole points over threads; CloudSimulation points run
     * the shards in deterministic-merge mode on the point's own
     * worker, so results stay bit-identical for any value.
     */
    int shards = 1;
    /** When non-empty, also write the result table as CSV here. */
    std::string csv;
    /** Non-flag arguments, in order. */
    std::vector<std::string> positional;
};

/** Strict positive-integer option parsing, at most @p max (std::atoi
 *  would silently turn garbage into 0).  Anything else exits 2. */
inline int
parsePositiveOption(const std::string &flag, const char *value,
                    int max = INT32_MAX)
{
    int v = 0;
    if (!parseStrictPositiveInt(value, v) || v > max) {
        std::fprintf(stderr,
                     "%s expects a positive integer, at most %d, got "
                     "'%s'\n",
                     flag.c_str(), max, value);
        std::exit(2);
    }
    return v;
}

/** Strict hours option parsing: a positive number (std::atof would
 *  silently turn garbage — "4h", "" — into 0.0) whose run, drain
 *  included, ends inside the simulator's event horizon.  Anything
 *  else exits 2. */
inline double
parseHoursOption(const std::string &flag, const char *value)
{
    double v = 0;
    if (!parseStrictHours(value, CloudSimulation::kDrain, v) ||
        v == 0.0) {
        std::fprintf(stderr,
                     "%s expects a positive number of hours within the "
                     "simulator's event horizon, got '%s'\n",
                     flag.c_str(), value);
        std::exit(2);
    }
    return v;
}

/**
 * Parse --serial, --jobs N, --parallel-shards N, and --csv FILE;
 * anything else is kept as a positional argument for the bench to
 * interpret.
 */
inline SweepOptions
parseSweepOptions(int argc, char **argv)
{
    SweepOptions o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing argument after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--serial")
            o.serial = true;
        else if (arg == "--jobs")
            o.jobs = parsePositiveOption(arg, next());
        else if (arg == "--parallel-shards")
            o.shards = parsePositiveOption(arg, next(),
                                           ShardedSimulator::kMaxShards);
        else if (arg == "--csv")
            o.csv = next();
        else
            o.positional.push_back(arg);
    }
    return o;
}

/** Build the runner the options ask for. */
inline ParallelSweepRunner
makeSweepRunner(const SweepOptions &o)
{
    return ParallelSweepRunner(o.serial ? 1 : o.jobs);
}

/** Write the table as CSV when --csv was given. */
inline void
maybeWriteCsv(const SweepOptions &o, const Table &t)
{
    if (o.csv.empty())
        return;
    std::ofstream out(o.csv);
    if (!out)
        fatal("cannot write %s", o.csv.c_str());
    out << t.toCsv();
    std::printf("wrote %s\n", o.csv.c_str());
}

/**
 * A mid-size cloud used by the sweep benches: 16 hosts, 4
 * datastores, one single-VM template, deploy-only workload.
 * Individual benches override what they sweep.
 */
inline CloudSetupSpec
sweepCloud(bool linked)
{
    CloudSetupSpec s;
    s.name = linked ? "sweep-linked" : "sweep-full";
    s.infra.hosts = 16;
    s.infra.host.cores = 16;
    s.infra.host.memory = gib(192);
    s.infra.datastores = 4;
    s.infra.ds_capacity = gib(4096);
    s.infra.ds_copy_bandwidth = 200.0 * 1024 * 1024;

    // High CPU overcommit + a short lease keep the standing VM
    // population from hitting the *capacity* limit before the
    // control plane does — the sweeps probe the management plane,
    // not host sizing.
    s.infra.host.cpu_overcommit = 8.0;

    TenantConfig t;
    t.name = "org";
    t.vm_quota = 0;
    s.tenants.push_back(t);
    s.templates = {{"tmpl", gib(8), 0.5, 1, gib(1), 1, minutes(20)}};
    s.director.use_linked_clones = linked;
    s.director.pool.max_clones_per_base = 100000;

    s.workload.duration = hours(2);
    s.workload.arrival.rate_per_hour = 60.0;
    s.workload.arrival.cv = 1.0;
    s.workload.action_weights = {1, 0, 0, 0, 0, 0, 0};
    return s;
}

} // namespace vcp

#endif // VCP_BENCH_BENCH_UTIL_HH
