#!/usr/bin/env python3
"""vcpsim command-line contracts that the golden suite's byte
comparison does not state on its own.

    check_vcpsim.py verdict VCPSIM
        One run, one bottleneck verdict: on the golden chaos
        configuration with --metrics-out, stdout's "bottleneck: X (P
        plane)" line, the health report's "dominant bottleneck: X (P
        plane)" line and the metrics file's health line name the same
        resource and plane.

    check_vcpsim.py mtbf VCPSIM
        --mtbf H is shorthand for a crash chaos lane: --mtbf 1 and
        --chaos crash:mtbf=1h,duration=15m give byte-identical stdout,
        --stats and --dump-ops; --mtbf 0 changes nothing; and --mtbf
        before --chaos keeps both lanes.

    check_vcpsim.py latency VCPSIM
        One run, one set of per-op latency numbers: on cloud-b 2 h
        leaf-spine with --trace-out, --metrics-out, --stats and
        --dump-ops, each op type's cp.latency_us count equals its
        ops.csv rows and its span-table "total" count; every
        span-table phase row has a cp.phase_us row with the same
        count and the same mean up to the rounding of either print
        (0.01 ms in the table, %.6g in the CSV), and the CSV has no
        phase row the table lacks; the op counts add up to
        stdout's "completed + failed" and to the last snapshot's
        cp.op_us count.

    check_vcpsim.py bad-args VCPSIM T2_OPMIX SELFSERVICE RECONFIG STORM
        Out-of-range and malformed command-line values are usage
        errors, never a panic or a silently different run: hours and
        mtbf values past the simulator's event horizon, more shards
        than ShardedSimulator allows, and the examples' garbage or
        negative positional arguments each exit 2 and name their flag
        on stderr.  The other programs are bench_t2_opmix and the
        selfservice_cloud, reconfiguration_study and
        provisioning_storm examples.

    check_vcpsim.py scale VCPSIM [HOSTS ...]
        Per-op cost does not grow with the fleet: cloud-a --rate 4000
        --hours 12 at each host count (default 128 512 2048 8192),
        one vcpsim process per run so that each peak RSS is that
        size's, in three interleaved rounds.  Prints, per size, the
        run footer's events, the best events/s, wall seconds per
        simulated hour and peak RSS, and holds when the best events/s
        at the last size is at least a third of that at the first.
        At 12 h, building 8192 hosts takes under 5% of the footer's
        wall time.

Exit status: 0 holds, 1 violated, 2 run error.  Stdlib only.
"""

import collections
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests", "golden"))
from golden import CHAOS  # noqa: E402  (the golden chaos configuration)

BASE = ["cloud-a", "--hours", "2"]
DUMPS = ["--stats", "stats.csv", "--dump-ops", "ops.csv"]


def run(vcpsim, args, workdir):
    """Run vcpsim in @p workdir; return its stdout as text."""
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.run([vcpsim] + args, cwd=workdir,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"error: vcpsim {' '.join(args)} exited {proc.returncode}")
        sys.exit(2)
    return proc.stdout.decode()


def read(workdir, name):
    with open(os.path.join(workdir, name), "rb") as f:
        return f.read()


def verdict(vcpsim, tmp):
    out = run(vcpsim, BASE + ["--fabric", "leaf-spine", "--chaos", CHAOS,
                              "--metrics-out", "m.ndjson"], tmp)
    health = json.loads(read(tmp, "m.ndjson").splitlines()[-1])
    found = {"health line": (health["dominant"],
                             "control" if health["control_plane_limited"]
                             else "data")}
    for label, prefix in (("stdout", "bottleneck"),
                          ("health report", "dominant bottleneck")):
        m = re.search(rf"^{prefix}: (\S+) \((control|data) plane\)$", out,
                      re.M)
        if not m:
            print(f"FAIL: no '{prefix}:' line on stdout")
            return 1
        found[label] = m.groups()
    if len(set(found.values())) != 1:
        for label, (name, plane) in found.items():
            print(f"FAIL: {label}: {name} ({plane} plane)")
        return 1
    name, plane = found["stdout"]
    print(f"OK: one verdict, {name} ({plane} plane)")
    return 0


def mtbf(vcpsim, tmp):
    problems = []
    shorthand = os.path.join(tmp, "mtbf")
    lane = os.path.join(tmp, "chaos")
    a = run(vcpsim, BASE + ["--mtbf", "1"] + DUMPS, shorthand)
    b = run(vcpsim, BASE + ["--chaos", "crash:mtbf=1h,duration=15m"] + DUMPS,
            lane)
    if a != b:
        problems.append("--mtbf 1 and its crash lane differ on stdout")
    for name in ("stats.csv", "ops.csv"):
        if read(shorthand, name) != read(lane, name):
            problems.append(f"--mtbf 1 and its crash lane differ in {name}")
    if "  crash " not in a:
        problems.append("--mtbf 1 injected no crash")

    if run(vcpsim, BASE + ["--mtbf", "0"], tmp) != run(vcpsim, BASE, tmp):
        problems.append("--mtbf 0 changed the run")

    both = run(vcpsim, BASE + ["--mtbf", "1", "--chaos",
                               "disconnect:mtbf=20m,duration=4m"], tmp)
    for family in ("crash", "disconnect"):
        if not re.search(rf"^  {family} +[1-9]\d* injected", both, re.M):
            problems.append(f"--mtbf 1 --chaos disconnect:...: no "
                            f"{family} injected")

    for p in problems:
        print(f"FAIL: {p}")
    if not problems:
        print("OK: --mtbf is a crash-lane shorthand")
    return 1 if problems else 0


def span_table(out):
    """{(op, phase): (count, mean_ms)} of stdout's span-sourced table."""
    rows = {}
    section = out.split("per-phase latency percentiles (span-sourced):\n",
                        1)
    if len(section) != 2:
        return rows
    for line in section[1].splitlines()[2:]:
        cells = line.split()
        if len(cells) != 7:
            break
        rows[(cells[0], cells[1])] = (int(cells[2]), float(cells[3]))
    return rows


def rounding_ms(mean_us):
    """Largest gap between one mean printed by the span table (ms, two
    decimals) and by the stats CSV (usec, %.6g): half a step of each."""
    step_us = 10.0 ** (math.floor(math.log10(mean_us)) - 5) \
        if mean_us > 0 else 0.0
    return 0.005 + step_us / 2000.0 + 1e-9


def latency(vcpsim, tmp):
    out = run(vcpsim, ["cloud-b", "--hours", "2", "--fabric", "leaf-spine",
                       "--trace-out", "trace.json", "--metrics-out",
                       "m.ndjson"] + DUMPS, tmp)
    table = span_table(out)
    stats = {}
    for name, _kind, field, value in csv.reader(
            io.StringIO(read(tmp, "stats.csv").decode())):
        stats[(name, field)] = value
    op_rows = collections.Counter(
        row["op"] for row in csv.DictReader(
            io.StringIO(read(tmp, "ops.csv").decode())))
    problems = []
    if not table:
        problems.append("no span table on stdout")

    ops = sorted({op for op, _ in table} | set(op_rows) |
                 {name[len("cp.latency_us."):] for name, _ in stats
                  if name.startswith("cp.latency_us.")})
    total = 0
    for op in ops:
        cell = int(float(stats.get((f"cp.latency_us.{op}", "count"), 0)))
        total += cell
        span = table.get((op, "total"), (0, 0.0))[0]
        if not cell == op_rows[op] == span:
            problems.append(f"{op}: cp.latency_us count {cell}, ops.csv "
                            f"{op_rows[op]} rows, span total {span}")

    csv_phases = {name[len("cp.phase_us."):] for name, field in stats
                  if name.startswith("cp.phase_us.") and field == "count"}
    for (op, phase), (count, mean_ms) in sorted(table.items()):
        if phase == "total":
            continue
        key = f"{op}.{phase}"
        csv_phases.discard(key)
        if (f"cp.phase_us.{key}", "count") not in stats:
            problems.append(f"{key}: span row, no cp.phase_us row")
            continue
        n = int(float(stats[(f"cp.phase_us.{key}", "count")]))
        mean_us = float(stats[(f"cp.phase_us.{key}", "mean")])
        mean = mean_us / 1000.0
        if n != count or abs(mean - mean_ms) > rounding_ms(mean_us):
            problems.append(f"{key}: cp.phase_us {n} ops, mean "
                            f"{mean:.4f} ms; span table {count} ops, "
                            f"mean {mean_ms:.2f} ms")
    for key in sorted(csv_phases):
        problems.append(f"{key}: cp.phase_us row, no span row")

    m = re.search(r"^management ops: (\d+) completed, (\d+) failed", out,
                  re.M)
    finished = int(m.group(1)) + int(m.group(2)) if m else -1
    snaps = [json.loads(line) for line in
             read(tmp, "m.ndjson").decode().splitlines()]
    snaps = [s for s in snaps if s.get("type") == "snapshot"]
    op_us = snaps[-1]["hists"].get("cp.op_us", {}).get("count", -1) \
        if snaps else -1
    if not total == finished == op_us:
        problems.append(f"op counts add up to {total}; stdout "
                        f"completed + failed {finished}; last snapshot "
                        f"cp.op_us {op_us}")

    for p in problems:
        print(f"FAIL: {p}")
    if not problems:
        print(f"OK: {total} ops, {len(table)} span rows agree with the "
              f"stats CSV, ops.csv and cp.op_us")
    return 1 if problems else 0


def bad_args(vcpsim, tmp, t2_opmix, selfservice, reconfig, storm):
    cases = [
        (vcpsim, ["cloud-a", "--hours", "1e12"], "--hours"),
        (vcpsim, ["cloud-a", "--hours", "1", "--mtbf", "1e12"], "--mtbf"),
        (vcpsim, ["cloud-a", "--hours", "1", "--mtbf", "1e6"], "--mtbf"),
        (vcpsim, ["cloud-a", "--hours", "1", "--chaos",
                  "crash:mtbf=1e12h,duration=5m"], "--chaos"),
        (vcpsim, ["cloud-a", "--hours", "1", "--parallel-shards", "200"],
         "--parallel-shards"),
        (vcpsim, ["sweep", "cloud-a", "--hours", "1e12"], "--hours"),
        (vcpsim, ["sweep", "cloud-a", "--parallel-shards", "200"],
         "--parallel-shards"),
        (t2_opmix, ["1e12"], "hours"),
        (selfservice, ["-5"], "hours"),
        (selfservice, ["abc"], "hours"),
        (reconfig, ["-2"], "hours"),
        (reconfig, ["abc"], "hours"),
        (storm, ["abc"], "vapps"),
        (storm, ["-3"], "vapps"),
    ]
    problems = []
    for program, args, flag in cases:
        name = f"{os.path.basename(program)} {' '.join(args)}"
        try:
            proc = subprocess.run([program] + args, cwd=tmp,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120)
        except subprocess.TimeoutExpired:
            problems.append(f"{name}: still running after 120 s")
            continue
        err = proc.stderr.decode(errors="replace").strip()
        if proc.returncode != 2 or flag not in err:
            problems.append(f"{name}: exit {proc.returncode}, want 2 "
                            f"naming {flag}; stderr: {err[-200:]!r}")
    for p in problems:
        print(f"FAIL: {p}")
    if not problems:
        print(f"OK: {len(cases)} bad arguments exit 2 naming their flag")
    return 1 if problems else 0


SCALE_HOURS = 12
SCALE_RUN = ["cloud-a", "--rate", "4000", "--hours", str(SCALE_HOURS)]
SCALE_HOSTS = [128, 512, 2048, 8192]
SCALE_ROUNDS = 3
FOOTER = re.compile(r"info: run: (\d+) events, ([\d.]+) s wall, "
                    r"(\d+) events/s, peak RSS ([\d.]+) MB")


def footer(vcpsim, args, workdir):
    """Run vcpsim; return (events, wall s, events/s, peak RSS MB)
    from its run footer.  A shell forks vcpsim, because the footer's
    peak RSS includes the peak of the process that execs vcpsim, and
    this interpreter's is larger than a small run's."""
    proc = subprocess.run(["/bin/sh", "-c", '"$@"; exit $?', "sh", vcpsim]
                          + args, cwd=workdir, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    m = FOOTER.search(proc.stderr.decode(errors="replace"))
    if proc.returncode != 0 or not m:
        print(f"error: vcpsim {' '.join(args)} exited {proc.returncode} "
              f"without a run footer")
        sys.exit(2)
    return (int(m[1]), float(m[2]), int(m[3]), float(m[4]))


def scale(vcpsim, tmp, *hosts):
    sizes = [int(h) for h in hosts] or SCALE_HOSTS
    best = {}
    for _ in range(SCALE_ROUNDS):
        for h in sizes:
            row = footer(vcpsim, SCALE_RUN + ["--hosts", str(h)], tmp)
            if h not in best or row[2] > best[h][2]:
                best[h] = row
    print(f"cloud-a --rate 4000 --hours {SCALE_HOURS}, best of "
          f"{SCALE_ROUNDS} interleaved runs per size")
    print(f"{'hosts':>6} {'events':>9} {'events/s':>10} "
          f"{'wall s/sim h':>12} {'peak RSS MB':>11}")
    for h in sizes:
        events, wall, eps, rss = best[h]
        print(f"{h:>6} {events:>9} {eps:>10} {wall / SCALE_HOURS:>12.4f} "
              f"{rss:>11.1f}")
    ratio = best[sizes[-1]][2] / best[sizes[0]][2]
    verdict = "OK" if ratio >= 1 / 3 else "FAIL"
    print(f"{verdict}: events/s at {sizes[-1]} hosts is {ratio:.2f}x "
          f"events/s at {sizes[0]} hosts (floor 0.33)")
    return 0 if verdict == "OK" else 1


def main():
    checks = {"verdict": verdict, "mtbf": mtbf, "latency": latency,
              "bad-args": bad_args, "scale": scale}
    # bad-args takes four more programs after vcpsim; scale, any
    # number of host counts.
    name = sys.argv[1] if len(sys.argv) > 1 else None
    if name == "bad-args":
        ok = len(sys.argv) == 7
    elif name == "scale":
        ok = len(sys.argv) >= 3
    else:
        ok = len(sys.argv) == 3
    if name not in checks or not ok:
        print(__doc__)
        return 2
    extra = sys.argv[3:]
    if name != "scale":
        extra = [os.path.abspath(p) for p in extra]
    with tempfile.TemporaryDirectory(prefix="check-vcpsim-") as tmp:
        return checks[name](os.path.abspath(sys.argv[2]), tmp, *extra)


if __name__ == "__main__":
    sys.exit(main())
