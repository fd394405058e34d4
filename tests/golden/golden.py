#!/usr/bin/env python3
"""Behaviour oracle: vcpsim output compared byte for byte.

Each case runs vcpsim (or golden_opstorm, or one of the paper-table
benches) in its own work directory and compares what the run writes
with the files recorded next to this script:

    <case>.stdout     the program's stdout
    <case>.stats.csv  the --stats CSV
    <case>.ops.csv    the --dump-ops CSV
    digests.sha256    SHA-256 of the larger outputs: the traced runs'
                      Perfetto trace and metrics exports, and the
                      op-storm's finished-task stream

Output names are fixed and relative, because stdout prints the paths
of the trace and metrics files.

Check one case (this is what the ctest entries labelled "golden" run):

    tests/golden/golden.py check cloud-a --vcpsim build/tools/vcpsim

A mismatch prints the first moved row of every file that moved.

Re-record cases after an intended behaviour change, listing every row
that moved (all cases unless --case is given):

    tests/golden/golden.py rebaseline --vcpsim build/tools/vcpsim \
        --opstorm build/tests/golden/golden_opstorm \
        --t2-opmix build/bench/bench_t2_opmix \
        --f4-breakdown build/bench/bench_f4_breakdown

Exit status: 0 identical (or re-recorded), 1 moved, 2 usage/run error.
Stdlib only.
"""

import argparse
import difflib
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.sha256")

CHAOS = ("crash:mtbf=30m,duration=5m;disconnect:mtbf=20m,duration=4m;"
         "db-stall:mtbf=40m,duration=90s;link-down:mtbf=30m,duration=3m")

# A case's outputs are (source, recorded as) pairs: the source is
# "stdout" or a file the run writes; it is recorded as <case>.<suffix>,
# or as a SHA-256 digest in digests.sha256 when the suffix is None.
PLAIN = [("stdout", "stdout"), ("stats.csv", "stats.csv"),
         ("ops.csv", "ops.csv")]


def plain(*args):
    """A vcpsim case recording stdout, the stats CSV and the op trace."""
    return ("vcpsim", list(args) + ["--stats", "stats.csv",
                                    "--dump-ops", "ops.csv"], PLAIN)


# name -> (program, arguments, outputs)
CASES = {
    "cloud-a": plain("cloud-a", "--hours", "2"),
    "cloud-b": plain("cloud-b", "--hours", "2"),
    "cloud-b-full": plain("cloud-b", "--hours", "2", "--full-clones"),
    "cloud-a-full-leafspine": plain("cloud-a", "--hours", "2",
                                    "--full-clones", "--fabric",
                                    "leaf-spine"),
    "cloud-a-shards4": plain("cloud-a", "--hours", "2",
                             "--parallel-shards", "4"),
    "cloud-a-chaos": plain("cloud-a", "--hours", "2", "--fabric",
                           "leaf-spine", "--chaos", CHAOS),
    # The chaos family CHAOS leaves out: an up spine switch goes down
    # (9 faults, 9 recoveries in this run).
    "cloud-a-switchdown": plain("cloud-a", "--hours", "2", "--fabric",
                                "leaf-spine", "--full-clones", "--chaos",
                                "switch-down:mtbf=10m,duration=3m"),
    "cloud-a-rate2000": plain("cloud-a", "--hours", "2", "--rate",
                              "2000"),
    "cloud-a-mtbf1": plain("cloud-a", "--hours", "2", "--mtbf", "1"),
    # Most of the 2048 hosts tie at load 0, so placement's host-id
    # tie-break decides where VMs land.
    "cloud-a-hosts2048": plain("cloud-a", "--hours", "2", "--rate",
                               "1000", "--hosts", "2048"),
    "traced": ("vcpsim",
               ["cloud-a", "--hours", "1", "--full-clones", "--fabric",
                "leaf-spine", "--trace-out", "trace.json",
                "--metrics-out", "metrics.ndjson", "--metrics-interval",
                "600"],
               [("stdout", "stdout"), ("trace.json", None),
                ("metrics.ndjson", None), ("metrics.ndjson.prom", None)]),
    # A ring too small for the run: the trace keeps the newest 1024
    # of 3973 records, so the export starts mid-operation and each
    # gauge track at its first surviving change; the metrics stream
    # has 150 snapshot lines.
    "traced-wrap": ("vcpsim",
                    ["cloud-b", "--hours", "2", "--fabric", "leaf-spine",
                     "--trace-out", "trace.json", "--trace-capacity",
                     "1024", "--metrics-out", "metrics.ndjson"],
                    [("stdout", "stdout"), ("trace.json", None),
                     ("metrics.ndjson", None),
                     ("metrics.ndjson.prom", None)]),
    "opstorm": ("opstorm", ["17"], [("stdout", None)]),
    # The paper's op-mix table (T2, 24 h per cloud) and phase-breakdown
    # figure (F4), as the benches print them.
    "t2-opmix": ("t2_opmix", [], [("stdout", "stdout")]),
    "f4-breakdown": ("f4_breakdown", [], [("stdout", "stdout")]),
}


def run_case(name, programs, workdir):
    """Run one case in @p workdir; return {recorded key: bytes/digest}."""
    program, args, outputs = CASES[name]
    if not programs.get(program):
        raise RuntimeError(f"{name}: needs --{program.replace('_', '-')}")
    os.makedirs(workdir, exist_ok=True)
    for f in os.listdir(workdir):
        os.remove(os.path.join(workdir, f))
    proc = subprocess.run([os.path.abspath(programs[program])] + args,
                          cwd=workdir, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: {program} exited {proc.returncode}")
    with open(os.path.join(workdir, "stdout"), "wb") as f:
        f.write(proc.stdout)
    out = {}
    for source, suffix in outputs:
        if source == "stdout":
            data = proc.stdout
        else:
            with open(os.path.join(workdir, source), "rb") as f:
                data = f.read()
        if suffix is None:
            out[f"{name}/{source}"] = hashlib.sha256(data).hexdigest()
        else:
            out[f"{name}.{suffix}"] = data
    return out


def read_digests():
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            for line in f:
                if line.strip():
                    digest, key = line.split()
                    digests[key] = digest
    return digests


def write_digests(digests):
    with open(DIGESTS, "w") as f:
        for key in sorted(digests):
            f.write(f"{digests[key]}  {key}\n")


def recorded(key, digests):
    """Recorded content of an output key (None if never recorded)."""
    if "/" in key:
        return digests.get(key)
    path = os.path.join(HERE, key)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def lines(data):
    return data.decode("utf-8", "replace").splitlines()


def first_moved_row(old, new):
    """Describe the first line where @p old and @p new differ."""
    a, b = lines(old), lines(new)
    for i in range(max(len(a), len(b))):
        ra = a[i] if i < len(a) else "<missing>"
        rb = b[i] if i < len(b) else "<missing>"
        if ra != rb:
            return (f"  first moved row {i + 1} "
                    f"(recorded {len(a)} rows, now {len(b)})\n"
                    f"    recorded: {ra}\n    now:      {rb}")
    return "  rows equal; bytes differ (line endings or trailing data)"


def moved_rows(old, new, limit):
    """Every moved row as unified-diff lines, at most @p limit."""
    diff = [d for d in difflib.unified_diff(lines(old), lines(new),
                                            "recorded", "now", n=0,
                                            lineterm="")
            if not d.startswith(("---", "+++"))]
    shown = diff[:limit]
    if len(diff) > limit:
        shown.append(f"... {len(diff) - limit} more diff lines")
    return "\n".join("    " + d for d in shown)


def check(args):
    digests = read_digests()
    workdir = args.workdir or tempfile.mkdtemp(prefix="golden-")
    try:
        got = run_case(args.case, programs(args), workdir)
    except (OSError, RuntimeError) as e:
        print(f"golden: {e}", file=sys.stderr)
        return 2
    moved = 0
    for key, data in got.items():
        want = recorded(key, digests)
        if want is None:
            print(f"NOT RECORDED {key}")
            moved += 1
        elif want != data:
            moved += 1
            if isinstance(data, str):
                print(f"MOVED {key}: sha256 {want} -> {data}")
            else:
                print(f"MOVED {key}\n{first_moved_row(want, data)}")
    if moved:
        print(f"golden {args.case}: {moved} of {len(got)} outputs moved "
              f"(outputs kept in {workdir})")
        return 1
    print(f"golden {args.case}: {len(got)} outputs identical")
    if not args.workdir:
        shutil.rmtree(workdir)
    return 0


def rebaseline(args):
    digests = read_digests()
    names = args.case or list(CASES)
    any_moved = False
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for name in names:
            try:
                got = run_case(name, programs(args),
                               os.path.join(tmp, name))
            except (OSError, RuntimeError) as e:
                print(f"golden: {e}", file=sys.stderr)
                write_digests(digests)  # keep the cases already done
                return 2
            for key, data in got.items():
                want = recorded(key, digests)
                if want == data:
                    continue
                any_moved = True
                if want is None:
                    print(f"NEW {key}")
                elif isinstance(data, str):
                    print(f"MOVED {key}: sha256 {want} -> {data}")
                else:
                    print(f"MOVED {key}\n"
                          f"{moved_rows(want, data, args.limit)}")
                if isinstance(data, str):
                    digests[key] = data
                else:
                    with open(os.path.join(HERE, key), "wb") as f:
                        f.write(data)
    write_digests(digests)
    if not any_moved:
        print("golden: no rows moved")
    return 0


PROGRAMS = ("vcpsim", "opstorm", "t2_opmix", "f4_breakdown")


def programs(args):
    return {name: getattr(args, name) for name in PROGRAMS}


def add_program_args(parser):
    for name in PROGRAMS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("check", help="compare one case")
    c.add_argument("case", choices=sorted(CASES))
    add_program_args(c)
    c.add_argument("--workdir",
                   help="run here and keep the outputs (default: a "
                        "temporary directory, removed on success)")
    r = sub.add_parser("rebaseline", help="re-record and list moved rows")
    add_program_args(r)
    r.add_argument("--case", action="append", choices=sorted(CASES),
                   help="re-record only this case (repeatable)")
    r.add_argument("--limit", type=int, default=40,
                   help="moved rows listed per file (default 40)")
    args = p.parse_args()
    return check(args) if args.cmd == "check" else rebaseline(args)


if __name__ == "__main__":
    sys.exit(main())
