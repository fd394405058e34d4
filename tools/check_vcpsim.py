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

Exit status: 0 holds, 1 violated, 2 run error.  Stdlib only.
"""

import json
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


def main():
    checks = {"verdict": verdict, "mtbf": mtbf}
    if len(sys.argv) != 3 or sys.argv[1] not in checks:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="check-vcpsim-") as tmp:
        return checks[sys.argv[1]](os.path.abspath(sys.argv[2]), tmp)


if __name__ == "__main__":
    sys.exit(main())
