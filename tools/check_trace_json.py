#!/usr/bin/env python3
"""Validate a vcpsim --trace-out file against the Chrome trace_event
JSON-object format that Perfetto loads.

Checks the envelope (displayTimeUnit + traceEvents), per-event schema
by phase type (M metadata, X complete, i instant, C counter), and the
semantic invariants the exporter promises: non-negative times, named
process/thread metadata for every (pid, tid) lane that carries events,
and at least one span event overall.  With --expect-phase (repeatable)
it additionally requires a pipeline-phase span (an X event with
cat "phase") of that name -- CI uses this to assert all seven
pipeline phases made it into the file.  With --expect-hop (repeatable)
it requires a per-link data-copy hop span (an X event with cat
"detail" named "hop:<link>") for that link, and that every hop span
fits inside some data-copy phase span on the same lane -- CI uses
this to assert routed copies attribute time to fabric links.  Every
counter track (C events of one pid and name) must have integer values
at non-decreasing ts, since a gauge track is a step function with one
event per level change.  With --expect-counter (repeatable) it
requires a counter track of that name -- CI uses this to assert the
standard gauge tracks are drawn.

Exit status: 0 valid, 1 invalid, 2 usage/IO error.  Stdlib only.
"""

import argparse
import json
import sys


def err(problems, msg):
    problems.append(msg)


def check_event(ev, i, problems):
    """Schema-check one traceEvents entry; returns its phase type."""
    if not isinstance(ev, dict):
        err(problems, f"event {i}: not an object")
        return None
    ph = ev.get("ph")
    if ph not in ("M", "X", "i", "C"):
        err(problems, f"event {i}: unexpected ph {ph!r}")
        return None
    if not isinstance(ev.get("name"), str) or not ev["name"]:
        err(problems, f"event {i}: missing or empty name")
    if not isinstance(ev.get("pid"), int):
        err(problems, f"event {i}: missing integer pid")

    if ph == "M":
        if ev["name"] not in ("process_name", "thread_name"):
            err(problems, f"event {i}: unknown metadata {ev['name']!r}")
        args = ev.get("args")
        if not isinstance(args, dict) or not args.get("name"):
            err(problems, f"event {i}: metadata without args.name")
        return ph

    if not isinstance(ev.get("ts"), (int, float)) or ev["ts"] < 0:
        err(problems, f"event {i}: missing or negative ts")
    if ph == "X":
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            err(problems, f"event {i}: X without non-negative dur")
        if not isinstance(ev.get("tid"), int):
            err(problems, f"event {i}: X without integer tid")
    elif ph == "i":
        if ev.get("s") not in ("t", "p", "g"):
            err(problems, f"event {i}: instant without scope s")
    elif ph == "C":
        args = ev.get("args")
        if not isinstance(args, dict) or not any(
                isinstance(v, (int, float)) for v in args.values()):
            err(problems, f"event {i}: counter without numeric args")
    return ph


def check_trace(doc, expect_phases, expect_hops=(), expect_counters=()):
    problems = []
    if not isinstance(doc, dict):
        return ["top level: not a JSON object"]
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        err(problems, "top level: missing displayTimeUnit")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return problems + ["top level: traceEvents is not an array"]

    counts = {"M": 0, "X": 0, "i": 0, "C": 0}
    named_lanes = set()  # (pid, tid) covered by thread_name metadata
    used_lanes = set()
    seen_phases = set()  # names of cat="phase" pipeline spans
    hop_spans = []       # (index, lane, name, ts, ts+dur)
    copy_phases = []     # (lane, ts, ts+dur) of data-copy spans
    counter_ts = {}      # (pid, name) -> ts of the track's last event
    for i, ev in enumerate(events):
        ph = check_event(ev, i, problems)
        if ph is None:
            continue
        counts[ph] += 1
        if ph == "M" and ev.get("name") == "thread_name":
            named_lanes.add((ev.get("pid"), ev.get("tid")))
        elif ph == "X":
            lane = (ev.get("pid"), ev.get("tid"))
            used_lanes.add(lane)
            if ev.get("cat") == "phase":
                seen_phases.add(ev.get("name"))
                if ev.get("name") == "data-copy":
                    copy_phases.append(
                        (lane, ev["ts"], ev["ts"] + ev["dur"]))
            elif (ev.get("cat") == "detail"
                  and str(ev.get("name", "")).startswith("hop:")):
                hop_spans.append((i, lane, ev["name"], ev["ts"],
                                  ev["ts"] + ev["dur"]))
        elif ph == "C":
            value = (ev.get("args") or {}).get("value")
            if not isinstance(value, int) or isinstance(value, bool):
                err(problems, f"event {i}: counter {ev.get('name')!r} "
                    "without an integer args.value")
            track = (ev.get("pid"), ev.get("name"))
            if ev.get("ts", 0) < counter_ts.get(track, 0):
                err(problems, f"event {i}: counter {ev.get('name')!r} "
                    f"goes back in time ({counter_ts[track]} -> "
                    f"{ev['ts']})")
            counter_ts[track] = max(counter_ts.get(track, 0),
                                    ev.get("ts", 0))

    if counts["X"] == 0:
        err(problems, "no complete (ph=X) span events at all")
    if counts["M"] == 0:
        err(problems, "no metadata events (lanes would be unnamed)")
    for lane in sorted(used_lanes - named_lanes):
        err(problems, f"lane pid={lane[0]} tid={lane[1]} has spans "
            "but no thread_name metadata")

    for phase in expect_phases:
        if phase not in seen_phases:
            err(problems, f"no pipeline-phase span named {phase!r}")

    # Per-hop spans: each must sit inside a data-copy phase span on
    # its own op lane (hop time is data-copy time, attributed to one
    # fabric link), and every requested link must appear.
    for i, lane, name, ts, end in hop_spans:
        if not any(lane == cl and ts >= cs and end <= ce
                   for cl, cs, ce in copy_phases):
            err(problems, f"event {i}: hop span {name!r} outside "
                "any data-copy phase on its lane")
    seen_hops = {name[len("hop:"):] for _, _, name, _, _ in hop_spans}
    for hop in expect_hops:
        if hop not in seen_hops:
            err(problems, f"no data-copy hop span for link {hop!r}")
    seen_counters = {name for _, name in counter_ts}
    for counter in expect_counters:
        if counter not in seen_counters:
            err(problems, f"no counter track named {counter!r}")
    return problems


def main():
    ap = argparse.ArgumentParser(
        description="Validate a vcpsim Perfetto trace JSON file.")
    ap.add_argument("trace", help="trace file written by --trace-out")
    ap.add_argument("--expect-phase", action="append", default=[],
                    metavar="NAME",
                    help="require a span whose category contains NAME "
                    "(repeatable)")
    ap.add_argument("--expect-hop", action="append", default=[],
                    metavar="LINK",
                    help="require a per-hop data-copy span for fabric "
                    "link LINK, e.g. net:core (repeatable)")
    ap.add_argument("--expect-counter", action="append", default=[],
                    metavar="NAME",
                    help="require a counter track named NAME, e.g. "
                    "sched.queue (repeatable)")
    opts = ap.parse_args()

    try:
        with open(opts.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        print(f"error: cannot read {opts.trace}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"invalid: {opts.trace} is not JSON: {e}")
        return 1

    problems = check_trace(doc, opts.expect_phase, opts.expect_hop,
                           opts.expect_counter)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return 1

    n = len(doc["traceEvents"])
    print(f"ok: {opts.trace} ({n} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
