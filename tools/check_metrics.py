#!/usr/bin/env python3
"""Validate a vcpsim --metrics-out ND-JSON stream (and optionally its
Prometheus text-exposition sibling).

Checks the stream shape the snapshot emitter promises: every line is
one JSON object of type "snapshot" or "health"; snapshots carry
strictly increasing seq and non-decreasing ts_us; exactly one health
line, and it is the last line, with a dominant that is a subsystem
of the highest utilization ("none" when every subsystem is idle).
Per snapshot it checks the section envelope
(counters/gauges/utils/hists/shards), non-negative windowed
counts and rates, window totals never exceeding all-time totals,
utilizations in [0, 1.5] (transient over-unity is tolerated while a
window drains), and quantile sanity on every histogram with samples:
min <= p50 <= p95 <= p99 <= max.  The gauge contract: a model gauge
has exactly "last" and "mean" (the level's time-weighted mean over
the window), a shard gauge exactly "last", and every value is finite
and >= 0.  Every counter's window must be
exactly the change in its total since the previous snapshot (from 0
in the first one that carries it), and a counter's rate_per_s must be
window / (window_us / 1e6) to the 6 significant digits the emitter
prints.  With --expect-series (repeatable)
it requires a series of that name in any section of some snapshot --
CI uses this to assert the scheduler, lock-manager, database,
host-agent, fabric, and shard instruments all made it into the file.
With --prom FILE it also checks the exposition file parses: TYPE
lines, one float sample per series line, at least one vcp_ counter
and one summary quantile, vcp_<name> and vcp_<name>_mean for every
model gauge, vcp_<name> for every shard gauge, and no _ewma series.

Exit status: 0 valid, 1 invalid, 2 usage/IO error.  Stdlib only.
"""

import argparse
import json
import math
import sys


def err(problems, msg):
    problems.append(msg)


def check_number(problems, where, v, lo=None):
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        err(problems, f"{where}: not a number ({v!r})")
        return False
    if not math.isfinite(v):
        err(problems, f"{where}: not finite ({v!r})")
        return False
    if lo is not None and v < lo:
        err(problems, f"{where}: {v} below {lo}")
        return False
    return True


def check_counter_entry(problems, where, entry):
    if not isinstance(entry, dict):
        err(problems, f"{where}: not an object")
        return
    for key in ("total", "window"):
        if key in entry:
            check_number(problems, f"{where}.{key}", entry.get(key), 0)
    if "rate_per_s" in entry:
        check_number(problems, f"{where}.rate_per_s",
                     entry["rate_per_s"], 0)
    total, window = entry.get("total"), entry.get("window")
    if (isinstance(total, (int, float)) and
            isinstance(window, (int, float)) and window > total):
        err(problems, f"{where}: window {window} exceeds total {total}")


def check_counter_window(problems, where, entry, prev_total, window_us,
                         with_rate):
    """The window is the total's change; the rate is window / seconds."""
    total, window = entry.get("total"), entry.get("window")
    if not isinstance(total, int) or not isinstance(window, int):
        return
    if window != total - prev_total:
        err(problems, f"{where}: window {window} is not the total's "
                      f"change {total} - {prev_total}")
    rate = entry.get("rate_per_s")
    if not with_rate or not isinstance(rate, (int, float)) or \
            not isinstance(window_us, int):
        return
    want = window / (window_us / 1e6) if window_us > 0 else 0.0
    if rate != float(f"{want:.6g}"):
        err(problems, f"{where}: rate_per_s {rate} is not window / "
                      f"seconds = {want:.6g}")


def check_gauge_entry(problems, where, entry, keys):
    """A gauge has exactly @p keys, each a finite number >= 0."""
    if not isinstance(entry, dict):
        err(problems, f"{where}: not an object")
        return
    if sorted(entry) != sorted(keys):
        err(problems, f"{where}: keys {sorted(entry)}, want "
                      f"{sorted(keys)}")
    for k, v in entry.items():
        check_number(problems, f"{where}.{k}", v, 0)


def prom_name(name):
    """@p name as the emitter writes it into a Prometheus series."""
    return "vcp_" + "".join(
        c if c.isascii() and (c.isalnum() or c in "_:") else "_"
        for c in name)


def check_hist_entry(problems, where, entry):
    if not isinstance(entry, dict):
        err(problems, f"{where}: not an object")
        return
    for key in ("count", "sum_us", "min_us", "p50_us", "p95_us",
                "p99_us", "max_us"):
        if not check_number(problems, f"{where}.{key}",
                            entry.get(key), 0):
            return
    if entry["count"] > 0:
        q = [entry[k]
             for k in ("min_us", "p50_us", "p95_us", "p99_us",
                       "max_us")]
        if q != sorted(q):
            err(problems, f"{where}: quantiles not monotone {q}")


def check_snapshot(problems, i, obj, seen_series, prev_totals, gauges):
    """Check one snapshot line; @p prev_totals maps (section, name) to
    the counter totals of the previous snapshot and is updated, and
    @p gauges maps each gauge name seen to its section."""
    where = f"line {i}"
    for key in ("seq", "ts_us", "window_us"):
        check_number(problems, f"{where}.{key}", obj.get(key), 0)
    totals = {}
    for section in ("counters", "gauges", "utils", "hists", "shards"):
        sec = obj.get(section)
        if not isinstance(sec, dict):
            err(problems, f"{where}: missing section {section!r}")
            continue
        seen_series.update(sec.keys())
        for name, entry in sec.items():
            w = f"{where} {section}.{name}"
            if section in ("counters",):
                check_counter_entry(problems, w, entry)
            elif section == "utils":
                if check_number(problems, w, entry, 0) and entry > 1.5:
                    err(problems, f"{w}: utilization {entry} > 1.5")
            elif section == "hists":
                check_hist_entry(problems, w, entry)
            elif section == "gauges":
                check_gauge_entry(problems, w, entry, ("last", "mean"))
                gauges[name] = section
            else:  # shards: counter-probe or gauge shape
                if not isinstance(entry, dict):
                    err(problems, f"{w}: not an object")
                elif "total" in entry:
                    check_counter_entry(problems, w, entry)
                else:
                    check_gauge_entry(problems, w, entry, ("last",))
                    gauges[name] = section
            if section in ("counters", "shards") and \
                    isinstance(entry, dict) and "total" in entry:
                key = (section, name)
                check_counter_window(problems, w, entry,
                                     prev_totals.get(key, 0),
                                     obj.get("window_us"),
                                     section == "counters")
                totals[key] = entry.get("total")
    prev_totals.clear()
    prev_totals.update(totals)


def check_health(problems, i, obj):
    where = f"line {i}"
    subs = obj.get("subsystems")
    if not isinstance(subs, dict) or not subs:
        err(problems, f"{where}: health without subsystems")
        return
    valid = {name: util for name, util in subs.items()
             if check_number(problems, f"{where} subsystems.{name}",
                             util, 0)}
    top = max(valid.values(), default=0)
    dominant = obj.get("dominant")
    if top <= 0:
        if dominant != "none":
            err(problems, f"{where}: dominant {dominant!r} but every "
                          f"subsystem is idle (want 'none')")
    elif valid.get(dominant) != top:
        err(problems, f"{where}: dominant {dominant!r} is not a "
                      f"subsystem of the highest utilization {top}")
    if not isinstance(obj.get("control_plane_limited"), bool):
        err(problems, f"{where}: control_plane_limited not bool")
    for key in ("top_hosts", "top_links"):
        ents = obj.get(key)
        if not isinstance(ents, list):
            err(problems, f"{where}: {key} not a list")
            continue
        for ent in ents:
            if not isinstance(ent, dict) or "name" not in ent:
                err(problems, f"{where}: malformed {key} entry {ent!r}")
            else:
                check_number(problems, f"{where} {key}.{ent['name']}",
                             ent.get("util"), 0)


def check_ndjson(path, expect_series, problems):
    """Check the stream; return {gauge name: section} of its gauges."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    gauges = {}
    if not lines:
        err(problems, "empty metrics file")
        return gauges

    seen_series = set()
    prev_totals = {}
    prev_seq, prev_ts = -1, -1
    health_at = None
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            err(problems, f"line {i}: not valid JSON ({e})")
            continue
        kind = obj.get("type")
        if kind == "snapshot":
            check_snapshot(problems, i, obj, seen_series, prev_totals,
                           gauges)
            seq, ts = obj.get("seq"), obj.get("ts_us")
            if isinstance(seq, int):
                if seq <= prev_seq:
                    err(problems,
                        f"line {i}: seq {seq} not above {prev_seq}")
                prev_seq = seq
            if isinstance(ts, (int, float)):
                if ts < prev_ts:
                    err(problems,
                        f"line {i}: ts_us {ts} below {prev_ts}")
                prev_ts = ts
        elif kind == "health":
            if health_at is not None:
                err(problems, f"line {i}: second health line")
            health_at = i
            check_health(problems, i, obj)
        else:
            err(problems, f"line {i}: unexpected type {kind!r}")

    if prev_seq < 0:
        err(problems, "no snapshot lines")
    if health_at is None:
        err(problems, "no health line")
    elif health_at != len(lines) - 1:
        err(problems, f"health line at {health_at}, not last")

    for name in expect_series:
        if name not in seen_series:
            err(problems, f"expected series {name!r} never appeared")
    return gauges


def check_prom(path, problems, gauges):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    saw_counter = saw_quantile = False
    series_seen = set()
    for i, line in enumerate(lines):
        if not line or line.startswith("#"):
            if line.startswith("# TYPE ") and \
                    line.rstrip().endswith(" counter"):
                saw_counter = True
            continue
        fields = line.rsplit(" ", 1)
        if len(fields) != 2:
            err(problems, f"prom line {i}: not 'series value'")
            continue
        series, value = fields
        series_seen.add(series)
        if not series.startswith("vcp_"):
            err(problems, f"prom line {i}: series lacks vcp_ prefix")
        if series.endswith("_ewma"):
            err(problems, f"prom line {i}: {series} is an EWMA; gauges "
                          f"export _mean")
        if 'quantile="' in series:
            saw_quantile = True
        try:
            float(value)
        except ValueError:
            err(problems, f"prom line {i}: non-float value {value!r}")
    if not saw_counter:
        err(problems, "prom: no counter series")
    if not saw_quantile:
        err(problems, "prom: no summary quantile series")
    for name, section in gauges.items():
        want = [prom_name(name)]
        if section == "gauges":
            want.append(prom_name(name) + "_mean")
        for series in want:
            if series not in series_seen:
                err(problems, f"prom: gauge {name!r} lacks {series}")


def main():
    ap = argparse.ArgumentParser(
        description="Validate a vcpsim --metrics-out stream")
    ap.add_argument("metrics", help="ND-JSON metrics file")
    ap.add_argument("--expect-series", action="append", default=[],
                    metavar="NAME",
                    help="require series NAME in some snapshot "
                         "(repeatable)")
    ap.add_argument("--prom", metavar="FILE",
                    help="also validate this Prometheus exposition "
                         "file")
    args = ap.parse_args()

    problems = []
    gauges = check_ndjson(args.metrics, args.expect_series, problems)
    if args.prom:
        check_prom(args.prom, problems, gauges)

    if problems:
        for p in problems[:50]:
            print(f"INVALID: {p}")
        if len(problems) > 50:
            print(f"... and {len(problems) - 50} more")
        sys.exit(1)
    print(f"OK: {args.metrics} valid"
          + (f" (+ {args.prom})" if args.prom else ""))


if __name__ == "__main__":
    main()
