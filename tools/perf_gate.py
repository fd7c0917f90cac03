#!/usr/bin/env python3
"""Regression gate for the BENCH_*.json documents.

Usage: perf_gate.py BASELINE.json CURRENT.json [--best-of=EXTRA.json]

Every document holds rows {name, metric, unit, value}, keyed by
(name, metric) (bench/bench_json.h writes them). The committed baseline
also holds a "gates" block that names the metrics it gates and how:

  "gates": {
    "wall_ns_per_solve": {"better": "lower", "tolerance": 0.10},
    "qoe_floor": {"better": "higher", "tolerance": 0.35, "floor": 0.05},
    "digest": {"better": "equal"}
  }

Each gate applies to every baseline row of its metric:
  equal         the current value must be identical.
  lower/higher  ratio = current/baseline, inverted for "higher" so that a
                ratio above 1 always means worse. An optional floor clamps
                both values up to it first, so a near-zero baseline does
                not turn jitter into a huge ratio. The comparison fails
                when the ratio exceeds its limit.

Metrics named wall_* are read off the host clock, and the host running the
gate is rarely the one that recorded the baseline. Their limit is
host_factor * (1 + tolerance), where host_factor is the median ratio over
all wall_* comparisons of the document: a uniformly slower machine moves
the median and trips nothing, while one row regressing against the others
trips the gate even on a faster machine. Every other metric (virtual time,
counts, bytes, QoE, digests) is deterministic per build and compared raw,
against 1 + tolerance.

The gate also fails when a baseline row is missing from CURRENT, or when
a gate names a metric that no baseline row has.

--best-of=EXTRA.json judges a second measurement the same way, against its
own host factor, and passes a wall_* row that passes in either draw.
Timing noise on a shared host is one-sided (a row draws slow, never fast),
so a noisy row passes in one of two draws, while a real regression is slow
in both and still trips. Each draw keeps its own host factor: taking each
row's better value into one draw would also drag their median down and
flag rows that drew the same twice.

A document's host block may name the vector ISA its kernels ran on
("isa", e.g. "avx2"). When the baseline's and the current run's differ, the
gate prints a note: their wall_* rows time different builds of the same
code, so a ratio there is not like for like. The note fails nothing.

GSO_PERF_GATE=off skips the wall_* comparisons (say why in the change that
needs it, and refresh the baseline there). It leaves every other
comparison on.

Exit status: 0 pass, 1 regression or missing row, 2 usage.
"""

import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {(row["name"], row["metric"]): row["value"] for row in doc["rows"]}
    return doc, rows


def is_wall(metric):
    return metric.startswith("wall_")


def ratio(gate, baseline, current):
    """current/baseline oriented so that > 1 means worse."""
    floor = gate.get("floor")
    if floor is not None:
        baseline, current = max(baseline, floor), max(current, floor)
    if gate["better"] == "higher":
        baseline, current = current, baseline
    if baseline == 0:
        return 1.0 if current == 0 else float("inf")
    return current / baseline


def judge(gates, baseline, draw, keys):
    """Judges one draw's rows `keys` against the baseline.

    Returns (host_factor, {key: (ok, detail)}); the host factor is the
    median ratio over the draw's wall_* comparisons.
    """
    ratios = {key: ratio(gates[key[1]], baseline[key], draw[key])
              for key in keys if gates[key[1]]["better"] != "equal"}
    wall = [r for key, r in ratios.items() if is_wall(key[1])]
    host_factor = statistics.median(wall) if wall else 1.0
    verdicts = {}
    for key in keys:
        gate = gates[key[1]]
        if gate["better"] == "equal":
            verdicts[key] = (draw[key] == baseline[key],
                             f"{baseline[key]} -> {draw[key]}")
            continue
        limit = (host_factor if is_wall(key[1]) else 1.0) * (
            1.0 + gate["tolerance"])
        verdicts[key] = (ratios[key] <= limit,
                         f"{baseline[key]:>12.6g} -> {draw[key]:>12.6g}  "
                         f"(x{ratios[key]:.3f}, limit x{limit:.3f})")
    return host_factor, verdicts


def host(doc):
    h = doc.get("host", {})
    return f"{h.get('cpus')} x {h.get('model')}"


def isa(doc):
    return doc.get("host", {}).get("isa", "unrecorded")


def main(argv):
    paths, best_of = [], None
    for arg in argv[1:]:
        if arg.startswith("--best-of="):
            best_of = arg.split("=", 1)[1]
        elif arg.startswith("-"):
            paths = []
            break
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    baseline_doc, baseline = load(paths[0])
    current_doc, current = load(paths[1])
    gates = baseline_doc.get("gates", {})

    failures = []
    unmatched = sorted(set(gates) - {metric for _, metric in baseline})
    if unmatched:
        failures.append(f"gates name metrics no baseline row has: {unmatched}")
    missing = sorted(set(baseline) - set(current))
    if missing:
        failures.append(f"baseline rows missing from the current run: {missing}")

    off = os.environ.get("GSO_PERF_GATE", "").lower() in ("off", "0", "false")
    gated = sorted(key for key in baseline
                   if key[1] in gates and key in current)
    skipped = [key for key in gated if off and is_wall(key[1])]
    gated = [key for key in gated if key not in skipped]
    host_factor, verdicts = judge(gates, baseline, current, gated)
    second = ""
    if best_of:
        _, extra = load(best_of)
        extra_factor, extra_verdicts = judge(
            gates, baseline, extra, [key for key in gated if key in extra])
        second = f", second draw {extra_factor:.3f}"
        for key, (ok, detail) in extra_verdicts.items():
            if is_wall(key[1]) and ok and not verdicts[key][0]:
                verdicts[key] = (True, f"{detail} in the second draw")

    print(f"perf_gate: {paths[0]}: {len(gated)} comparisons, host factor "
          f"{host_factor:.3f}{second}; host baseline {host(baseline_doc)}, "
          f"current {host(current_doc)}")
    if isa(baseline_doc) != isa(current_doc):
        print(f"perf_gate: note: the baseline ran on the {isa(baseline_doc)} "
              f"kernel build, the current run on {isa(current_doc)}; their "
              "wall_* rows are not like for like")
    if skipped:
        print(f"perf_gate: GSO_PERF_GATE=off: skipped {len(skipped)} "
              "wall_* comparisons")
    for key in gated:
        name, metric = key
        ok, detail = verdicts[key]
        if not ok:
            failures.append(f"{name} {metric}")
        print(f"  {'ok' if ok else 'REGRESSED':<9} {name:<28} {metric:<26} "
              f"{detail}")

    if failures:
        for failure in failures:
            print(f"perf_gate: FAIL {failure}", file=sys.stderr)
        print("perf_gate: fix the regression or, if it is an accepted "
              "trade-off, refresh the baseline's rows from a full run, keep "
              "its gates, and say why in the change.", file=sys.stderr)
        return 1
    print("perf_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
