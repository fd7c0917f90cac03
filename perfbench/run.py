#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ and runs one workload.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the library and the benchmark binaries from source (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs the workload, checks its
deterministic outputs against the values recorded in perfbench/golden.json
and its invariants, and prints as the last line of standard output

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, read from the traced binary,
plus the tracing overhead against untraced runs of the same seed. A
correctness mismatch prints the result with "correct": false and exits 1.

Steadiness self-check:
    python3 perfbench/run.py --steady

runs each workload of BENCHMARK.json back to back with seeds 1..10, prints each
end-to-end metric's median, quartiles and spread against its bound, how far
each median moved from the one recorded in perfbench/steadiness.json, and
whether every deterministic output matched its recorded value; then records
the new figures, with the host's CPU count, in perfbench/steadiness.json.

Recording the deterministic outputs of seeds 1..16:
    python3 perfbench/run.py --record-golden
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN = os.path.join(HERE, "golden.json")
STEADINESS = os.path.join(HERE, "steadiness.json")
RUN_TIMEOUT_S = 170
# Load budget: the fleet runs 4 shard threads, and no run starts more.
MAX_THREADS = 4
# The steadiness check runs each workload this many times, seeds 1..RUNS.
STEADY_RUNS = 10
# Seeds whose deterministic outputs golden.json records.
GOLDEN_SEEDS = range(1, 17)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def host_cpus():
    return os.cpu_count() or 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quietly(cmd):
    """Runs a build step; shows its output only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout)
    return proc.returncode == 0


def build():
    """Configures and builds both benchmark binaries; returns the build dir."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not run_quietly(configure):
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(out, ignore_errors=True)
        if not run_quietly(configure):
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(min(MAX_THREADS, host_cpus()))
    if not run_quietly(["cmake", "--build", out, "-j", jobs, "--target",
                        "gso_perfbench", "gso_perfbench_traced"]):
        raise SystemExit("perfbench: build failed")
    return out


def run_binary(binary, workload, seed, seconds):
    """Runs one benchmark binary; echoes its report; returns its JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {os.path.basename(binary)} exited "
                         f"with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def check_golden(record, golden):
    """Compares the deterministic outputs with the recorded ones."""
    expected = golden.get(record["workload"], {}).get(str(record["seed"]))
    if expected is None:
        print(f"golden: no recorded values for seed {record['seed']}; "
              "invariant checks only")
        return []
    mismatches = []
    for name, want in sorted(expected.items()):
        got = record["checks"].get(name)
        if got != want:
            mismatches.append(f"{name}: got {got!r}, recorded {want!r}")
    print(f"golden: {len(expected) - len(mismatches)}/{len(expected)} "
          "deterministic outputs match the recorded values")
    return mismatches


def one_run(args, spec):
    out = build()
    untraced = os.path.join(out, "gso_perfbench")
    traced = os.path.join(out, "gso_perfbench_traced")
    record = run_binary(untraced, args.workload, args.seed,
                        args.seconds / 2 if args.trace else args.seconds)
    metric_names = {m["name"]: m for m in spec["end_to_end"]}
    metrics = {}
    golden = load_json(GOLDEN, {})
    mismatches = check_golden(record, golden)
    attempted = max(int(record["attempted"]), 1)
    failed = int(record["failed"])
    failures = list(record["failures"])
    record["metrics"]["ok_ratio"] = {
        "value": 1.0 - min(failed + len(mismatches), attempted) / attempted,
        "unit": "ratio"}
    if args.trace:
        # The traced run sits between two untraced runs of half the length
        # so that a drift in host speed cancels out of the overhead. Every
        # one of the three is checked.
        before = record["report"]["step_p50_ms"]["value"]
        traced_record = run_binary(traced, args.workload, args.seed,
                                   args.seconds)
        second = run_binary(untraced, args.workload, args.seed,
                            args.seconds / 2)
        after = second["report"]["step_p50_ms"]["value"]
        for extra in (traced_record, second):
            mismatches += check_golden(extra, golden)
            failed += int(extra["failed"])
            failures += extra["failures"]
        record = traced_record
        base_p50 = (before + after) / 2
        traced_p50 = record["report"]["step_p50_ms"]["value"]
        record["metrics"]["trace.overhead_pct"] = {
            "value": (traced_p50 / base_p50 - 1.0) * 100.0, "unit": "%"}
        print(f"trace overhead: step_p50 {traced_p50:.4f} ms traced vs "
              f"{base_p50:.4f} ms untraced")
        metric_names = {m["name"]: m for m in spec["per_layer"]}
    for name, meta in metric_names.items():
        got = record["metrics"].get(name)
        if got is None and args.trace:
            # A layer this workload does not use reports no work.
            got = {"value": 0.0, "unit": meta["unit"]}
        if got is None or got["unit"] != meta["unit"]:
            raise SystemExit(f"perfbench: metric {name} missing or in the "
                             "wrong unit")
        metrics[name] = {"value": got["value"], "unit": got["unit"]}

    for mismatch in mismatches:
        print(f"MISMATCH: {mismatch}")
    failed += len(mismatches)
    correct = not mismatches and not failures
    print(f"host_cpus {record['host_cpus']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_self(workload, seed, seconds):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    golden = [l for l in lines if l.startswith("golden: ")]
    matched = bool(golden) and "deterministic outputs match" in golden[0] \
        and "MISMATCH" not in proc.stdout
    return proc.returncode, result, matched


def worse_by(name, new, old, spec):
    """Relative change of `new` against `old` in the metric's worse direction."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}[name]
    change = (new - old) / old
    return change if better == "lower" else -change


def steady(args, spec):
    build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    previous = load_json(STEADINESS, {"workloads": {}})
    report = dict(previous, host_cpus=host_cpus(), runs=STEADY_RUNS,
                  run_seconds=seconds)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        matched = 0
        for seed in range(1, STEADY_RUNS + 1):
            code, result, golden_ok = run_self(workload, seed, seconds)
            if code != 0 or result is None or not result["correct"]:
                log(f"{workload} seed {seed}: run failed or incorrect")
                ok = False
                continue
            matched += golden_ok
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()))
        old_rows = previous["workloads"].get(workload, {}).get("metrics", {})
        rows = {}
        print(f"\n{workload}: {STEADY_RUNS} runs of {seconds} s, seeds 1-"
              f"{STEADY_RUNS}, host_cpus {host_cpus()}; deterministic outputs "
              f"matched the recorded values in {matched}/{STEADY_RUNS} runs")
        print(f"  {'metric':<13} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>5} {'vs recorded':>11}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            within = spread <= bounds[name]
            drift = ""
            if name in old_rows:
                worse = worse_by(name, med, old_rows[name]["median"], spec)
                drift = f"{worse:+.4f}"
                within = within and worse <= bounds[name]
            ok = ok and within
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": round(spread, 4), "bound": bounds[name]}
            print(f"  {name:<13} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.4f} {bounds[name]:>5} {drift:>11} "
                  f"{'ok' if within else 'OUT'}")
        ok = ok and matched == STEADY_RUNS
        report["workloads"][workload] = {"golden_matched": matched,
                                         "metrics": rows}
    with open(STEADINESS, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


def record_golden(args, spec):
    out = build()
    recorded = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in GOLDEN_SEEDS:
            record = run_binary(os.path.join(out, "gso_perfbench"), workload,
                                seed, 1)
            if record["failures"]:
                raise SystemExit(f"{workload} seed {seed}: "
                                 f"{record['failures']}")
            recorded.setdefault(workload, {})[str(seed)] = record["checks"]
    golden = load_json(GOLDEN, {})
    for workload, seeds in recorded.items():
        golden.setdefault(workload, {}).update(seeds)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(BENCHMARK):
        raise SystemExit("perfbench: BENCHMARK.json not found")
    with open(BENCHMARK) as f:
        spec = json.load(f)
    if args.steady:
        return steady(args, spec)
    if args.record_golden:
        return record_golden(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"perfbench: --workload must be one of {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return one_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
