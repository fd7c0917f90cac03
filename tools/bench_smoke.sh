#!/usr/bin/env bash
# Smoke run of the benches: each bench runs at smoke size and its BENCH
# document is gated against the committed baseline by tools/perf_gate.py;
# the gso.metrics JSONL exports of the benches and examples are validated.
# The benches and examples exit non-zero when their own acceptance checks
# fail (re-convergence, QoE floors, failover), so running them is part of
# the check.
#
# Usage: tools/bench_smoke.sh [build_dir] [out_json]
# Wired up as the `bench-smoke` CMake target.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-${BUILD_DIR}/BENCH_controller_smoke.json}"
ROOT="$(dirname "$0")/.."
GATE="$(dirname "$0")/perf_gate.py"
TRACE_OUT="${OUT%.json}_trace.jsonl"
METRICS_OUT="${BUILD_DIR}/slow_link_smoke_metrics.jsonl"
FLAKY_OUT="${BUILD_DIR}/flaky_conference_smoke_metrics.jsonl"
OUTAGE_OUT="${BUILD_DIR}/controller_outage_smoke_metrics.jsonl"
ROBUSTNESS_JSON="${BUILD_DIR}/BENCH_robustness.json"
FLEET_OUT="${BUILD_DIR}/BENCH_fleet_smoke.json"
FLEET_TRACE="${BUILD_DIR}/fleet_service_smoke_metrics.jsonl"
SOAK_OUT="${BUILD_DIR}/BENCH_soak_smoke.json"
SOAK_TRACE="${BUILD_DIR}/soak_smoke_metrics.jsonl"
BIN="${BUILD_DIR}/bench/controller_scaling"
FLEET="${BUILD_DIR}/bench/fleet_service"
SOAK="${BUILD_DIR}/bench/soak"
SLOW_LINK="${BUILD_DIR}/examples/slow_link"
FLAKY="${BUILD_DIR}/examples/flaky_conference"
OUTAGE="${BUILD_DIR}/examples/controller_outage"

for bin in "${BIN}" "${FLEET}" "${SOAK}" "${SLOW_LINK}" "${FLAKY}" "${OUTAGE}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "bench_smoke: ${bin} not built (cmake --build ${BUILD_DIR} --target bench-smoke)" >&2
    exit 1
  fi
done

# gate BASELINE CURRENT [REMEASURE-CMD...]: perf_gate.py against the
# committed baseline. Host-clock (wall_*) rows jitter by more than their
# tolerance on a shared runner, so a failing gate with a re-measure command
# earns exactly one fresh measurement, and the re-gate keeps each wall_*
# row's better draw of the two runs (timing noise is one-sided: a row draws
# slow, never fast, while a real regression is slow in both draws).
gate() {
  local baseline="$1" current="$2"; shift 2
  if python3 "${GATE}" "${baseline}" "${current}"; then return 0; fi
  [[ $# -gt 0 ]] || return 1
  echo "bench_smoke: gate failed, re-measuring once to rule out host noise" >&2
  cp "${current}" "${current}.first"
  "$@"
  python3 "${GATE}" "${baseline}" "${current}" --best-of="${current}.first"
}

# Shared checker for the gso.metrics JSONL schema: every line parses, the
# meta line leads with the expected schema/version, series ids are dense,
# and per-series timestamps are monotone non-decreasing.
validate_metrics_jsonl() {
  python3 - "$1" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    lines = [json.loads(line) for line in f if line.strip()]
if not lines:
    sys.exit(f"bench_smoke: {path} is empty")

meta = lines[0]
if meta.get("type") != "meta":
    sys.exit(f"bench_smoke: {path} first line is not a meta line: {meta}")
if meta.get("schema") != "gso.metrics":
    sys.exit(f"bench_smoke: {path} wrong schema {meta.get('schema')!r}")
if meta.get("version") != 1:
    sys.exit(f"bench_smoke: {path} wrong schema version {meta.get('version')!r}")

series = [l for l in lines if l["type"] == "series"]
samples = [l for l in lines if l["type"] == "sample"]
if len(series) != meta["series"]:
    sys.exit(f"bench_smoke: {path} meta says {meta['series']} series, found {len(series)}")
if len(samples) != meta["samples"]:
    sys.exit(f"bench_smoke: {path} meta says {meta['samples']} samples, found {len(samples)}")
if not series or not samples:
    sys.exit(f"bench_smoke: {path} has no series or no samples")
ids = sorted(s["id"] for s in series)
if ids != list(range(len(series))):
    sys.exit(f"bench_smoke: {path} series ids not dense: {ids}")
for s in series:
    for key in ("name", "kind", "unit", "labels"):
        if key not in s:
            sys.exit(f"bench_smoke: {path} series missing {key!r}: {s}")
last = {}
for s in samples:
    if s["t_us"] < last.get(s["id"], 0):
        sys.exit(f"bench_smoke: {path} non-monotone t_us in series {s['id']}")
    last[s["id"]] = s["t_us"]
print(f"bench_smoke: OK ({len(series)} series, {len(samples)} samples in {path})")
EOF
}

# --- Controller scaling ------------------------------------------------
"${BIN}" --out="${OUT}" --label=smoke --min-time=0.05 --trace-out="${TRACE_OUT}"
gate "${ROOT}/BENCH_controller.json" "${OUT}" \
    "${BIN}" --out="${OUT}" --label=smoke --min-time=0.05 --trace-out="${TRACE_OUT}"
validate_metrics_jsonl "${TRACE_OUT}"

# --- slow_link: the export must span all three planes --------------------
"${SLOW_LINK}" --short --metrics-out "${METRICS_OUT}" > /dev/null
validate_metrics_jsonl "${METRICS_OUT}"
python3 - "${METRICS_OUT}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    rows = [json.loads(l) for l in f if l.strip()]
names = {row["name"] for row in rows if row["type"] == "series"}
planes = {name.split(".")[0] for name in names}
missing = {"transport", "media", "control"} - planes
if missing:
    sys.exit(f"bench_smoke: slow_link export missing planes {sorted(missing)}")
if len(names) < 8:
    sys.exit(f"bench_smoke: slow_link export has only {len(names)} series")
print(f"bench_smoke: OK (slow_link spans {sorted(planes)}, {len(names)} distinct series)")
EOF

# --- flaky_conference: exits non-zero unless the meeting re-converges
# after the fault sequence; its export must carry the fault plan and the
# control-plane reliability counters.
"${FLAKY}" --short --metrics-out "${FLAKY_OUT}" > /dev/null
validate_metrics_jsonl "${FLAKY_OUT}"
python3 - "${FLAKY_OUT}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    rows = [json.loads(l) for l in f if l.strip()]
names = {row["name"] for row in rows if row["type"] == "series"}
for prefix in ("sim.fault.", "control.gtbr."):
    if not any(name.startswith(prefix) for name in names):
        sys.exit(f"bench_smoke: flaky_conference export has no {prefix}* series")
fault_ids = {row["id"] for row in rows
             if row["type"] == "series" and row["name"] == "sim.fault.events"}
fault_samples = [row for row in rows
                 if row["type"] == "sample" and row["id"] in fault_ids]
if not fault_samples:
    sys.exit("bench_smoke: no sim.fault.events samples despite scheduled faults")
print(f"bench_smoke: OK (flaky_conference exports fault + gtbr series, "
      f"{len(fault_samples)} fault events)")
EOF

# --- controller_outage: exits non-zero unless degraded-mode QoE holds the
# Non-GSO floor, the controller re-converges after restart, and node
# failover re-homes every victim. Its BENCH rows are virtual-time figures,
# so the robustness gate has nothing to re-measure.
"${OUTAGE}" --short --metrics-out "${OUTAGE_OUT}" \
    --bench-out "${ROBUSTNESS_JSON}" > /dev/null
validate_metrics_jsonl "${OUTAGE_OUT}"
python3 - "${OUTAGE_OUT}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    rows = [json.loads(l) for l in f if l.strip()]
series = {row["id"]: row["name"] for row in rows if row["type"] == "series"}
names = set(series.values())
required = {
    "gso.robustness.controller_crashes",
    "gso.robustness.controller_restarts",
    "gso.robustness.reconstruction_latency",
    "gso.robustness.resolves_after_restart",
    "gso.robustness.rehomed_participants",
    "gso.robustness.node_failovers",
    "gso.robustness.node_degraded",
    "gso.robustness.client_degraded",
    "gso.robustness.time_in_degraded",
}
missing = required - names
if missing:
    sys.exit(f"bench_smoke: controller_outage export missing {sorted(missing)}")
# The crash counter must have actually counted a crash, and some client
# must have spent time degraded.
def last_value(name):
    ids = {i for i, n in series.items() if n == name}
    vals = [row["v"] for row in rows
            if row["type"] == "sample" and row["id"] in ids]
    return max(vals) if vals else 0

if last_value("gso.robustness.controller_crashes") < 1:
    sys.exit("bench_smoke: no controller crash recorded despite the fault plan")
if last_value("gso.robustness.time_in_degraded") <= 0:
    sys.exit("bench_smoke: no degraded time recorded during the outage")
print(f"bench_smoke: OK (controller_outage exports {len(required)} "
      f"robustness series)")
EOF
gate "${ROOT}/BENCH_robustness.json" "${ROBUSTNESS_JSON}"

# --- Fleet-service churn storms ------------------------------------------
# Exits non-zero unless every storm sustains its target concurrency and
# holds the QoE floor and the shard-kill storm recovers; the gate then
# checks the storms' timings, digests and failover figures.
"${FLEET}" --out="${FLEET_OUT}" --label=smoke --trace-out="${FLEET_TRACE}"
gate "${ROOT}/BENCH_fleet.json" "${FLEET_OUT}" \
    "${FLEET}" --out="${FLEET_OUT}" --label=smoke --trace-out="${FLEET_TRACE}"
validate_metrics_jsonl "${FLEET_TRACE}"
python3 - "${FLEET_TRACE}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    rows = [json.loads(l) for l in f if l.strip()]
names = {row["name"] for row in rows if row["type"] == "series"}
required = {
    "service.shard.conferences",
    "service.shard.queue_depth",
    "service.shard.solves",
    "service.shard.shed",
    "service.shard.queue_latency_p99",
    "service.admission.rejected",
    "service.gossip.sent",
    "service.gossip.delivered",
    "service.failover.shard_crashes",
    "service.failover.recovery_p99",
    "service.failover.degraded_qoe_floor",
}
missing = required - names
if missing:
    sys.exit(f"bench_smoke: fleet trace missing series {sorted(missing)}")
shards = {frozenset(row["labels"].items()) for row in rows
          if row["type"] == "series"
          and row["name"] == "service.shard.queue_depth"}
if len(shards) < 2:
    sys.exit(f"bench_smoke: fleet trace covers only {len(shards)} shard(s)")
print(f"bench_smoke: OK (fleet trace spans {len(shards)} shards)")
EOF

# --- Long-horizon soak (short profile) ------------------------------------
# The binary's exit code enforces the hard gates (flat live allocations
# between the measurement halves, bounded tables, drained fault log, QoE
# floor); the gate then checks drift of peak RSS, allocation growth and
# the QoE floor against the committed short-profile baseline.
"${SOAK}" --short --out="${SOAK_OUT}" --label=smoke --trace-out="${SOAK_TRACE}"
gate "${ROOT}/BENCH_soak.json" "${SOAK_OUT}"
validate_metrics_jsonl "${SOAK_TRACE}"
validate_metrics_jsonl "${SOAK_TRACE}.fleet"
