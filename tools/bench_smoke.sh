#!/usr/bin/env bash
# Smoke-checks the controller scaling benchmark: runs a short measurement,
# validates the emitted JSON, and fails loudly if either step breaks. Also
# validates the observability exports: the solve-trace JSONL from
# controller_scaling and the full three-plane metrics JSONL from the
# slow_link example.
#
# Usage: tools/bench_smoke.sh [build_dir] [out_json]
# Wired up as the `bench-smoke` CMake target.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-${BUILD_DIR}/BENCH_controller_smoke.json}"
TRACE_OUT="${OUT%.json}_trace.jsonl"
METRICS_OUT="${BUILD_DIR}/slow_link_smoke_metrics.jsonl"
FLAKY_OUT="${BUILD_DIR}/flaky_conference_smoke_metrics.jsonl"
OUTAGE_OUT="${BUILD_DIR}/controller_outage_smoke_metrics.jsonl"
ROBUSTNESS_JSON="${BUILD_DIR}/BENCH_robustness.json"
BIN="${BUILD_DIR}/bench/controller_scaling"
SLOW_LINK="${BUILD_DIR}/examples/slow_link"
FLAKY="${BUILD_DIR}/examples/flaky_conference"
OUTAGE="${BUILD_DIR}/examples/controller_outage"

if [[ ! -x "${BIN}" ]]; then
  echo "bench_smoke: ${BIN} not built (cmake --build ${BUILD_DIR} --target controller_scaling)" >&2
  exit 1
fi

"${BIN}" --out="${OUT}" --label=smoke --min-time=0.05 --trace-out="${TRACE_OUT}"

if [[ ! -s "${OUT}" ]]; then
  echo "bench_smoke: ${OUT} missing or empty" >&2
  exit 1
fi

python3 - "${OUT}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

for key in ("label", "unit", "host_cpus", "results"):
    if key not in doc:
        sys.exit(f"bench_smoke: missing key {key!r}")
if doc["unit"] != "ns/solve":
    sys.exit(f"bench_smoke: unexpected unit {doc['unit']!r}")
if not doc["results"]:
    sys.exit("bench_smoke: empty results")
modes = set()
for row in doc["results"]:
    for key in ("shape", "mode", "threads", "ns_per_solve", "solves",
                "total_qoe", "iterations"):
        if key not in row:
            sys.exit(f"bench_smoke: result row missing {key!r}: {row}")
    if row["ns_per_solve"] <= 0 or row["solves"] <= 0:
        sys.exit(f"bench_smoke: non-positive measurement: {row}")
    modes.add(row["mode"])
# The bench must have exercised both the cold solves and the
# warm-start delta shapes (the latter self-verify against cold solves).
if modes != {"cold", "warm_delta"}:
    sys.exit(f"bench_smoke: expected cold and warm_delta rows, got {modes}")
print(f"bench_smoke: OK ({len(doc['results'])} measurements in {sys.argv[1]})")
EOF

# --- Perf-regression gate ----------------------------------------------
# The smoke measurement doubles as the regression check against the
# committed trajectory: any (shape, mode, threads) row more than 10%
# slower than the baseline — after normalizing out host speed via the
# median ratio — fails the build. GSO_PERF_GATE=off skips it (refresh
# BENCH_controller.json in the same PR and say why).
#
# Wall-clock measurements on a shared 1-CPU runner jitter by more than
# the tolerance, so a timing-gate failure earns exactly one fresh
# measurement, and the re-gate scores each row's best draw of the two
# runs (timing noise is one-sided — a row draws slow, never fast — so
# the best-of converges on the true value, while a real regression is
# slow in both draws and still trips). The absolute gates (soak,
# robustness) are deterministic and get no retry.
gate_timing_with_retry() {
  local baseline="$1"; local out="$2"; shift 2
  local gate_args=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do gate_args+=("$1"); shift; done
  [[ $# -gt 0 ]] && shift  # drop the -- separator before the re-measure cmd
  if ! python3 "$(dirname "$0")/perf_gate.py" "${baseline}" "${out}" "${gate_args[@]}"; then
    echo "bench_smoke: timing gate failed — re-measuring once to rule out host noise" >&2
    cp "${out}" "${out}.first"
    "$@"
    python3 "$(dirname "$0")/perf_gate.py" "${baseline}" "${out}" \
        --best-of="${out}.first" "${gate_args[@]}"
  fi
}

BASELINE="$(dirname "$0")/../BENCH_controller.json"
if [[ -s "${BASELINE}" ]]; then
  gate_timing_with_retry "${BASELINE}" "${OUT}" -- \
      "${BIN}" --out="${OUT}" --label=smoke --min-time=0.05 --trace-out="${TRACE_OUT}"
else
  echo "bench_smoke: no committed baseline at ${BASELINE}, skipping perf gate" >&2
fi

# --- Observability export validation -----------------------------------
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

validate_metrics_jsonl "${TRACE_OUT}"

if [[ -x "${SLOW_LINK}" ]]; then
  "${SLOW_LINK}" --short --metrics-out "${METRICS_OUT}" > /dev/null
  validate_metrics_jsonl "${METRICS_OUT}"
  # The slow_link export must span all three planes.
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
else
  echo "bench_smoke: ${SLOW_LINK} not built, skipping metrics validation" >&2
fi

if [[ -x "${FLAKY}" ]]; then
  # The example exits non-zero if the meeting fails to re-converge after
  # the fault sequence, so this doubles as a failure-suite smoke check.
  "${FLAKY}" --short --metrics-out "${FLAKY_OUT}" > /dev/null
  validate_metrics_jsonl "${FLAKY_OUT}"
  # The fault plan and the control-plane reliability counters must appear.
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
else
  echo "bench_smoke: ${FLAKY} not built, skipping failure-suite validation" >&2
fi

if [[ -x "${OUTAGE}" ]]; then
  # Exits non-zero unless degraded-mode QoE holds the Non-GSO floor, the
  # controller re-converges after restart, and node failover re-homes every
  # victim — so this run is itself the robustness gate.
  "${OUTAGE}" --short --metrics-out "${OUTAGE_OUT}" \
      --bench-out "${ROBUSTNESS_JSON}" > /dev/null
  validate_metrics_jsonl "${OUTAGE_OUT}"
  # The crash/restart/failover arc must be visible in the export.
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
  # And the robustness bench summary must be well-formed.
  python3 - "${ROBUSTNESS_JSON}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("label", "unit", "results"):
    if key not in doc:
        sys.exit(f"bench_smoke: BENCH_robustness missing key {key!r}")
if doc["label"] != "robustness" or not doc["results"]:
    sys.exit("bench_smoke: malformed BENCH_robustness document")
row = doc["results"][0]
for key in ("crashes", "restarts", "reconstruction_latency_ms",
            "resolves_after_restart", "degraded_fps", "baseline_fps",
            "recovered_fps", "rehomed_participants", "node_failovers",
            "passed"):
    if key not in row:
        sys.exit(f"bench_smoke: BENCH_robustness row missing {key!r}: {row}")
if not row["passed"]:
    sys.exit(f"bench_smoke: robustness gate failed: {row}")
print(f"bench_smoke: OK (BENCH_robustness: {row['rehomed_participants']} "
      f"re-homed, reconstruction {row['reconstruction_latency_ms']:.0f} ms)")
EOF
  # Drift gate vs the committed robustness baseline: reconstruction must
  # not slow down and the recovered framerate must not sag. These are
  # virtual-time measurements — deterministic per build — so the gate is
  # absolute, not host-normalized.
  ROBUSTNESS_BASELINE="$(dirname "$0")/../BENCH_robustness.json"
  if [[ -s "${ROBUSTNESS_BASELINE}" ]]; then
    python3 "$(dirname "$0")/perf_gate.py" \
        "${ROBUSTNESS_BASELINE}" "${ROBUSTNESS_JSON}" \
        --metrics=reconstruction_latency_ms:50,-recovered_fps:1 \
        --absolute --tolerance=0.25
  else
    echo "bench_smoke: no committed baseline at ${ROBUSTNESS_BASELINE}, skipping robustness gate" >&2
  fi
else
  echo "bench_smoke: ${OUTAGE} not built, skipping robustness validation" >&2
fi

# --- Fleet-service churn storm ------------------------------------------
# Exits non-zero unless every storm sustains its target concurrency and
# holds the QoE floor, so the run is itself the fleet acceptance gate; the
# queue-latency rows then go through the same perf gate as the controller
# measurements.
FLEET="${BUILD_DIR}/bench/fleet_service"
FLEET_OUT="${BUILD_DIR}/BENCH_fleet_smoke.json"
FLEET_TRACE="${BUILD_DIR}/fleet_service_smoke_metrics.jsonl"
FLEET_BASELINE="$(dirname "$0")/../BENCH_fleet.json"
if [[ -x "${FLEET}" ]]; then
  "${FLEET}" --out="${FLEET_OUT}" --label=smoke --trace-out="${FLEET_TRACE}"
  python3 - "${FLEET_OUT}" "${FLEET_BASELINE}" <<'EOF'
import json
import os
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("label", "unit", "qoe_floor_min", "host_cpus", "results"):
    if key not in doc:
        sys.exit(f"bench_smoke: BENCH_fleet missing key {key!r}")
if not doc["results"]:
    sys.exit("bench_smoke: BENCH_fleet has no results")
storms = [r for r in doc["results"] if not r["shape"].endswith("_queue_p99")]
p99s = [r for r in doc["results"] if r["shape"].endswith("_queue_p99")]
if not storms or len(p99s) != len(storms):
    sys.exit("bench_smoke: BENCH_fleet needs a _queue_p99 row per storm")
for row in doc["results"]:
    if row["mode"] != "service":
        sys.exit(f"bench_smoke: BENCH_fleet row not mode=service: {row}")
    if row["ns_per_solve"] <= 0 or row["solves"] <= 0:
        sys.exit(f"bench_smoke: non-positive fleet measurement: {row}")
for row in storms:
    for key in ("concurrent", "completed", "qoe_floor", "digest"):
        if key not in row:
            sys.exit(f"bench_smoke: fleet storm row missing {key!r}: {row}")
    if row["qoe_floor"] < doc["qoe_floor_min"]:
        sys.exit(f"bench_smoke: fleet QoE floor below minimum: {row}")
# Each storm's digest is bit-stable run to run: a change
# means the fleet simulation behaves differently, so it must equal the
# committed baseline's digest exactly (refresh BENCH_fleet.json, and say
# why, when a change is meant to move it).
baseline = sys.argv[2]
if os.path.isfile(baseline) and os.path.getsize(baseline) > 0:
    with open(baseline) as f:
        expected = {r["shape"]: r.get("digest")
                    for r in json.load(f)["results"]}
    for row in storms:
        if row["digest"] != expected.get(row["shape"]):
            sys.exit(f"bench_smoke: {row['shape']} digest {row['digest']} "
                     f"!= baseline {expected.get(row['shape'])}")
    print(f"bench_smoke: OK ({len(storms)} fleet digests match {baseline})")
# The shard-kill storm must be in the document and must have actually
# crashed shards, re-homed the victims, and measured the recovery.
failover = [r for r in storms if r["shape"].startswith("fleet_failover")]
if not failover:
    sys.exit("bench_smoke: BENCH_fleet has no fleet_failover_* storm row")
for row in failover:
    for key in ("shard_crashes", "shard_restarts", "rehomed",
                "recovery_p99_us", "degraded_qoe_floor", "post_recovery_qoe"):
        if key not in row:
            sys.exit(f"bench_smoke: failover row missing {key!r}: {row}")
    if row["shard_crashes"] != 2 or row["rehomed"] < 2:
        sys.exit(f"bench_smoke: failover storm killed {row['shard_crashes']} "
                 f"shard(s), re-homed {row['rehomed']} — expected 2 kills "
                 f"and >= 2 re-homes: {row}")
print(f"bench_smoke: OK ({len(storms)} fleet storms, worst QoE floor "
      f"{min(r['qoe_floor'] for r in storms):.3f}, failover recovery p99 "
      f"{failover[0]['recovery_p99_us'] / 1e6:.2f} s)")
EOF
  validate_metrics_jsonl "${FLEET_TRACE}"
  # The per-shard service series must be present in the trace.
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
  # Wider tolerance than the controller gate: the fleet rows include
  # wall-clock queue-latency p99s whose run-to-run spread on a shared
  # 1-CPU runner is ~±35% (tail latency of 4 shard threads time-slicing
  # one core). The median normalization still catches a systematic
  # regression; the tolerance only has to clear the tail noise.
  if [[ -s "${FLEET_BASELINE}" ]]; then
    gate_timing_with_retry "${FLEET_BASELINE}" "${FLEET_OUT}" --tolerance=0.40 -- \
        "${FLEET}" --out="${FLEET_OUT}" --label=smoke --trace-out="${FLEET_TRACE}"
    # Failover-quality drift gate: the recovery tail, the QoE floor held
    # while degraded, and the post-recovery QoE are virtual-time
    # measurements — deterministic per build — so the comparison is
    # absolute. recovery_p99_us gets a floor so a sub-100ms baseline
    # cannot turn jitter into a giant ratio.
    python3 "$(dirname "$0")/perf_gate.py" "${FLEET_BASELINE}" "${FLEET_OUT}" \
        --metrics=recovery_p99_us:100000,-degraded_qoe_floor:0.05,-post_recovery_qoe:0.05 \
        --absolute --tolerance=0.25
  else
    echo "bench_smoke: no committed baseline at ${FLEET_BASELINE}, skipping fleet perf gate" >&2
  fi
else
  echo "bench_smoke: ${FLEET} not built, skipping fleet-service validation" >&2
fi

# --- Long-horizon soak (short profile) ----------------------------------
# Drives the storm-scripted conference plus a mini fleet through tens of
# virtual minutes. The binary's own exit code enforces the hard gates
# (flat live allocations between the measurement halves, bounded tables,
# drained fault log, QoE floor); the perf gate then checks drift against
# the committed short-profile baseline. Allocation counts and QoE floors
# are deterministic per build, so the comparison is absolute.
SOAK="${BUILD_DIR}/bench/soak"
SOAK_OUT="${BUILD_DIR}/BENCH_soak_smoke.json"
SOAK_TRACE="${BUILD_DIR}/soak_smoke_metrics.jsonl"
SOAK_BASELINE="$(dirname "$0")/../BENCH_soak.json"
if [[ -x "${SOAK}" ]]; then
  "${SOAK}" --short --out="${SOAK_OUT}" --label=smoke --trace-out="${SOAK_TRACE}"
  python3 - "${SOAK_OUT}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("label", "unit", "qoe_floor_min", "tracker", "host_cpus",
            "results"):
    if key not in doc:
        sys.exit(f"bench_smoke: BENCH_soak missing key {key!r}")
shapes = {row["shape"] for row in doc["results"]}
if shapes != {"soak_conference", "soak_fleet"}:
    sys.exit(f"bench_smoke: BENCH_soak shapes {sorted(shapes)}")
for row in doc["results"]:
    for key in ("shape", "mode", "threads", "ns_per_solve", "solves",
                "virtual_hours", "peak_rss_bytes", "allocs_per_vhour",
                "sanitizer_growth_bytes", "qoe_floor", "samples_streamed"):
        if key not in row:
            sys.exit(f"bench_smoke: BENCH_soak row missing {key!r}: {row}")
    if row["mode"] != "soak" or row["ns_per_solve"] <= 0:
        sys.exit(f"bench_smoke: malformed soak row: {row}")
    if row["qoe_floor"] < doc["qoe_floor_min"]:
        sys.exit(f"bench_smoke: soak QoE floor below minimum: {row}")
conf = next(r for r in doc["results"] if r["shape"] == "soak_conference")
if conf["samples_streamed"] <= 0 or conf["transitions_drained"] <= 0:
    sys.exit(f"bench_smoke: soak streamed nothing: {conf}")
print(f"bench_smoke: OK (soak: {conf['samples_streamed']} samples streamed, "
      f"QoE floor {conf['qoe_floor']:.3f})")
EOF
  validate_metrics_jsonl "${SOAK_TRACE}"
  validate_metrics_jsonl "${SOAK_TRACE}.fleet"
  if [[ -s "${SOAK_BASELINE}" ]]; then
    python3 "$(dirname "$0")/perf_gate.py" "${SOAK_BASELINE}" "${SOAK_OUT}" \
        --metrics=peak_rss_bytes,allocs_per_vhour:4096,-qoe_floor:0.05 \
        --absolute --tolerance=0.35
  else
    echo "bench_smoke: no committed baseline at ${SOAK_BASELINE}, skipping soak gate" >&2
  fi
else
  echo "bench_smoke: ${SOAK} not built, skipping soak validation" >&2
fi
