#!/usr/bin/env bash
# Self-check of the benchmark: build the CLI and the harness offline, run
# the harness's unit tests, run every workload in both passes shrunk to a
# smoke size, and fail if a printed line does not parse or if the metric
# names printed differ from the BENCHMARK.json catalog in either
# direction. Run from anywhere; not wired into ci.sh yet.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/spine}"

cargo test --release --offline --quiet --manifest-path spine/Cargo.toml 1>&2

mkdir -p "$CARGO_TARGET_DIR/spine"
out="$CARGO_TARGET_DIR/spine/smoke.out"
bash spine/run.sh --smoke >"$out"

python3 - "$out" <<'PY'
import json, sys

catalog = json.load(open("BENCHMARK.json"))
expected = {
    0: sorted(m["name"] for m in catalog["end_to_end"]),
    1: sorted(m["name"] for m in catalog["per_layer"]),
}
units = {m["name"]: m["unit"] for m in catalog["end_to_end"] + catalog["per_layer"]}
workloads = [w["name"] for w in catalog["workloads"]]

lines = [l for l in open(sys.argv[1]).read().splitlines() if l.strip()]
if len(lines) != 2 * len(workloads):
    sys.exit(f"expected {2 * len(workloads)} result lines, got {len(lines)}")
for i, line in enumerate(lines):
    workload, trace = workloads[i // 2], i % 2
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload}/trace {trace}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{workload}/trace {trace}: not correct: {line[:200]}")
    names = sorted(result["metrics"])
    if names != expected[trace]:
        missing = set(expected[trace]) - set(names)
        extra = set(names) - set(expected[trace])
        sys.exit(f"{workload}/trace {trace}: names differ; missing {missing}, extra {extra}")
    for name, metric in result["metrics"].items():
        if metric["unit"] != units[name] or not isinstance(metric["value"], (int, float)):
            sys.exit(f"{workload}/trace {trace}: bad metric {name}: {metric}")
print(f"spine check OK: {len(workloads)} workloads x 2 passes, "
      f"{len(expected[0])} end-to-end + {len(expected[1])} per-layer metrics")
PY
