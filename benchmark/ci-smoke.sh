#!/usr/bin/env bash
# Smoke test of the benchmark: build it, run every workload at --quick size,
# run its tests, and hold the emitted document against BENCHMARK.json.
# Not wired into .github/workflows/ci.yml yet (a later PR); run it from
# anywhere: `bash benchmark/ci-smoke.sh`. Takes about a minute.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
mkdir -p "$here/out"
doc="$here/out/ci-smoke.json"
spans="$here/out/ci-smoke-spans.jsonl"

cargo build --release --offline --manifest-path "$manifest"
cargo run --release --offline --manifest-path "$manifest" -- \
    --quick --trace-out "$spans" > "$doc"
cargo test --release --offline --manifest-path "$manifest"

python3 - "$here/../BENCHMARK.json" "$doc" "$spans" <<'PY'
import json, re, sys

declared = json.load(open(sys.argv[1]))
doc = json.load(open(sys.argv[2]))
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

assert sorted(declared) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
assert [w["name"] for w in doc["workloads"]] == [w["name"] for w in declared["workloads"]]
for row in doc["workloads"]:
    assert row["correct"] and row["failed"] == 0, row["failures"]
    for family in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in declared[family]]
        got = [(n, m["unit"], m["better"]) for n, m in row[family].items()]
        assert got == want, (row["name"], family)
        assert all(name_ok.match(n) for n, _, _ in got)
    assert all(v["value"] != 0 for v in row["end_to_end"].values()), row["name"]
    assert all(c["covered_by_children"] >= 0.95 for c in row["span_coverage"])
for m in declared["end_to_end"]:
    assert 0 < m["bound"] <= 0.25, m
spans = [json.loads(line) for line in open(sys.argv[3])]
assert spans and all(s["end_ns"] >= s["start_ns"] for s in spans)
print(f"ci-smoke: {len(doc['workloads'])} workloads, "
      f"{len(declared['end_to_end'])} end-to-end and {len(declared['per_layer'])} per-layer metrics, "
      f"{len(spans)} spans: ok")
PY
