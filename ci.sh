#!/usr/bin/env bash
# Local CI: formatting, lints, tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> perfbench unit tests (its own workspace; includes the store-wrapper parity test)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> perfbench end-to-end smoke (every job against the no-reuse oracle, layer invariants)"
perf_out="$(mktemp)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload reuse_hot --seed 42 --seconds 1 --trace 1 \
  > "$perf_out" || { echo "perfbench: smoke run failed"; rm -f "$perf_out"; exit 1; }
python3 - "$perf_out" <<'EOF'
import json, sys
verdict = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert verdict["correct"] is True, "perfbench: a result or invariant check failed"
assert verdict["failed"] == 0, f"perfbench: {verdict['failed']} failed jobs"
print(f"    perfbench OK ({verdict['attempted']} jobs checked, 0 failed)")
EOF
rm -f "$perf_out"

echo "==> golden paper artifacts (Table 1, Figs. 2/3/6-9, ablations: exact match)"
for golden in goldens/*.json; do
  bin="$(basename "$golden" .json)"
  cargo run --release -q -p cv-bench --bin "$bin" > /dev/null || { echo "$bin failed"; exit 1; }
done
python3 - goldens/*.json <<'EOF'
import json, pathlib, sys

def drop_wall_clock(v):
    """Drop the wall-clock `ms` fields, the only values a rerun may move."""
    if isinstance(v, dict):
        return {k: drop_wall_clock(x) for k, x in v.items() if k != "ms"}
    if isinstance(v, list):
        return [drop_wall_clock(x) for x in v]
    return v

drifted = []
for golden in map(pathlib.Path, sys.argv[1:]):
    fresh = pathlib.Path("target/experiments") / golden.name
    if golden.name == "ablation_selection.json":
        same = drop_wall_clock(json.loads(golden.read_text())) == \
            drop_wall_clock(json.loads(fresh.read_text()))
    else:
        same = golden.read_bytes() == fresh.read_bytes()
    if not same:
        drifted.append(golden.name)
assert not drifted, f"paper artifacts drifted from goldens/: {drifted}"
print(f"    goldens OK ({len(sys.argv) - 1} artifacts match)")
EOF

echo "==> cv-chaos smoke sweep (fixed seed; nonzero exit on divergence)"
cargo run --release -q --bin cv-chaos -- --days 3 --scale 0.05 --seed 1 \
  > /dev/null || { echo "cv-chaos: fault sweep diverged"; exit 1; }

echo "==> cv-chaos crash-recovery gate (kill mid-write, replay to byte-identical state)"
crash_dir="$(mktemp -d)"
cargo run --release -q --bin cv-chaos -- --crash --days 2 --scale 0.05 --seed 42 \
  --store-dir "$crash_dir/store" --json "$crash_dir/crash.json" \
  > /dev/null || { echo "cv-chaos: crash recovery diverged"; rm -rf "$crash_dir"; exit 1; }
python3 - "$crash_dir/crash.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["recoveries"] > 0, "no recoveries exercised"
assert r["digest_divergences"] == 0, "crash recovery changed a result digest"
assert r["wal_records_replayed"] > 0, "no WAL records replayed"
assert r["wal_records_skipped"] > 0, "torn-write sweep skipped no records on replay"
assert r["violations"] == [], f"violations: {r['violations']}"
print(f"    crash gate OK ({r['store_crashes']} crashes, {r['recoveries']} recoveries, "
      f"{r['wal_records_replayed']} replayed, {r['wal_records_skipped']} torn skipped)")
EOF
rm -rf "$crash_dir"

# Smoke runs write their bench artifacts here, never over the committed
# BENCH_*.json files at the repo root.
bench_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir"' EXIT

echo "==> cv-serve smoke gate (digest equality + trace structure across worker counts)"
trace_json="$(mktemp)"
metrics_json="$(mktemp)"
cargo run --release -q --bin cv-serve -- --days 3 --scale 0.05 --analytics 12 \
  --seed 42 --workers 8 --min-speedup auto --bench "$bench_dir/BENCH_service.json" \
  --op-state-cache --trace "$trace_json" --metrics "$metrics_json" \
  > /dev/null || { echo "cv-serve: service contract violated"; exit 1; }

echo "==> trace + bench artifact validation"
python3 - "$trace_json" "$metrics_json" "$bench_dir/BENCH_service.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"
assert all("name" in e and e["ph"] in ("X", "i") for e in events), "malformed trace event"
assert {e["pid"] for e in events} >= {1, 2}, "service or cluster timeline missing"
metrics = json.load(open(sys.argv[2]))
for key in ("op_state.hits", "op_state.misses", "op_state.published",
            "op_state.cross_job_hits", "op_state.evicted", "op_state.purged"):
    assert key in metrics, f"metrics dump missing {key}"
bench = json.load(open(sys.argv[3]))
phases = bench["phase_wall_seconds"]
for key in ("compile", "execute_parallel", "execute_pool", "commit", "pool_overhead"):
    assert key in phases, f"phase_wall_seconds missing {key}"
assert bench["digests_match_sequential"] is True, "digest contract violated"
# Pool accounting contract: overhead is the residue around the parallel
# phase (both measured from the ready-barrier epoch) and must stay below it.
assert phases["pool_overhead"] < phases["execute_parallel"], \
    f"pool overhead {phases['pool_overhead']} not below parallel wall {phases['execute_parallel']}"
# Morsel scaling curve: 1/2/4/8-worker points, digest parity at every one;
# the speedup bound (>1.5x at 4+ workers) binds only on multi-core hosts.
scaling = bench["scaling"]
assert scaling["chunks"] > 1, "scaling leg did not actually chunk the query"
assert scaling["digests_agree"] is True, "morsel scheduling changed results"
workers = [p["workers"] for p in scaling["points"]]
assert workers == [1, 2, 4, 8], f"scaling curve has wrong worker counts: {workers}"
assert all(p["digest_matches_serial"] for p in scaling["points"]), \
    "a scaling point diverged from the serial digest"
assert all(p["wall_seconds"] > 0 for p in scaling["points"]), "empty scaling measurement"
if bench["host_parallelism"] >= 4:
    assert scaling["speedup_gate_enforced"] is True, "speedup gate skipped on a multi-core host"
    assert scaling["speedup_at_4w"] > 1.5, \
        f"morsel speedup {scaling['speedup_at_4w']:.2f}x below 1.5x at 4+ workers"
    scaling_note = f"speedup {scaling['speedup_at_4w']:.2f}x at 4w"
else:
    scaling_note = f"speedup gate skipped ({bench['host_parallelism']} hw thread(s))"
store = bench["store"]
assert store["digests_match_sequential"] is True, "durable-store digest contract violated"
assert store["bytes_written_durably"] > 0, "durable leg wrote nothing"
assert store["wal_records_written"] > 0, "durable leg logged no WAL records"
# Operator-state cache leg: recurring jobs must reuse breaker state built
# by *other* jobs, skip real build wall time, and never move a digest —
# checked at 1 worker and at 8 workers against the cache-off reference.
op = bench["op_state"]
assert op["enabled"] is True, "op-state leg did not run"
assert op["cross_job_hits"] > 0, "no cross-job operator-state hits at seed 42"
assert op["build_wall_avoided_seconds"] > 0, "op-state cache avoided no build wall"
assert op["digests_match_off_1w"] is True, "op-state cache moved 1-worker digests"
assert op["digests_match_off_nw"] is True, "op-state cache moved 8-worker digests"
assert op["digest_checksum_on_1w"] == op["digest_checksum_off"], \
    "1-worker cache-on checksum diverges from cache-off"
assert op["digest_checksum_on_nw"] == op["digest_checksum_off"], \
    "8-worker cache-on checksum diverges from cache-off"
assert op["resident_bytes"] <= op["budget_bytes"], "op-state cache blew its budget"
print(f"    trace OK ({len(events)} events), phase breakdown OK, durable store OK, "
      f"scaling OK ({scaling['chunks']} chunks, {scaling_note}), "
      f"op-state OK ({op['hits']} hits, {op['cross_job_hits']} cross-job, "
      f"{op['build_wall_avoided_seconds']*1e3:.2f}ms build wall avoided)")
EOF
rm -f "$trace_json" "$metrics_json"

echo "==> containment gate (semantic on/off digest parity + compensated hits)"
cargo run --release -q --bin cv-analyze -- --containment --days 4 --scale 0.05 \
  --seed 42 --json "$bench_dir/BENCH_reuse.json" \
  > /dev/null || { echo "cv-analyze: containment audit failed"; exit 1; }

echo "==> reuse bench artifact validation"
python3 - "$bench_dir/BENCH_reuse.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["mode"] == "containment", "wrong bench artifact"
for key in ("jobs", "views_reused", "views_reused_exact", "views_reused_semantic",
            "exact_hit_rate", "compensated_hit_rate", "semantic_considered",
            "semantic_proven", "semantic_vetoed", "vetoes_by_code"):
    assert key in bench, f"BENCH_reuse.json missing {key}"
assert bench["digests_match"] is True, "semantic matching changed a result digest"
assert bench["failed_jobs"] == 0, "containment audit had failed jobs"
assert bench["views_reused_semantic"] > 0, "no compensated hits on the seeded workload"
assert bench["views_reused_exact"] + bench["views_reused_semantic"] == bench["views_reused"], \
    "exact/compensated split does not add up"
assert bench["semantic_proven"] >= bench["views_reused_semantic"], \
    "fewer proofs than compensated hits"
assert bench["views_reused"] >= bench["baseline_views_reused"], \
    "semantic matching lowered the reuse hit count"
assert bench["durable_digests_match"] is True, "durable store changed a result digest"
assert bench["store"]["bytes_written_durably"] > 0, "durable leg wrote nothing"
print(f"    reuse bench OK ({bench['views_reused_exact']} exact + "
      f"{bench['views_reused_semantic']} compensated hits, "
      f"{bench['semantic_vetoed']} vetoes)")
EOF

echo "==> ivm gate (incremental maintenance vs full-rebuild digest parity)"
cargo run --release -q --bin cv-analyze -- --ivm --days 4 --scale 0.1 \
  --seed 42 --json "$bench_dir/BENCH_ivm.json" \
  > /dev/null || { echo "cv-analyze: ivm audit failed"; exit 1; }

echo "==> ivm bench artifact validation"
python3 - "$bench_dir/BENCH_ivm.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["mode"] == "ivm", "wrong bench artifact"
for key in ("jobs", "failed_jobs", "digests_match", "ivm", "rows_touched_total",
            "savings_ratio", "obs_counters"):
    assert key in bench, f"BENCH_ivm.json missing {key}"
assert bench["digests_match"] is True, "incremental maintenance changed a result digest"
assert bench["failed_jobs"] == 0, "ivm audit had failed jobs"
ivm = bench["ivm"]
assert ivm["maintained"] > 0, "no views were maintained incrementally"
assert ivm["rows_maintained"] < ivm["rows_rebuild_baseline"], \
    "maintenance did not beat the rebuild baseline"
assert 0.0 < bench["savings_ratio"] < 1.0, \
    f"savings ratio {bench['savings_ratio']} out of range"
assert bench["obs_counters"]["ivm.maintained"] == ivm["maintained"], \
    "obs counter disagrees with driver stats"
print(f"    ivm bench OK ({ivm['maintained']} maintained, {ivm['rebuilt']} fallback "
      f"rebuilds, {ivm['refused']} CV07x-refused, ratio {bench['savings_ratio']:.3f})")
EOF

echo "==> kernels microbench smoke gate (typed engine kernels)"
cargo run --release -q -p cv-bench --bin kernels -- --smoke --out "$bench_dir/BENCH_engine.json" \
  > /dev/null || { echo "kernels: microbench failed"; exit 1; }

echo "==> engine bench artifact validation"
python3 - "$bench_dir/BENCH_engine.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["name"] == "kernels_microbench", "wrong bench artifact"
assert bench["smoke"] is True, "smoke run must be marked as such"
assert bench["sizes"], "no sizes measured"
for kernel in ("filter", "project", "hash_join", "hash_aggregate", "sort"):
    rates = bench["kernels"][kernel]
    assert rates, f"kernel {kernel} has no measurements"
    for size, rate in rates.items():
        assert rate > 0, f"kernel {kernel} measured zero throughput at {size} rows"
print(f"    engine bench OK ({len(bench['kernels'])} kernels)")
EOF

echo "==> OK"
