#!/usr/bin/env sh
# Tier-1 verification: build, full test suite, then the cross-thread
# determinism contract under both a serial and a parallel worker count
# (the engine must produce bit-identical results either way; see
# tests/determinism.rs and crates/sim/src/parallel.rs).
set -eu

cd "$(dirname "$0")/.."

# Every cargo invocation below passes --locked: a dependency edit that
# would rewrite Cargo.lock or benchmark/Cargo.lock fails the run instead
# of silently changing the lockfile.

echo "== tier1: format =="
cargo fmt --all -- --check

echo "== tier1: build (release) =="
cargo build --workspace --release --offline --locked

echo "== tier1: clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== tier1: rustdoc (deny warnings) =="
# A stale or private intra-doc link is a warning to rustdoc; denying
# warnings keeps the docs' cross-references honest.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

echo "== tier1: cellfi-lint (deny-by-default, --json vs committed empty baseline) =="
# The workspace ships lint-zero: any finding fails the run and prints
# the report, and the machine-readable report must stay byte-identical
# to the committed empty-findings baseline, so a rule regression (or a
# sneaky allowlist) cannot pass silently.
LINT_TMP=$(mktemp)
if ! cargo run -q -p cellfi-lint --offline --locked -- --json > "$LINT_TMP"; then
    cat "$LINT_TMP"
    rm -f "$LINT_TMP"
    exit 1
fi
diff tests/goldens/lint_baseline.json "$LINT_TMP"
rm -f "$LINT_TMP"

echo "== tier1: test suite =="
cargo test --workspace --offline --locked -q

echo "== tier1: PF scheduler proptests (release, PROPTEST_CASES=20000) =="
# pf_allocate's lane form against its scalar form, and Cell's scheduler
# against the keyed oracle on 13 and 25 subchannels, over 20,000 seeded
# cases each instead of the default 96, in the optimised build the
# simulator runs. The vendored proptest reads PROPTEST_CASES only for
# blocks without an explicit case count, which these have.
PROPTEST_CASES=20000 cargo test --release --offline --locked -q -p cellfi-lte --lib -- \
    scheduler::tests::properties cell::tests::differential

echo "== tier1: determinism, CELLFI_THREADS=1 =="
CELLFI_THREADS=1 cargo test --offline --locked -q --test determinism

echo "== tier1: determinism, CELLFI_THREADS=4 =="
CELLFI_THREADS=4 cargo test --offline --locked -q --test determinism

echo "== tier1: trace smoke (byte-identical across thread counts and vs goldens) =="
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
EXP=target/release/exp
for name in fig7b fig9a; do
    (cd "$TRACE_TMP" && CELLFI_THREADS=1 "$OLDPWD/$EXP" "$name" --trace --quick > /dev/null)
    mv "$TRACE_TMP/TRACE_$name.jsonl" "$TRACE_TMP/trace_t1.jsonl"
    mv "$TRACE_TMP/METRICS_$name.jsonl" "$TRACE_TMP/metrics_t1.jsonl"
    (cd "$TRACE_TMP" && CELLFI_THREADS=8 "$OLDPWD/$EXP" "$name" --trace --quick > /dev/null)
    "$EXP" trace-diff "$TRACE_TMP/trace_t1.jsonl" "$TRACE_TMP/TRACE_$name.jsonl"
    "$EXP" trace-diff "$TRACE_TMP/metrics_t1.jsonl" "$TRACE_TMP/METRICS_$name.jsonl"
    # The streams must also match the committed pre-refactor goldens:
    # behaviour preservation, not just thread independence.
    "$EXP" trace-diff "tests/goldens/TRACE_$name.jsonl" "$TRACE_TMP/TRACE_$name.jsonl"
    "$EXP" trace-diff "tests/goldens/METRICS_$name.jsonl" "$TRACE_TMP/METRICS_$name.jsonl"
done

echo "== tier1: chaos smoke (fault-injected trace byte-identical across thread counts) =="
# The chaos experiment layers the fault injector and lease lifecycles on
# top of the engine; its resilience event stream must stay a pure
# function of the seed regardless of worker count. No committed golden:
# the contract here is thread independence, pinned values live in
# tests/goldens/values_chaos.json.
(cd "$TRACE_TMP" && CELLFI_THREADS=1 "$OLDPWD/$EXP" chaos --trace --quick > /dev/null)
mv "$TRACE_TMP/TRACE_chaos.jsonl" "$TRACE_TMP/trace_t1.jsonl"
mv "$TRACE_TMP/METRICS_chaos.jsonl" "$TRACE_TMP/metrics_t1.jsonl"
(cd "$TRACE_TMP" && CELLFI_THREADS=8 "$OLDPWD/$EXP" chaos --trace --quick > /dev/null)
"$EXP" trace-diff "$TRACE_TMP/trace_t1.jsonl" "$TRACE_TMP/TRACE_chaos.jsonl"
"$EXP" trace-diff "$TRACE_TMP/metrics_t1.jsonl" "$TRACE_TMP/METRICS_chaos.jsonl"

echo "== tier1: spectrum_scale smoke (fleet golden, fleet monitors, desync trace across thread counts) =="
# The fleet experiment multiplexes 2,048 lease lifecycles over 8
# sharded PAWS backends with desynchronized renewals and a grant
# cache. Gates: quick-mode values byte-identical to the committed
# golden, the two-monitor fleet catalogue green (lease gate + vacate
# margin), the new fleet event kinds present in the trace, and the
# trace byte-identical between serial and parallel runs.
(cd "$TRACE_TMP" && CELLFI_THREADS=1 "$OLDPWD/$EXP" spectrum_scale --trace --monitors --quick --json > "$TRACE_TMP/fleet_out.txt")
grep "^spectrum_scale: monitors: armed=2" "$TRACE_TMP/fleet_out.txt" | grep " violations=0"
sed -n "/^{/,/^}/p" "$TRACE_TMP/fleet_out.txt" | diff tests/goldens/values_spectrum_scale.json -
grep -q "\"ev\":\"renew_batch\"" "$TRACE_TMP/TRACE_spectrum_scale.jsonl"
grep -q "\"ev\":\"cache_hit\"" "$TRACE_TMP/TRACE_spectrum_scale.jsonl"
grep -q "\"ev\":\"shard_outage\"" "$TRACE_TMP/TRACE_spectrum_scale.jsonl"
# trace-query --entity reads each kind's entity field from the event
# schema: shard 0's renewal batches must be found.
"$EXP" trace-query "$TRACE_TMP/TRACE_spectrum_scale.jsonl" --kind renew_batch --entity 0 \
    | grep -Eq "^total[[:space:]]+[1-9]"
mv "$TRACE_TMP/TRACE_spectrum_scale.jsonl" "$TRACE_TMP/trace_t1.jsonl"
mv "$TRACE_TMP/METRICS_spectrum_scale.jsonl" "$TRACE_TMP/metrics_t1.jsonl"
(cd "$TRACE_TMP" && CELLFI_THREADS=8 "$OLDPWD/$EXP" spectrum_scale --trace --monitors --quick > /dev/null)
"$EXP" trace-diff "$TRACE_TMP/trace_t1.jsonl" "$TRACE_TMP/TRACE_spectrum_scale.jsonl"
"$EXP" trace-diff "$TRACE_TMP/metrics_t1.jsonl" "$TRACE_TMP/METRICS_spectrum_scale.jsonl"

echo "== tier1: invariant monitors + trace-query smoke (fig9a) =="
# fig9a runs with the full monitor catalogue armed: the gate is zero
# violations on the healthy paper topology (a violation writes
# FLIGHT_fig9a.jsonl and exits non-zero, failing the pipe under set -e).
(cd "$TRACE_TMP" && CELLFI_THREADS=1 "$OLDPWD/$EXP" fig9a --trace --monitors --quick > "$TRACE_TMP/monitors_out.txt")
grep "monitors: armed=4" "$TRACE_TMP/monitors_out.txt" | grep " violations=0"
# The written trace must round-trip through the query engine: a per-kind
# count table with a non-empty total row.
"$EXP" trace-query "$TRACE_TMP/TRACE_fig9a.jsonl" --group-by ev --agg count \
    | grep -q "^total"

echo "== tier1: fig9metro smoke (metro-scale culled run: golden, monitors, RSS ceiling) =="
# 2,500 cells / 100,000 clients fit in memory only because the spatial
# index culls the interference model to the near field — the dense
# [ue][ap][subchannel] slabs alone would need terabytes. The RSS
# ceiling turns that into a gate: with the link-indexed slabs (one gain
# slab, fading is off here), a CQI memo that keeps CQI columns but no
# interference hits, and per-UE CQI, interference flags and free
# streaks in flat [ue][subchannel] slabs, the run peaks near
# 167,500 KB, and the ceiling sits at about 1.3x that. Three heap Vecs
# per UE again (179,000 KB) still pass; stored hit buffers (about
# 110 MB here; with them the run peaked at 290,000 KB), slabs padded to
# the longest neighbor row (627,500 KB) or dense layouts cannot. RSS is
# deterministic, so the gate does not flake. getrusage(RUSAGE_CHILDREN)
# stands in for /usr/bin/time -v, which the CI image does not ship.
METRO_RSS_CEILING_KB=218000
(cd "$TRACE_TMP" && CELLFI_THREADS=1 python3 -c '
import resource, subprocess, sys
rc = subprocess.call(sys.argv[1:])
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
open("metro_rss_kb", "w").write(str(kb))
sys.exit(rc)
' "$OLDPWD/$EXP" fig9metro --quick --trace --monitors --json > "$TRACE_TMP/metro_out.txt")
grep "^fig9metro: monitors: armed=4" "$TRACE_TMP/metro_out.txt" | grep " violations=0"
# Quick-mode values must match the committed golden byte for byte.
sed -n "/^{/,/^}/p" "$TRACE_TMP/metro_out.txt" | diff tests/goldens/values_fig9metro.json -
# The traced pocket run must carry the cull audit trail.
grep -q "\"ev\":\"cull\"" "$TRACE_TMP/TRACE_fig9metro.jsonl"
"$EXP" trace-query "$TRACE_TMP/TRACE_fig9metro.jsonl" --kind cull --entity 0 \
    | grep -Eq "^total[[:space:]]+[1-9]"
METRO_RSS_KB=$(cat "$TRACE_TMP/metro_rss_kb")
echo "fig9metro max RSS: ${METRO_RSS_KB} KB (ceiling ${METRO_RSS_CEILING_KB} KB)"
[ "$METRO_RSS_KB" -le "$METRO_RSS_CEILING_KB" ]

echo "== tier1: benchmark output checks (goldens, invariants, kernels, allocations) =="
# One zero-length pass of every benchmark workload at seed 1 and at
# seed 2: the goldens and every output invariant must hold, or
# cellfi-bench exits 1. Speed claims are measured on the held-out seed-2
# runs, so their goldens are checked here too. The traced paper run adds
# the per-layer path and the kernel checks. Rates are not gated here;
# BENCHMARK.json compares them change against parent.
BENCH="cargo run -q --release --offline --locked --manifest-path benchmark/Cargo.toml --bin cellfi-bench --"
$BENCH all --seconds 0 > /dev/null
$BENCH all --seconds 0 --seed 2 > /dev/null
$BENCH run paper_saturated --seconds 0 --trace > "$TRACE_TMP/bench_traced.jsonl"
# Heap allocations per subframe on the traced paper run. The MAC pass
# reuses engine-owned buffers (per-worker scratch included) and a CQI
# scan that does not fan out allocates nothing, so what remains is the
# delivery list step_subframe returns (1.303045); a per-subframe
# allocation creeping back into the loop, such as MAC scheduling
# starting from fresh worker scratch every subframe (2.4 more), pushes
# the count past the ceiling. It is a count, not a timing, so host
# noise cannot flake it.
# metric FILE NAME: a metric's value from a traced run's last JSON line.
metric() {
    tail -n 1 "$1" | python3 -c '
import json, sys
print(json.load(sys.stdin)["metrics"][sys.argv[1]]["value"])
' "$2"
}
ALLOCS_PER_SF_MAX=2
ALLOCS_PER_SF=$(metric "$TRACE_TMP/bench_traced.jsonl" engine.allocs_per_sf)
echo "paper_saturated engine.allocs_per_sf: ${ALLOCS_PER_SF} (ceiling ${ALLOCS_PER_SF_MAX})"
python3 -c 'import sys; sys.exit(float(sys.argv[1]) > float(sys.argv[2]))' \
    "$ALLOCS_PER_SF" "$ALLOCS_PER_SF_MAX"
# The same count on the parallel paths: the paper run never splits, so
# an allocation inside a fan-out worker is invisible to it. The traced
# metro_2500 run splits MAC scheduling and HARQ resolution every
# downlink subframe (plus the CQI scan and the interference-cache
# refresh) over two workers and reads 11.813333, the workers' thread
# spawns; one allocation per call in each worker of both per-subframe
# fan-outs adds about 3.2.
$BENCH run metro_2500 --seconds 0 --trace > "$TRACE_TMP/bench_metro_traced.jsonl"
METRO_ALLOCS_PER_SF_MAX=13
METRO_ALLOCS_PER_SF=$(metric "$TRACE_TMP/bench_metro_traced.jsonl" engine.allocs_per_sf)
echo "metro_2500 engine.allocs_per_sf: ${METRO_ALLOCS_PER_SF} (ceiling ${METRO_ALLOCS_PER_SF_MAX})"
python3 -c 'import sys; sys.exit(float(sys.argv[1]) > float(sys.argv[2]))' \
    "$METRO_ALLOCS_PER_SF" "$METRO_ALLOCS_PER_SF_MAX"
# Heap allocations per 10 ms tick of the Wi-Fi DCF slot loop on the
# traced web_paired run. The loop reads link tables built at
# construction and reuses its interval, exchange and interferer
# buffers, so it reads exactly 0; collecting the due checkpoints and the
# interferer list per call reads about 21, and recomputing link budgets
# in the loop about 379.
$BENCH run web_paired --seconds 0 --trace > "$TRACE_TMP/bench_web_traced.jsonl"
WIFI_ALLOCS_PER_TICK_MAX=1
WIFI_ALLOCS_PER_TICK=$(metric "$TRACE_TMP/bench_web_traced.jsonl" wifi.allocs_per_tick)
echo "web_paired wifi.allocs_per_tick: ${WIFI_ALLOCS_PER_TICK} (ceiling ${WIFI_ALLOCS_PER_TICK_MAX})"
python3 -c 'import sys; sys.exit(float(sys.argv[1]) > float(sys.argv[2]))' \
    "$WIFI_ALLOCS_PER_TICK" "$WIFI_ALLOCS_PER_TICK_MAX"
# Heap allocations per measured step (10 ms of simulated time) of the
# same run, both legs. The CQI scan runs every 2 ms and, when it does
# not fan out, allocates nothing, so the count reads 10.7496; an
# allocation per scan adds up to 5 per step (a per-miss Vec of row
# references read 12.659733).
WEB_ALLOCS_PER_STEP_MAX=13
WEB_ALLOCS_PER_STEP=$(metric "$TRACE_TMP/bench_web_traced.jsonl" alloc.per_step)
echo "web_paired alloc.per_step: ${WEB_ALLOCS_PER_STEP} (ceiling ${WEB_ALLOCS_PER_STEP_MAX})"
python3 -c 'import sys; sys.exit(float(sys.argv[1]) > float(sys.argv[2]))' \
    "$WEB_ALLOCS_PER_STEP" "$WEB_ALLOCS_PER_STEP_MAX"
# Heap allocations per 250 ms tick of the traced fleet_chaos run (4,096
# lease lifecycles over 8 shards). Availability is answered from channel
# bit masks and the selector indexes fixed per-plan arrays, so what
# remains is mostly the PAWS wire types (device descriptors cloned per
# request, cached responses cloned per hit): 1,964.0117 exactly. Copying
# the grant list before each selection adds about 340; building channel
# sets per availability query, as before, read 35,099.41.
$BENCH run fleet_chaos --seconds 0 --trace > "$TRACE_TMP/bench_fleet_traced.jsonl"
FLEET_ALLOCS_PER_TICK_MAX=2160
FLEET_ALLOCS_PER_TICK=$(metric "$TRACE_TMP/bench_fleet_traced.jsonl" fleet.allocs_per_tick)
echo "fleet_chaos fleet.allocs_per_tick: ${FLEET_ALLOCS_PER_TICK} (ceiling ${FLEET_ALLOCS_PER_TICK_MAX})"
python3 -c 'import sys; sys.exit(float(sys.argv[1]) > float(sys.argv[2]))' \
    "$FLEET_ALLOCS_PER_TICK" "$FLEET_ALLOCS_PER_TICK_MAX"

echo "== tier1: benchmark test suite =="
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "== tier1: OK =="
