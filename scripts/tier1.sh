#!/usr/bin/env sh
# Tier-1 verification: build, full test suite, then the cross-thread
# determinism contract under both a serial and a parallel worker count
# (the engine must produce bit-identical results either way; see
# tests/determinism.rs and crates/sim/src/parallel.rs).
set -eu

cd "$(dirname "$0")/.."

echo "== tier1: format =="
cargo fmt --all -- --check

echo "== tier1: build (release) =="
cargo build --workspace --release --offline

echo "== tier1: clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier1: rustdoc (deny warnings) =="
# A stale or private intra-doc link is a warning to rustdoc; denying
# warnings keeps the docs' cross-references honest.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier1: cellfi-lint (deny-by-default, --json vs committed empty baseline) =="
# The workspace ships lint-zero: any finding fails the run and prints
# the report, and the machine-readable report must stay byte-identical
# to the committed empty-findings baseline, so a rule regression (or a
# sneaky allowlist) cannot pass silently.
LINT_TMP=$(mktemp)
if ! cargo run -q -p cellfi-lint --offline -- --json > "$LINT_TMP"; then
    cat "$LINT_TMP"
    rm -f "$LINT_TMP"
    exit 1
fi
diff tests/goldens/lint_baseline.json "$LINT_TMP"
rm -f "$LINT_TMP"

echo "== tier1: test suite =="
cargo test --workspace --offline -q

echo "== tier1: determinism, CELLFI_THREADS=1 =="
CELLFI_THREADS=1 cargo test --offline -q --test determinism

echo "== tier1: determinism, CELLFI_THREADS=4 =="
CELLFI_THREADS=4 cargo test --offline -q --test determinism

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
# ceiling turns that into a gate: a regression back to dense layouts
# cannot pass. getrusage(RUSAGE_CHILDREN) stands in for /usr/bin/time
# -v, which the CI image does not ship.
METRO_RSS_CEILING_KB=2000000
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

echo "== tier1: benchmark output checks (goldens, invariants, kernels) =="
# One zero-length pass of every benchmark workload: the seed-1 goldens
# and every output invariant must hold, or cellfi-bench exits 1. The
# traced paper run adds the per-layer path and the kernel checks. Rates
# are not gated here; BENCHMARK.json compares them change against parent.
BENCH="cargo run -q --release --offline --manifest-path benchmark/Cargo.toml --bin cellfi-bench --"
$BENCH all --seconds 0 > /dev/null
$BENCH run paper_saturated --seconds 0 --trace > /dev/null

echo "== tier1: benchmark test suite =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== tier1: OK =="
