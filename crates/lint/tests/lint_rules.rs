//! The linter's own verification suite: inline must-flag / must-pass
//! snippets per rule, on-disk fixtures, the allow-comment escape hatch,
//! and the guarantee that `vendor/` (and test code generally) is never
//! scanned.

use cellfi_lint::report::Finding;
use cellfi_lint::{lint_source, walk};
use std::path::{Path, PathBuf};

/// Lint a snippet as if it lived at an engine-crate library path.
fn lint_core(src: &str) -> Vec<Finding> {
    lint_source("crates/core/src/snippet.rs", src)
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- rule D

#[test]
fn determinism_flags_hash_collections_in_engine_crates() {
    let f = lint_core("use std::collections::HashMap;\n");
    assert_eq!(rules(&f), ["determinism"], "{f:?}");
    let f = lint_core("fn f(s: std::collections::HashSet<u32>) {}\n");
    assert_eq!(rules(&f), ["determinism"], "{f:?}");
}

#[test]
fn determinism_accepts_btree_collections() {
    let f = lint_core("use std::collections::{BTreeMap, BTreeSet};\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn determinism_hash_rule_is_scoped_to_order_sensitive_crates() {
    // propagation is not an engine-iteration crate; the collection rule
    // does not apply there (the clock/entropy rule still does).
    let f = lint_source(
        "crates/propagation/src/snippet.rs",
        "use std::collections::HashMap;\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn determinism_flags_wall_clocks_and_entropy_everywhere_but_bins() {
    for src in [
        "fn t() { let _ = std::time::Instant::now(); }\n",
        "fn t() { let _ = std::time::SystemTime::now(); }\n",
        "fn t() { let _ = thread_rng(); }\n",
        "fn t() { let _ = rand::rngs::StdRng::from_entropy(); }\n",
    ] {
        let f = lint_source("crates/types/src/snippet.rs", src);
        assert_eq!(rules(&f), ["determinism"], "{src}: {f:?}");
        let f = lint_source("crates/sim/src/bin/exp.rs", src);
        assert!(f.is_empty(), "bins may read clocks: {src}: {f:?}");
    }
}

#[test]
fn determinism_accepts_simulation_time_instants() {
    // cellfi_types::time::Instant has no now(); constructing and
    // comparing sim-time instants must not be flagged.
    let f = lint_core("fn t(i: Instant) -> u64 { i.as_micros() }\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn determinism_locks_spectrum_retry_paths_to_the_sim_clock() {
    // In crates/spectrum the rule is stricter than ::now() calls: the
    // lease lifecycle's backoff must replay byte-identically from the
    // run seed, so wall-clock types, real sleeps, and ambient entropy
    // are out even when merely named.
    for src in [
        "use std::time::Duration;\n",
        "fn f(d: std::time::Duration) { std::thread::sleep(d); }\n",
        "fn jitter() -> f64 { rand::random() }\n",
    ] {
        let f = lint_source("crates/spectrum/src/lifecycle.rs", src);
        assert!(
            rules(&f).contains(&"determinism"),
            "{src}: expected a determinism finding, got {f:?}"
        );
    }
}

#[test]
fn spectrum_sim_clock_rule_is_scoped_and_accepts_sim_time() {
    // Elsewhere the import alone stays legal (the global clock rule
    // still catches ::now() calls).
    let f = lint_core("use std::time::Duration;\n");
    assert!(f.is_empty(), "{f:?}");
    // And spectrum's own sim-clock idiom is clean: sim Instants plus a
    // SeedSeq-seeded RNG are exactly what the rule demands.
    let f = lint_source(
        "crates/spectrum/src/lifecycle.rs",
        "use cellfi_types::time::{Duration, Instant};\n\
         fn next(now: Instant, rng: &mut StdRng) -> Instant {\n\
             now + Duration::from_micros(rng.gen_range(0..1000))\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn spectrum_sim_clock_rule_covers_the_fleet_module() {
    // fleet.rs multiplexes every lifecycle's retry/backoff machinery
    // over the sharded backends, so the spectrum-wide sim-clock-only
    // rule must bind it exactly as it binds lifecycle.rs.
    for src in [
        "use std::time::Duration;\n",
        "fn pace(d: std::time::Duration) { std::thread::sleep(d); }\n",
        "fn jitter() -> f64 { rand::random() }\n",
    ] {
        let f = lint_source("crates/spectrum/src/fleet.rs", src);
        assert!(
            rules(&f).contains(&"determinism"),
            "{src}: expected a determinism finding, got {f:?}"
        );
    }
    // The fleet's real idiom — sim instants, seed-derived jitter — is
    // clean under the same rule.
    let f = lint_source(
        "crates/spectrum/src/fleet.rs",
        "use cellfi_types::time::{Duration, Instant};\n\
         fn activate(start: Instant, jitter_us: u64) -> Instant {\n\
             start + Duration::from_micros(jitter_us)\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------- rule P

#[test]
fn panic_flags_unwrap_expect_and_macros() {
    let f = lint_core("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    assert_eq!(rules(&f), ["panic"], "{f:?}");
    let f = lint_core("fn f(x: Option<u32>) -> u32 { x.expect(\"no\") }\n");
    assert_eq!(rules(&f), ["panic"], "short expect message: {f:?}");
    let f = lint_core("fn f() { panic!(\"boom\"); }\n");
    assert_eq!(rules(&f), ["panic"], "{f:?}");
    let f = lint_core("fn f() { todo!() }\n");
    assert_eq!(rules(&f), ["panic"], "{f:?}");
    let f = lint_core("fn f() { unimplemented!() }\n");
    assert_eq!(rules(&f), ["panic"], "{f:?}");
}

#[test]
fn panic_accepts_invariant_expects_and_non_panicking_unwraps() {
    for src in [
        "fn f(x: Option<u32>) -> u32 { x.expect(\"grid rows are always square\") }\n",
        "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
        "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n",
        "fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }\n",
    ] {
        let f = lint_core(src);
        assert!(f.is_empty(), "{src}: {f:?}");
    }
}

#[test]
fn panic_ignores_strings_comments_and_test_code() {
    let f = lint_core("fn f() -> &'static str { \"do not panic!(now)\" }\n");
    assert!(f.is_empty(), "string contents are opaque: {f:?}");
    let f = lint_core("// a comment may say .unwrap() freely\nfn f() {}\n");
    assert!(f.is_empty(), "comments are opaque: {f:?}");
    let f = lint_core(
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n",
    );
    assert!(f.is_empty(), "test modules are exempt: {f:?}");
    let f = lint_core("#[test]\nfn t() { None::<u32>.unwrap(); }\n");
    assert!(f.is_empty(), "#[test] items are exempt: {f:?}");
}

#[test]
fn test_exemption_requires_a_test_only_cfg() {
    // `not(test)` and `any(test, …)` guard code that ships: still linted.
    for cfg in ["not(test)", "any(test, feature = \"x\")"] {
        let f = lint_core(&format!(
            "#[cfg({cfg})]\nfn f(x: Option<u32>) -> u32 {{ x.unwrap() }}\n"
        ));
        assert_eq!(rules(&f), ["panic"], "{cfg}: {f:?}");
        assert_eq!(f[0].line, 2, "{cfg}: {f:?}");
    }
    // `test` as a direct argument of `all(...)` is test-only.
    let f = lint_core(
        "#[cfg(all(test, feature = \"x\"))]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_flags_outcome_phrased_expects() {
    // Long enough, but names the failure instead of the invariant.
    let f = lint_core("fn f(x: Option<u32>) -> u32 { x.expect(\"bad channel number\") }\n");
    assert_eq!(rules(&f), ["panic"], "{f:?}");
}

#[test]
fn panic_accepts_curated_invariant_phrasing() {
    for msg in [
        "grants are always in the plan",
        "non-empty by construction",
        "bootstrap channel comes straight from the grant list",
        "callers only pass attached UEs",
    ] {
        let src = format!("fn f(x: Option<u32>) -> u32 {{ x.expect(\"{msg}\") }}\n");
        let f = lint_core(&src);
        assert!(f.is_empty(), "{msg}: {f:?}");
    }
}

#[test]
fn panic_rule_skips_binaries() {
    let f = lint_source(
        "crates/sim/src/bin/exp.rs",
        "fn main() { std::fs::read(\"x\").unwrap(); }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------- rule U

#[test]
fn units_flags_raw_db_to_linear_conversions() {
    for src in [
        "fn f(x: f64) -> f64 { 10f64.powf(x / 10.0) }\n",
        "fn f(x: f64) -> f64 { 10.0_f64.powf(x / 10.0) }\n",
        "fn f(x: f64) -> f64 { 10_f64.powf(x / 20.0) }\n",
    ] {
        let f = lint_core(src);
        assert_eq!(rules(&f), ["units"], "{src}: {f:?}");
    }
}

#[test]
fn units_accepts_non_decibel_powf_and_newtype_conversions() {
    for src in [
        "fn f(x: f64) -> f64 { 2f64.powf(x) }\n",
        "fn f(x: f64) -> f64 { x.powf(2.0) }\n",
        "fn f(d: Dbm) -> f64 { d.to_milliwatts().value() }\n",
        "fn f(g: Db) -> f64 { g.to_linear() }\n",
    ] {
        let f = lint_core(src);
        assert!(f.is_empty(), "{src}: {f:?}");
    }
}

#[test]
fn units_flags_scaling_of_decibel_bindings() {
    let f = lint_core("fn f(snr_db: f64) -> f64 { snr_db * 2.0 }\n");
    assert_eq!(rules(&f), ["units"], "{f:?}");
    let f = lint_core("fn f(p_dbm: f64) -> f64 { p_dbm / 2.0 }\n");
    assert_eq!(rules(&f), ["units"], "{f:?}");
    // Compound assignment by a dB binding scales the target just the same.
    let f = lint_core("fn f(mut gain: f64, loss_db: f64) -> f64 { gain *= loss_db; gain }\n");
    assert_eq!(rules(&f), ["units"], "{f:?}");
    let f = lint_core("fn f(mut x: f64, snr_db: f64) -> f64 { x /= snr_db; x }\n");
    assert_eq!(rules(&f), ["units"], "{f:?}");
}

#[test]
fn units_accepts_additive_decibel_arithmetic() {
    let f = lint_core("fn f(tx_dbm: f64, gain_db: f64) -> f64 { tx_dbm + gain_db }\n");
    assert!(f.is_empty(), "{f:?}");
    let f = lint_core("fn f(a_db: f64, b_db: f64) -> f64 { a_db - b_db }\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn units_taint_propagates_through_simple_let_chains() {
    // One hop: a binding assigned from dB arithmetic is itself dB.
    let f = lint_core("fn f(snr_db: f64) -> f64 { let margin = snr_db - 3.0; margin * 2.0 }\n");
    assert_eq!(rules(&f), ["units"], "{f:?}");
    // Two hops: the chain reaches a fixpoint.
    let f = lint_core("fn f(snr_db: f64) -> f64 { let a = snr_db + 1.0; let b = a; b / 2.0 }\n");
    assert_eq!(rules(&f), ["units"], "{f:?}");
}

#[test]
fn units_taint_stops_at_calls_and_conversions() {
    for src in [
        // A conversion call may change the unit: no taint.
        "fn f(snr_db: Db) -> f64 { let lin = snr_db.to_linear(); lin * 2.0 }\n",
        // Constructor syntax likewise.
        "fn f(x_db: f64) -> f64 { let v = mw(x_db); v * 2.0 }\n",
        // Additive use of the tainted binding stays fine.
        "fn f(a_db: f64, b_db: f64) -> f64 { let m = a_db - b_db; m + 1.0 }\n",
    ] {
        let f = lint_core(src);
        assert!(f.is_empty(), "{src}: {f:?}");
    }
}

#[test]
fn units_module_itself_is_exempt() {
    let f = lint_source(
        "crates/types/src/units.rs",
        "pub fn to_linear(db: f64) -> f64 { 10f64.powf(db / 10.0) }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------- rule O

#[test]
fn obs_flags_allocation_inside_emit() {
    for src in [
        "fn f(t: &mut Tracer) { t.emit(now, Event::L { s: format!(\"x{}\", 1) }); }\n",
        "fn f(t: &mut Tracer) { t.emit(now, Event::L { s: name.to_string() }); }\n",
        "fn f(t: &mut Tracer) { t.emit(now, Event::L { s: name.to_owned() }); }\n",
        "fn f(t: &mut Tracer) { t.emit(now, Event::L { v: xs.clone() }); }\n",
        "fn f(t: &mut Tracer) { t.emit(now, Event::L { v: Vec::new() }); }\n",
        "fn f(t: &mut Tracer) { t.emit(now, Event::L { v: vec![1, 2] }); }\n",
    ] {
        let f = lint_core(src);
        assert_eq!(rules(&f), ["obs"], "{src}: {f:?}");
    }
}

#[test]
fn obs_accepts_numeric_payloads_and_unrelated_allocations() {
    for src in [
        "fn f(t: &mut Tracer) { t.emit(now, Event::Hop { cell: 1, from: 2, to: 3 }); }\n",
        // Allocation outside the emit argument list is not this rule's
        // business (panic/determinism rules own their own territory).
        "fn f(t: &mut Tracer) { let s = make(); t.emit(now, Event::Hop { cell: s.id }); }\n",
        // emit as a free function or a definition is not an event call.
        "fn emit(x: u32) -> u32 { x }\n",
    ] {
        let f = lint_core(src);
        assert!(f.is_empty(), "{src}: {f:?}");
    }
}

// ---------------------------------------------------------------- rule S

#[test]
fn structure_flags_oversized_engine_files() {
    let big = "// filler\n".repeat(cellfi_lint::rules::MAX_ENGINE_FILE_LINES + 1);
    let f = lint_source("crates/sim/src/engine/mac.rs", &big);
    assert_eq!(rules(&f), ["structure"], "{f:?}");
    assert!(f[0].message.contains("cap"), "message names the cap: {f:?}");
}

#[test]
fn structure_accepts_engine_files_at_the_cap() {
    let at_cap = "// filler\n".repeat(cellfi_lint::rules::MAX_ENGINE_FILE_LINES);
    let f = lint_source("crates/sim/src/engine/mac.rs", &at_cap);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn structure_rule_is_scoped_to_the_engine_directory() {
    let big = "// filler\n".repeat(cellfi_lint::rules::MAX_ENGINE_FILE_LINES + 100);
    for path in [
        "crates/sim/src/experiments/fig9.rs",
        "crates/core/src/manager.rs",
        "crates/sim/src/engine.rs", // a sibling *file*, not the directory
    ] {
        let f = lint_source(path, &big);
        assert!(f.is_empty(), "{path}: {f:?}");
    }
}

#[test]
fn structure_counts_test_code_and_ignores_allows() {
    // The cap covers the whole file — a test module at the bottom does
    // not buy headroom, and an allow directive cannot waive it.
    let mut src = "// cellfi-lint: allow(structure) — grandfathered\n".to_owned();
    src.push_str("#[cfg(test)]\nmod tests {\n");
    src.push_str(&"    // filler\n".repeat(cellfi_lint::rules::MAX_ENGINE_FILE_LINES));
    src.push_str("}\n");
    let f = lint_source("crates/sim/src/engine/tests.rs", &src);
    let r = rules(&f);
    assert!(r.contains(&"structure"), "cap still applies: {f:?}");
    assert!(
        r.contains(&"lint-allow"),
        "the ineffective allow is flagged as unused: {f:?}"
    );
}

// ------------------------------------------------------ rule v2: parallel

#[test]
fn parallel_flags_captured_mutation_in_fanout_closures() {
    let f = lint_core(
        "fn s(rows: &mut [f64], out: &mut Vec<f64>) {\n\
         \x20   for_each_chunk(rows, 4, 16, |_i, chunk| {\n\
         \x20       out.push(chunk[0]);\n\
         \x20   });\n\
         }\n",
    );
    assert_eq!(rules(&f), ["parallel"], "{f:?}");
}

#[test]
fn parallel_audits_the_worker_closure_of_a_ragged_fanout() {
    // The row-boundary closure comes first; the worker is the last
    // closure argument, and its captured writes are flagged.
    let f = lint_core(
        "fn s(rows: &mut [f64], ends: &[usize], out: &mut Vec<f64>) {\n\
         \x20   for_each_ragged(rows, 4, ends.len(), |g| ends[g], 8, |_g, group| {\n\
         \x20       out.push(group[0]);\n\
         \x20   });\n\
         }\n",
    );
    assert_eq!(rules(&f), ["parallel"], "{f:?}");
    let f = lint_core(
        "fn s(rows: &mut [f64], ends: &[usize]) {\n\
         \x20   for_each_ragged(rows, 4, ends.len(), |g| ends[g], 8, |_g, group| {\n\
         \x20       group.fill(1.0);\n\
         \x20   });\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn parallel_audits_fanouts_with_per_worker_state() {
    // Captured state stays shared between workers: mutating it flags.
    let f = lint_core(
        "fn s(rows: &mut [u32], states: &mut Vec<Vec<f64>>, log: &mut Vec<usize>) {\n\
         \x20   for_each_ragged_with(rows, 13, 4, |c| c + 1, 64, states, |c, row, buf| {\n\
         \x20       log.push(c);\n\
         \x20       buf.clear();\n\
         \x20       row.fill(0);\n\
         \x20   });\n\
         }\n",
    );
    assert_eq!(rules(&f), ["parallel"], "{f:?}");
    // Writing through the worker's own state argument is chunk-local.
    let f = lint_core(
        "fn s(rows: &mut [u32], states: &mut Vec<Scratch>, rates: &[f64]) {\n\
         \x20   for_each_ragged_with(rows, 13, 4, |c| c + 1, 64, states, |c, row, scratch| {\n\
         \x20       scratch.rates.resize(13, 0.0);\n\
         \x20       scratch.rates[0] = rates[c];\n\
         \x20       schedule(&scratch.rates, &mut scratch.remaining, row);\n\
         \x20   });\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn parallel_accepts_chunk_local_writes_and_locals() {
    let f = lint_core(
        "fn s(rows: &mut [f64]) {\n\
         \x20   for_each_chunk(rows, 4, 16, |_i, chunk| {\n\
         \x20       let mut acc = 0.0;\n\
         \x20       for v in chunk.iter_mut() {\n\
         \x20           *v += 1.0;\n\
         \x20           acc += *v;\n\
         \x20       }\n\
         \x20       chunk[0] = acc;\n\
         \x20   });\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn parallel_flags_sync_primitives_in_fanout_closures() {
    let f = lint_core(
        "fn s(rows: &mut [f64], n: &AtomicU64) {\n\
         \x20   for_each_row(rows, 8, |_i, row| {\n\
         \x20       n.fetch_add(1, Ordering::Relaxed);\n\
         \x20       *row = 0.0;\n\
         \x20   });\n\
         }\n",
    );
    assert!(rules(&f).contains(&"parallel"), "{f:?}");
}

#[test]
fn parallel_flags_captured_sink_emission_but_not_forked_sinks() {
    let f = lint_core(
        "fn s(rows: &mut [f64], t: &mut EventSink, now: Instant) {\n\
         \x20   for_each_row(rows, 8, |ue, row| {\n\
         \x20       *row = 0.0;\n\
         \x20       t.emit(now, Event::Hop { cell: ue as u32 });\n\
         \x20   });\n\
         }\n",
    );
    assert_eq!(rules(&f), ["parallel"], "{f:?}");
    // A sink living inside the per-entity row struct is local discipline.
    let f = lint_core(
        "fn s(rows: &mut [Row], now: Instant) {\n\
         \x20   for_each_row(rows, 8, |_ue, row| {\n\
         \x20       row.sink.emit(now, Event::Hop { cell: 0 });\n\
         \x20   });\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn parallel_requires_fork_and_absorb_in_the_same_fn() {
    let f = lint_core(
        "fn s(t: &mut EventSink) -> EventSink {\n\
         \x20   t.fork()\n\
         }\n",
    );
    assert_eq!(rules(&f), ["parallel"], "{f:?}");
    let f = lint_core(
        "fn s(t: &mut EventSink) {\n\
         \x20   let s = t.fork();\n\
         \x20   t.absorb(s);\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn parallel_rule_exempts_the_parallel_module_itself() {
    let f = lint_source(
        "crates/sim/src/parallel.rs",
        "fn s(rows: &mut [f64], out: &mut Vec<f64>) {\n\
         \x20   for_each_chunk(rows, 4, 16, |_i, chunk| { out.push(chunk[0]); });\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------- rule v2: slab

#[test]
fn slab_flags_stride_arithmetic_in_index_expressions() {
    let f = lint_core("fn f(d: &[f64], c: usize, i: usize, j: usize) -> f64 { d[i * c + j] }\n");
    assert_eq!(rules(&f), ["slab"], "multiply-add: {f:?}");
    let f = lint_core("fn f(d: &[f64], c: usize, i: usize) -> &[f64] { &d[i * c..(i + 1) * c] }\n");
    assert_eq!(rules(&f), ["slab"], "multiply-range: {f:?}");
}

#[test]
fn slab_accepts_plain_offsets_ranges_and_array_literals() {
    for src in [
        "fn f(d: &[f64], i: usize) -> f64 { d[i + 1] }\n",
        "fn f(d: &[f64], i: usize, j: usize) -> &[f64] { &d[i..j] }\n",
        "fn f(d: &[f64], i: usize) -> f64 { d[i] * 2.0 }\n",
        "fn f(i: usize) -> [usize; 2] { return [i * 2 + 1, i]; }\n",
        "fn f(s: &Slab3, u: usize, a: usize, k: usize) -> f64 { s.lane(u, a)[k] }\n",
    ] {
        let f = lint_core(src);
        assert!(f.is_empty(), "{src}: {f:?}");
    }
}

#[test]
fn slab_rule_exempts_the_slab_module_itself() {
    let f = lint_source(
        "crates/sim/src/slab.rs",
        "fn at(d: &[f64], c: usize, i: usize, j: usize) -> f64 { d[i * c + j] }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ----------------------------------------------------------- rule v2: hot

#[test]
fn hot_flags_allocation_in_marked_roots() {
    let f = lint_core(
        "// cellfi-lint: hot\n\
         fn refresh(xs: &[f64]) -> Vec<f64> {\n\
         \x20   xs.iter().map(|v| v * 2.0).collect()\n\
         }\n",
    );
    assert_eq!(rules(&f), ["hot"], "{f:?}");
    let f = lint_core(
        "// cellfi-lint: hot\n\
         fn label(id: u32) -> String {\n\
         \x20   format!(\"ue{}\", id)\n\
         }\n",
    );
    assert_eq!(rules(&f), ["hot"], "{f:?}");
}

#[test]
fn hot_propagates_through_direct_same_file_calls() {
    let f = lint_core(
        "// cellfi-lint: hot\n\
         fn tick(log: &mut Vec<f64>) {\n\
         \x20   record(log);\n\
         }\n\
         fn record(log: &mut Vec<f64>) {\n\
         \x20   log.push(0.0);\n\
         }\n",
    );
    assert_eq!(rules(&f), ["hot"], "{f:?}");
    assert!(f[0].message.contains("root `tick`"), "{f:?}");
}

#[test]
fn hot_does_not_propagate_through_foreign_type_constructors() {
    // `UeId::new(...)` must not mark this file's own `new` as hot.
    let f = lint_core(
        "// cellfi-lint: hot\n\
         fn tick(u: usize) -> UeId {\n\
         \x20   UeId::new(u as u32)\n\
         }\n\
         fn new(n: usize) -> Vec<f64> {\n\
         \x20   vec![0.0; n]\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hot_exempts_scratch_buffer_refills_and_cold_fns() {
    let f = lint_core(
        "// cellfi-lint: hot\n\
         fn refresh(row_scratch: &mut Vec<f64>, xs: &[f64]) {\n\
         \x20   row_scratch.clear();\n\
         \x20   for &x in xs {\n\
         \x20       row_scratch.push(x);\n\
         \x20   }\n\
         \x20   row_scratch.extend_from_slice(xs);\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
    // Unmarked fns allocate freely.
    let f = lint_core("fn build(n: usize) -> Vec<f64> { vec![0.0; n] }\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hot_flags_slab_clones() {
    let f = lint_core(
        "// cellfi-lint: hot\n\
         fn snap(g: &Slab3) -> Slab3 {\n\
         \x20   g.clone()\n\
         }\n",
    );
    assert_eq!(rules(&f), ["hot"], "{f:?}");
    // clone_from reuses the destination's capacity: distinct ident.
    let f = lint_core(
        "// cellfi-lint: hot\n\
         fn save(dst: &mut Vec<usize>, src: &Vec<usize>) {\n\
         \x20   dst.clone_from(src);\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------------------------------ rule v2: cachegen

#[test]
fn cachegen_flags_gain_writes_without_a_generation_bump() {
    let f = lint_core(
        "impl Engine {\n\
         \x20   fn poke(&mut self, u: usize, a: usize) {\n\
         \x20       self.lin_mw.lane_mut(u, a).fill(0.0);\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(rules(&f), ["cachegen"], "{f:?}");
    let f = lint_core(
        "impl Engine {\n\
         \x20   fn set_mean(&mut self, u: usize, a: usize, v: f64) {\n\
         \x20       self.dl_mean_dbm.set(u, a, v);\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(rules(&f), ["cachegen"], "{f:?}");
    let f = lint_core(
        "impl Engine {\n\
         \x20   fn clear_run(&mut self, first: usize, last: usize) {\n\
         \x20       self.static_mw.rows_mut(first..last).fill(0.0);\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(rules(&f), ["cachegen"], "{f:?}");
}

#[test]
fn cachegen_flags_index_writes_into_per_link_gain_arrays() {
    // Per-link arrays are written by index, not through an accessor.
    let f = lint_core(
        "impl Engine {\n\
         \x20   fn set_mean(&mut self, link: usize, v: f64) {\n\
         \x20       self.dl_mean_dbm[link] = v;\n\
         \x20   }\n\
         \x20   fn nudge(&mut self, link: usize) {\n\
         \x20       self.dl_mean_dbm[link] -= 3.0;\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(rules(&f), ["cachegen", "cachegen"], "{f:?}");
    // Bumped in the same fn, a read or comparison, and a per-link array
    // outside the gain state all pass.
    let f = lint_core(
        "impl Engine {\n\
         \x20   fn set_mean(&mut self, link: usize, v: f64) {\n\
         \x20       self.gain_gen += 1;\n\
         \x20       self.dl_mean_dbm[link] = v;\n\
         \x20   }\n\
         \x20   fn is_silent(&self, link: usize) -> bool {\n\
         \x20       self.dl_mean_dbm[link] == f64::NEG_INFINITY\n\
         \x20   }\n\
         \x20   fn set_uplink(&mut self, link: usize, v: f64) {\n\
         \x20       self.ul_mean_dbm[link] = v;\n\
         \x20   }\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn cachegen_flags_assoc_writes_without_a_generation_bump() {
    let f = lint_core(
        "impl Engine {\n\
         \x20   fn rehome(&mut self, ue: usize, ap: usize) {\n\
         \x20       self.scenario.assoc[ue] = ap;\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(rules(&f), ["cachegen"], "{f:?}");
}

#[test]
fn cachegen_accepts_writes_paired_with_their_bump() {
    let f = lint_core(
        "impl Engine {\n\
         \x20   fn rebuild(&mut self, u: usize, a: usize) {\n\
         \x20       self.gain_gen += 1;\n\
         \x20       self.lin_mw.lane_mut(u, a).fill(0.0);\n\
         \x20   }\n\
         \x20   fn rehome(&mut self, ue: usize, ap: usize) {\n\
         \x20       self.assoc_gen += 1;\n\
         \x20       self.scenario.assoc[ue] = ap;\n\
         \x20   }\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
    // Reads of gain state and of the association are unconstrained.
    let f = lint_core(
        "impl Engine {\n\
         \x20   fn read(&self, u: usize, a: usize, s: usize) -> f64 {\n\
         \x20       self.lin_mw.at(u, a, s) + (self.scenario.assoc[u] as f64)\n\
         \x20   }\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------------------------------- allow directives

#[test]
fn allow_comment_suppresses_on_the_same_line() {
    let f = lint_core(
        "use std::collections::HashMap; // cellfi-lint: allow(determinism) — lookups only\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn allow_comment_suppresses_on_the_next_line() {
    let f = lint_core(
        "// cellfi-lint: allow(panic) — fixture-proven infallible\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn allow_without_reason_does_not_suppress() {
    let f = lint_core("fn f(x: Option<u32>) -> u32 { x.unwrap() } // cellfi-lint: allow(panic)\n");
    let r = rules(&f);
    assert!(r.contains(&"panic"), "violation must survive: {f:?}");
    assert!(
        r.contains(&"lint-allow"),
        "and the bare allow is flagged: {f:?}"
    );
}

#[test]
fn allow_for_a_different_rule_does_not_suppress() {
    let f = lint_core(
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // cellfi-lint: allow(units) — wrong rule\n",
    );
    let r = rules(&f);
    assert!(r.contains(&"panic"), "{f:?}");
    assert!(
        r.contains(&"lint-allow"),
        "unused allow(units) is flagged: {f:?}"
    );
}

#[test]
fn malformed_directive_is_flagged_and_suppresses_nothing() {
    let f = lint_core(
        "// cellfi-lint: allw(panic) — typo\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let got: Vec<(&str, usize)> = f.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, [("lint-allow", 1), ("panic", 2)], "{f:?}");
    assert!(f[0].message.starts_with("malformed directive"), "{f:?}");
}

#[test]
fn unknown_rule_and_unused_allow_are_flagged() {
    let f = lint_core("fn f() {} // cellfi-lint: allow(sorcery) — hm\n");
    assert_eq!(rules(&f), ["lint-allow"], "{f:?}");
    let f = lint_core("fn f() {} // cellfi-lint: allow(panic) — nothing here panics\n");
    assert_eq!(rules(&f), ["lint-allow"], "{f:?}");
}

// ---------------------------------------------------------------- fixtures

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Every `must_flag_<rule>_*.rs` fixture produces at least one finding of
/// its named rule; every `must_pass_*.rs` fixture produces none.
#[test]
fn disk_fixtures_behave_as_named() {
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("fixture names are UTF-8")
            .to_owned();
        let src = std::fs::read_to_string(&path).expect("fixture is readable");
        // Fixtures are linted as engine-crate library code.
        let findings = lint_core(&src);
        if let Some(rest) = name.strip_prefix("must_flag_") {
            let rule = rest.split('_').next().expect("fixture name carries a rule");
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "{name}: expected a `{rule}` finding, got {findings:?}"
            );
        } else if name.starts_with("must_pass_") {
            assert!(
                findings.is_empty(),
                "{name}: expected clean, got {findings:?}"
            );
        } else {
            panic!("fixture {name} must start with must_flag_ or must_pass_");
        }
        checked += 1;
    }
    assert!(checked >= 6, "fixture sweep found only {checked} files");
}

// ------------------------------------------------------------- exclusions

/// The workspace walker never descends into `vendor/`, `target/`, test
/// trees, benches, examples, or the `benchmark/` package.
#[test]
fn vendor_and_test_trees_are_never_scanned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    let files = walk::collect_files(&root).expect("workspace walk succeeds");
    assert!(!files.is_empty());
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .expect("collected files live under the root")
            .to_string_lossy()
            .replace('\\', "/");
        for banned in [
            "vendor/",
            "target/",
            "/tests/",
            "/benches/",
            "/examples/",
            "benchmark/",
        ] {
            assert!(
                !rel.contains(banned),
                "{rel} must not be scanned (matched {banned})"
            );
        }
    }
    // Spot-check that real engine files are in the scanned set.
    let rels: Vec<String> = files
        .iter()
        .map(|f| {
            f.strip_prefix(&root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    for expected in [
        "crates/sim/src/engine/mac.rs",
        "crates/spectrum/src/selection.rs",
        "crates/types/src/units.rs",
        "src/lib.rs",
    ] {
        assert!(
            rels.iter().any(|r| r == expected),
            "{expected} missing from scan"
        );
    }
}

/// The shipped workspace itself stays lint-clean: every remaining
/// violation carries a reasoned allow, so the tier-1 gate holds.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    let (findings, scanned) = cellfi_lint::lint_workspace(&root).expect("workspace lints");
    assert!(
        scanned > 50,
        "expected to scan the whole workspace, got {scanned}"
    );
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean: {findings:#?}"
    );
}
