//! The CellFi rule catalogue.
//!
//! Every rule reads one file's parsed token stream ([`crate::parse`]);
//! the `parallel` and `hot` rules add scope-tracked dataflow
//! ([`crate::dataflow`]). Nine families, named in findings and in allow
//! directives:
//!
//! * **`determinism`** — byte-identical replay is a workspace contract
//!   (`tests/determinism.rs`). Engine-path library code must not iterate
//!   `HashMap`/`HashSet` (randomized iteration order), and library code
//!   anywhere must not read wall clocks (`Instant::now`,
//!   `SystemTime::now`) or draw OS entropy (`thread_rng`,
//!   `from_entropy`). Benches and `bin/` targets are exempt: timing a
//!   run and seeding a CLI from the OS are their job. The PAWS lease
//!   machinery (`crates/spectrum`) is held to a stricter standard: its
//!   retry/backoff paths must schedule on the simulation clock and draw
//!   jitter from seeded RNGs only, so merely naming `std::time`,
//!   blocking with `thread::sleep`, or sampling `rand::random` is
//!   flagged there — a fault-injected lease schedule must replay
//!   byte-identically from the run seed.
//! * **`panic`** — library crates must not `.unwrap()`, `panic!`,
//!   `todo!`, or `unimplemented!`. `.expect("...")` is the sanctioned
//!   escape for provably-infallible cases; its message must state the
//!   invariant: at least [`MIN_EXPECT_MSG`] bytes *and* phrased with the
//!   curated invariant vocabulary ([`INVARIANT_STEMS`]) so it asserts
//!   why failure is impossible rather than naming the failure.
//! * **`units`** — dB/linear conversions belong to
//!   `crates/types/src/units.rs` (`Dbm`/`Db`/`MilliWatts`). Raw
//!   `10f64.powf(x / 10.0)`-style conversions, and multiplying or
//!   dividing (`*`, `/`, `*=`, `/=`) a `*_db`/`*_dbm`-named binding (dB
//!   is logarithmic; scaling it is almost always a link-budget bug),
//!   are flagged everywhere else. Decibel-ness also propagates through
//!   simple `let` chains: `let margin = snr_db - floor_db;` taints
//!   `margin`, so scaling it later is flagged too.
//! * **`structure`** — the layered engine must stay decomposed: no file
//!   under `crates/sim/src/engine/` may exceed
//!   [`MAX_ENGINE_FILE_LINES`] lines. The engine was once a ~1,900-line
//!   monolith; this cap keeps PHY, MAC and the IM strategies from
//!   silently re-accreting into one. The finding is file-level and has
//!   no allow escape — the fix is to split the file, not to waive it.
//! * **`obs`** — observability must be free when it is off: the
//!   argument list of an `.emit(...)` event call must not allocate
//!   (`format!`, `to_string`, `to_owned`, `vec!`, `Vec::new`,
//!   `Box::new`, `.clone()`, …). Payloads are plain numerics; the
//!   disabled path costs exactly one branch. `.register(...)` monitor
//!   check closures run every armed tick and are held to the same bar.
//! * **`parallel`** — byte-identical replay across `CELLFI_THREADS`.
//!   Closures passed to the `parallel::for_each_chunk` /
//!   `for_each_ragged` / `for_each_ragged_with` / `for_each_row` /
//!   `map_indexed` fan-outs (the last closure argument is the worker)
//!   must not mutate captured state (cross-chunk writes alias between
//!   workers; a worker's own state argument is its own) or reach for
//!   scheduling-dependent synchronization (`Mutex`, atomics,
//!   `unsafe`); trace events inside them must go through a forked
//!   per-entity sink, and a fn that forks sinks must absorb them back
//!   (entity-index order) in the same fn.
//! * **`slab`** — one home for stride math. Index expressions that
//!   re-derive slab offsets (`base * stride + k`, multiply-add or
//!   multiply-range arithmetic inside `[...]`) are forbidden outside
//!   `crates/sim/src/slab.rs`; everything else goes through the
//!   `Slab2`/`Slab3` accessors, so a layout change cannot silently
//!   desynchronize hand-rolled offsets.
//! * **`hot`** — the steady-state subframe loop allocates nothing.
//!   Fns marked `// cellfi-lint: hot` (and everything they reach by
//!   direct same-file calls) may not allocate (`Vec::new`, `vec!`,
//!   `collect`, `push`, `format!`, `to_string`, `to_owned`,
//!   `to_vec`, `String::from`, `Box::new`) except into bindings whose
//!   path names a reserved `*scratch*` buffer, and may not `clone`
//!   slab-typed values.
//! * **`cachegen`** — generation-keyed caches never serve stale data.
//!   A fn that writes slab gain state (`self.lin_mw` /
//!   `self.static_mw` / `self.dl_mean_dbm` through a mutating
//!   accessor, a wholesale `=`, or an index assignment such as
//!   `self.dl_mean_dbm[link] = …`) must bump `gain_gen` in the same
//!   fn, and a write to the
//!   association table (`…assoc[ue] = …`) must bump `assoc_gen` — the
//!   `(generation, set_id)` keys of `TxSetTracker` /
//!   `InterferenceCache` / `CqiMemo` only invalidate when the
//!   generation moves.
//!
//! Items under `#[test]` or a test-only `#[cfg(...)]` are never
//! checked. Any finding can be waived line-by-line with
//! `// cellfi-lint: allow(<rule>) — <reason>`; a directive with an
//! unknown rule, a missing reason, or nothing to suppress is itself a
//! finding (`lint-allow`), so the escape hatch cannot rot silently.

use crate::dataflow;
use crate::lexer::ScannedFile;
use crate::parse::{self, Closure, Parsed, TokKind, Token};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Shortest `.expect()` message that can plausibly state an invariant.
pub const MIN_EXPECT_MSG: usize = 8;

/// Curated invariant vocabulary for `.expect()` messages. A message must
/// contain at least one stem, which forces it to *assert a property*
/// ("grants are always in the plan", "non-empty by construction")
/// instead of naming the failure ("bad channel"). Stems are matched
/// case-insensitively as substrings; the trailing space on the copulas
/// keeps them from matching inside words.
pub const INVARIANT_STEMS: &[&str] = &[
    "always",
    "never",
    "only",
    "every",
    "at least",
    "at most",
    "non-empty",
    "by construction",
    "implies",
    "guarantee",
    "comes straight",
    "is total",
    "registered",
    "reachable",
    "known",
    "finite",
    "underflow",
    "overflow",
    "poisoned",
    "serializes",
    "in-plan",
    "in the plan",
    "have ",
    "has ",
    "are ",
    "is ",
    "yields",
    "filled",
    "staged",
    "fired",
    "records",
    "accepts",
    "round trip",
];

/// Rule names accepted in `allow(...)` directives. `structure` findings
/// are file-level and cannot be waived, but the name is known so a stray
/// `allow(structure)` reads as unused rather than as a typo.
pub const RULE_NAMES: &[&str] = &[
    "determinism",
    "panic",
    "units",
    "obs",
    "structure",
    "parallel",
    "slab",
    "hot",
    "cachegen",
];

/// Directories whose files must stay decomposed (the engine was once a
/// ~1,900-line monolith; see the `structure` rule).
const STRUCTURE_DIRS: &[&str] = &["crates/sim/src/engine/"];

/// Line cap for files under a `STRUCTURE_DIRS` directory.
pub const MAX_ENGINE_FILE_LINES: usize = 700;

/// Crates whose library code must not use order-randomized collections.
const ORDER_SENSITIVE_CRATES: &[&str] = &["core", "lte", "obs", "sim", "spectrum"];

/// The crate whose retry/backoff machinery must run on simulation time
/// and seeded randomness only (see the stricter determinism sub-rule).
const SIM_CLOCK_ONLY_CRATE: &str = "spectrum";

/// `determinism` probes as `(path, why)`; a hit reads "`{path} {why}`".
/// Order-randomized collections, checked in [`ORDER_SENSITIVE_CRATES`].
const HASH_COLLECTIONS: &[(&str, &str)] = &[("HashMap", HASH_ORDER), ("HashSet", HASH_ORDER)];
const HASH_ORDER: &str = "has a randomized iteration order; use BTreeMap/BTreeSet \
                          or a hasher seeded from the run seed in engine-path code";

/// Wall clocks and OS entropy, checked in every library crate.
const CLOCKS_AND_ENTROPY: &[(&str, &str)] = &[
    ("Instant::now", WALL_CLOCK),
    ("SystemTime::now", WALL_CLOCK),
    ("thread_rng", OS_ENTROPY),
    ("from_entropy", OS_ENTROPY),
];
const WALL_CLOCK: &str = "reads the wall clock; simulation state must only \
                          depend on cellfi_types::time and the run seed";
const OS_ENTROPY: &str = "draws OS entropy; derive randomness from the run \
                          seed via cellfi_types::rng::SeedSeq";

/// The stricter [`SIM_CLOCK_ONLY_CRATE`] sub-rule: the lease lifecycle's
/// retry/backoff paths must schedule on the simulation clock and draw
/// jitter from seeded RNGs, so even *naming* `std::time` (wall-clock
/// types), blocking with `thread::sleep`, or sampling `rand::random` is
/// a finding there, not just calling `::now()`. Compliance under
/// arbitrary fault schedules is proved by replaying them byte-identically
/// from the run seed; one wall-clock read anywhere in the retry path
/// would void that proof.
const SIM_CLOCK_ONLY: &[(&str, &str)] = &[
    (
        "std::time",
        "in the PAWS lease machinery: wall-clock time types; lease \
         retry/backoff schedules on cellfi_types::time (sim \
         Instant/Duration) only",
    ),
    (
        "thread::sleep",
        "in the PAWS lease machinery: blocks on real time; schedule the \
         retry at a future sim Instant and let the harness tick reach it",
    ),
    (
        "rand::random",
        "in the PAWS lease machinery: ambient OS entropy; backoff jitter \
         must come from an RNG seeded via cellfi_types::rng::SeedSeq",
    ),
];

/// Allocation markers forbidden inside `.emit(...)` argument lists.
const EMIT_ALLOC_MARKERS: &[&str] = &[
    "format!",
    "vec!",
    "to_string",
    "to_owned",
    "to_vec",
    "clone",
    "String::from",
    "Vec::new",
    "Box::new",
];

/// The deterministic fan-out helpers whose worker closures the
/// `parallel` rule audits (see `crates/sim/src/parallel.rs`).
const FAN_OUT: &[&str] = &[
    "for_each_chunk",
    "for_each_ragged",
    "for_each_ragged_with",
    "for_each_row",
    "map_indexed",
];

/// Identifiers that imply scheduling-dependent shared state inside a
/// fan-out closure. `Atomic*` is matched by prefix.
const SYNC_TOKENS: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "unsafe",
];

/// The implementation homes the discipline rules trust: stride math
/// lives in the slab module, worker plumbing in the parallel module.
const SLAB_MODULE: &str = "crates/sim/src/slab.rs";
const PARALLEL_MODULE: &str = "crates/sim/src/parallel.rs";

/// Slab gain state: writes through these `self` fields feed the
/// `(gain_gen, …)` cache keys.
const GAIN_FIELDS: &[&str] = &["lin_mw", "static_mw", "dl_mean_dbm"];

/// Assignment operators that make `place[index] <op> …` a write.
const INDEX_WRITE_OPS: &[&str] = &["=", "+=", "-=", "*=", "/="];

/// Mutating accessors through which slab state is written.
const GAIN_MUT_METHODS: &[&str] = &[
    "set",
    "at_mut",
    "lane_mut",
    "row_mut",
    "rows_mut",
    "as_mut_slice",
    "fill",
];

/// Allocation calls that are exempt when they land in a `*scratch*`
/// binding (reserving/refilling scratch is how the steady state stays
/// allocation-free); everything else in [`HOT_FORBIDDEN_METHODS`] and
/// the macro/qualified sets is flagged unconditionally.
const HOT_SCRATCH_EXEMPT: &[&str] = &["collect", "push", "extend", "insert"];

/// Method calls forbidden in hot fns (subject to the scratch
/// exemption above where listed).
const HOT_FORBIDDEN_METHODS: &[&str] = &[
    "collect",
    "push",
    "extend",
    "insert",
    "to_string",
    "to_owned",
    "to_vec",
];

/// Qualified constructors forbidden in hot fns. `Vec::new` and
/// `Vec::with_capacity` get the scratch exemption (reserving scratch);
/// the rest never do.
const HOT_QUALIFIED: &[(&str, bool)] = &[
    ("Vec::new", true),
    ("Vec::with_capacity", true),
    ("String::new", false),
    ("String::from", false),
    ("String::with_capacity", false),
    ("Box::new", false),
];

/// Where a file sits in the workspace, driving rule applicability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The `crates/<name>` component, or `None` for the root crate.
    pub crate_name: Option<String>,
    /// `src/bin/` targets and `main.rs` files.
    pub is_bin: bool,
}

impl FileContext {
    /// Classify a workspace-relative path.
    pub fn from_path(path: &str) -> FileContext {
        let norm = path.replace('\\', "/");
        let crate_name = norm
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        let is_bin = norm.contains("/bin/") || norm.ends_with("/main.rs") || norm == "main.rs";
        FileContext {
            path: norm,
            crate_name,
            is_bin,
        }
    }

    fn order_sensitive(&self) -> bool {
        !self.is_bin
            && self
                .crate_name
                .as_deref()
                .is_some_and(|c| ORDER_SENSITIVE_CRATES.contains(&c))
    }

    fn is_units_module(&self) -> bool {
        self.path.ends_with("types/src/units.rs")
    }

    fn in_structure_dir(&self) -> bool {
        STRUCTURE_DIRS.iter().any(|d| self.path.starts_with(d))
    }
}

/// Run every applicable rule over one already-scanned file.
pub fn lint_scanned(ctx: &FileContext, scanned: &ScannedFile) -> Vec<Finding> {
    let parsed = parse::parse(scanned);
    let mut sink = Sink {
        ctx,
        scanned,
        parsed: &parsed,
        findings: Vec::new(),
        used_allows: vec![false; scanned.allows.len()],
    };

    if ctx.order_sensitive() {
        check_paths(&mut sink, HASH_COLLECTIONS);
    }
    if !ctx.is_bin {
        check_paths(&mut sink, CLOCKS_AND_ENTROPY);
        if ctx.crate_name.as_deref() == Some(SIM_CLOCK_ONLY_CRATE) {
            check_paths(&mut sink, SIM_CLOCK_ONLY);
        }
        check_panics(&mut sink);
        check_obs(&mut sink);
        if !ctx.path.ends_with(PARALLEL_MODULE) {
            check_parallel(&mut sink);
        }
        if !ctx.path.ends_with(SLAB_MODULE) {
            check_slab(&mut sink);
        }
        check_hot(&mut sink);
        check_cachegen(&mut sink);
    }
    if !ctx.is_units_module() {
        check_unit_conversions(&mut sink);
        check_db_scaling(&mut sink);
    }
    if ctx.in_structure_dir() {
        check_structure(&mut sink);
    }
    check_allow_hygiene(&mut sink);
    let mut findings = sink.findings;
    findings.sort_by(|a, b| {
        (a.line, a.rule, a.message.as_str()).cmp(&(b.line, b.rule, b.message.as_str()))
    });
    findings
}

/// Collects findings, applying test-code exclusion and allow directives
/// (recording which allows suppressed something, so unused ones stay
/// detectable).
struct Sink<'a> {
    ctx: &'a FileContext,
    scanned: &'a ScannedFile,
    parsed: &'a Parsed,
    findings: Vec<Finding>,
    /// Indices into `scanned.allows` that suppressed something.
    used_allows: Vec<bool>,
}

impl<'a> Sink<'a> {
    /// Report `rule` at byte `offset` unless the line is test code or a
    /// valid allow directive covers it.
    fn report(&mut self, rule: &'static str, offset: usize, message: String) {
        let line = self.scanned.line_of(offset);
        if self.parsed.in_test_code(line) {
            return;
        }
        for (i, allow) in self.scanned.allows.iter().enumerate() {
            if allow.applies_to_line == line
                && allow.rules.iter().any(|r| r == rule)
                && !allow.reason.is_empty()
            {
                self.used_allows[i] = true;
                return;
            }
        }
        self.findings.push(Finding {
            rule,
            path: self.ctx.path.clone(),
            line,
            message,
        });
    }

    fn masked(&self) -> &'a str {
        &self.scanned.masked
    }

    fn parsed(&self) -> &'a Parsed {
        self.parsed
    }

    /// The token range of the whole file.
    fn all(&self) -> (usize, usize) {
        (0, self.parsed.tokens.len().saturating_sub(1))
    }
}

/// determinism: every occurrence of a `(path, why)` probe.
fn check_paths(sink: &mut Sink, probes: &[(&str, &str)]) {
    let (masked, toks) = (sink.masked(), &sink.parsed().tokens);
    for (k, t) in toks.iter().enumerate() {
        for (path, why) in probes {
            if parse::path_at(toks, masked, k, path) {
                sink.report("determinism", t.start, format!("{path} {why}"));
            }
        }
    }
}

/// panic: `.unwrap()`, weak `.expect()`, and panicking macros.
fn check_panics(sink: &mut Sink) {
    let (masked, toks) = (sink.masked(), &sink.parsed().tokens);
    for k in parse::method_call_sites(toks, masked, sink.all(), "unwrap") {
        sink.report(
            "panic",
            toks[k].start,
            ".unwrap() in library code: return a Result or use \
             .expect(\"<invariant>\")"
                .to_owned(),
        );
    }
    for k in parse::method_call_sites(toks, masked, sink.all(), "expect") {
        // Only a string-literal message can be judged.
        let Some(lit) = toks
            .get(k + 2)
            .filter(|t| t.kind == TokKind::Str && t.end - t.start >= 2)
            .filter(|t| t.text(masked).ends_with('"'))
        else {
            continue;
        };
        let msg = &sink.scanned.raw[lit.start + 1..lit.end - 1];
        if msg.len() < MIN_EXPECT_MSG {
            sink.report(
                "panic",
                toks[k].start,
                format!(
                    ".expect() message is too short to state an invariant \
                     ({} bytes < {MIN_EXPECT_MSG})",
                    msg.len()
                ),
            );
        } else if !states_invariant(msg) {
            sink.report(
                "panic",
                toks[k].start,
                ".expect() message names an outcome, not an invariant: \
                 phrase it with the invariant vocabulary (e.g. \
                 \"always\", \"non-empty\", \"comes straight from\" — \
                 see INVARIANT_STEMS)"
                    .to_owned(),
            );
        }
    }
    for (k, t) in toks.iter().enumerate() {
        for mac in ["panic!", "todo!", "unimplemented!"] {
            if parse::path_at(toks, masked, k, mac) {
                sink.report(
                    "panic",
                    t.start,
                    format!(
                        "{mac} in library code: return a Result or encode the invariant in types"
                    ),
                );
            }
        }
    }
}

/// Whether an `.expect()` message contains a curated invariant stem.
fn states_invariant(msg: &str) -> bool {
    let lower = msg.to_ascii_lowercase();
    INVARIANT_STEMS.iter().any(|stem| lower.contains(stem))
}

/// units: `10f64.powf(...)`-style raw dB→linear conversion.
fn check_unit_conversions(sink: &mut Sink) {
    let (masked, toks) = (sink.masked(), &sink.parsed().tokens);
    for k in parse::method_call_sites(toks, masked, sink.all(), "powf") {
        if k >= 2 && is_literal_ten(&toks[k - 2], masked) {
            sink.report(
                "units",
                toks[k - 1].start,
                "raw 10^(x/10) conversion: use Dbm::to_milliwatts / \
                 Db::to_linear from cellfi_types::units"
                    .to_owned(),
            );
        }
    }
}

/// Whether a token is the literal `10` in any float form: `10`, `10.0`,
/// `10f64`, `10_f32`, …
fn is_literal_ten(t: &Token, masked: &str) -> bool {
    let digits: String = t
        .text(masked)
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .chars()
        .filter(|&c| c != '_')
        .collect();
    t.kind == TokKind::Num && (digits == "10" || digits == "10.0")
}

/// Whether an identifier is decibel-named by suffix convention.
fn db_named(ident: &str) -> bool {
    ident.ends_with("_db") || ident.ends_with("_dbm")
}

/// Bindings that inherit decibel-ness through simple `let` chains:
/// `let margin = snr_db - floor_db;` makes `margin` a dB quantity. Only
/// initializers that are plain arithmetic over identifiers and literals
/// propagate — any call, indexing, comparison, member access or struct
/// syntax in the right-hand side (`Db(x)`, `x_db.to_linear()`, …) may
/// change the unit, so those bindings stay untainted. The set is
/// file-global (names, not scopes) and iterates to a fixpoint so chains
/// of such lets propagate.
fn db_tainted_bindings(masked: &str, toks: &[Token]) -> BTreeSet<String> {
    let ident = |k: usize| toks.get(k).filter(|t| t.kind == TokKind::Ident);
    let is = |k: usize, s: &str| toks.get(k).is_some_and(|t| t.is(masked, s));
    let mut tainted = BTreeSet::new();
    loop {
        let mut changed = false;
        for k in (0..toks.len()).filter(|&k| parse::path_at(toks, masked, k, "let")) {
            // A single plain binding only: patterns (`(a, b)`,
            // `Some(x)`) fall out at the `=` check below.
            let p = k + 1 + usize::from(parse::path_at(toks, masked, k + 1, "mut"));
            let Some(name) = ident(p).map(|t| t.text(masked)) else {
                continue;
            };
            // Optional `: f64`-style ascription (simple path types only).
            let mut eq = p + 1;
            if is(eq, ":") {
                eq += 1;
                while ident(eq).is_some() {
                    eq += 1;
                }
            }
            if !is(eq, "=") {
                continue;
            }
            let Some(semi) = (eq + 1..toks.len()).find(|&r| is(r, ";")) else {
                continue;
            };
            let rhs = eq + 1..semi;
            let may_convert = rhs.clone().any(|r| {
                let s = toks[r].text(masked);
                s.contains(['(', ')', '[', ']', '{', '}', '<', '>', '!', '?', '&', '|'])
                    || (s == "." && ident(r + 1).is_some())
            });
            let inherits = rhs.filter_map(ident).any(|t| {
                let id = t.text(masked);
                db_named(id) || tainted.contains(id)
            });
            if !may_convert && inherits && !db_named(name) && tainted.insert(name.to_owned()) {
                changed = true;
            }
        }
        if !changed {
            return tainted;
        }
    }
}

/// units: multiplying or dividing a decibel binding — one named
/// `*_db`/`*_dbm`, or one that inherited decibel-ness through a simple
/// `let` chain ([`db_tainted_bindings`]). Compound assignment scales
/// too, on either side: `x_db *= 2.0` and `gain *= loss_db`.
fn check_db_scaling(sink: &mut Sink) {
    let (masked, toks) = (sink.masked(), &sink.parsed().tokens);
    let tainted = db_tainted_bindings(masked, toks);
    let scales = |k: usize| {
        toks.get(k)
            .is_some_and(|t| matches!(t.text(masked), "*" | "/" | "*=" | "/="))
    };
    for (k, t) in toks.iter().enumerate() {
        let ident = t.text(masked);
        if t.kind != TokKind::Ident || !(db_named(ident) || tainted.contains(ident)) {
            continue;
        }
        if scales(k + 1) || (k > 0 && scales(k - 1)) {
            let origin = if db_named(ident) {
                "is a decibel quantity"
            } else {
                "was assigned from a decibel quantity"
            };
            sink.report(
                "units",
                t.start,
                format!(
                    "`{ident}` {origin}; multiplying or dividing it is a \
                     log/linear mixup — convert with cellfi_types::units \
                     first"
                ),
            );
        }
    }
}

/// structure: files under [`STRUCTURE_DIRS`] stay decomposed. Reported
/// straight into the sink (no test-code exclusion, no allow escape):
/// the count covers the whole file, tests included, and the only fix is
/// to split it.
fn check_structure(sink: &mut Sink) {
    let lines = sink.scanned.raw.lines().count();
    if lines > MAX_ENGINE_FILE_LINES {
        sink.findings.push(Finding {
            rule: "structure",
            path: sink.ctx.path.clone(),
            line: MAX_ENGINE_FILE_LINES + 1,
            message: format!(
                "{lines} lines exceeds the {MAX_ENGINE_FILE_LINES}-line engine \
                 file cap — split this into the PHY/MAC/IM layering \
                 (see crates/sim/src/engine/)"
            ),
        });
    }
}

/// obs: `.emit(...)` must build its payload without allocating, so an
/// emission on the disabled path costs exactly one branch — and
/// `.register(...)` monitor check closures run every armed tick, so
/// they must be allocation-free too. Each argument list reports each
/// [`EMIT_ALLOC_MARKERS`] entry at most once (its first hit); a call
/// nested inside an audited argument list is covered by the outer one.
fn check_obs(sink: &mut Sink) {
    let (masked, toks) = (sink.masked(), &sink.parsed().tokens);
    for (method, why) in [
        (
            "emit",
            "event payloads must be allocation-free plain numerics so disabled \
             tracing costs one branch",
        ),
        (
            "register",
            "monitor check closures run on every armed tick and must stay \
             allocation-free (return plain Option<f64> from the facts)",
        ),
    ] {
        let mut audited_to = 0;
        for site in parse::method_call_sites(toks, masked, sink.all(), method) {
            if site < audited_to {
                continue;
            }
            let Some(close) = parse::match_delim(toks, masked, site + 1) else {
                continue;
            };
            for marker in EMIT_ALLOC_MARKERS {
                if let Some(hit) =
                    (site + 2..close).find(|&k| parse::path_at(toks, masked, k, marker))
                {
                    sink.report(
                        "obs",
                        toks[hit].start,
                        format!("`{marker}` inside .{method}(...): {why}"),
                    );
                }
            }
            audited_to = close;
        }
    }
}

/// parallel: fan-out closures own their chunk; reductions merge in
/// entity-index order.
fn check_parallel(sink: &mut Sink) {
    let (masked, parsed) = (sink.masked(), sink.parsed());
    let toks = &parsed.tokens;
    for f in &parsed.fns {
        let Some(body) = f.body else { continue };
        // Forked per-entity sinks must be merged back in the same fn:
        // the absorb loop is where entity-index order is re-imposed.
        let forks = parse::method_call_sites(toks, masked, body, "fork");
        let absorbs = parse::method_call_sites(toks, masked, body, "absorb");
        if let Some(&first) = forks.first() {
            if absorbs.is_empty() {
                sink.report(
                    "parallel",
                    toks[first].start,
                    format!(
                        "`{}` forks per-entity sinks but never absorbs them; \
                         absorb forked state back in entity-index order in the \
                         same fn so merged traces are schedule-independent",
                        f.name
                    ),
                );
            }
        }
        for name in FAN_OUT {
            for site in parse::call_sites(toks, masked, body, name) {
                let open = site + 1;
                let Some(close) = parse::match_delim(toks, masked, open) else {
                    continue;
                };
                let Some(cl) = parse::closure_in_args(toks, masked, open, close) else {
                    continue;
                };
                check_fanout_closure(sink, &cl, name);
            }
        }
    }
}

/// Audit one worker closure passed to a fan-out helper.
fn check_fanout_closure(sink: &mut Sink, cl: &Closure, fan: &str) {
    let (masked, toks) = (sink.masked(), &sink.parsed().tokens);
    let mut locals = dataflow::bindings_in(toks, masked, cl.body);
    for p in &cl.params {
        locals.insert(p);
    }
    for m in dataflow::mutations_in(toks, masked, cl.body) {
        if !locals.contains(&m.base) {
            sink.report(
                "parallel",
                toks[m.tok].start,
                format!(
                    "`{}` is captured state mutated inside a `{fan}` closure; \
                     cross-chunk writes alias between workers — write only \
                     through the closure's own chunk arguments and merge \
                     reductions in entity-index order after the fan-out",
                    m.base
                ),
            );
        }
    }
    for tok in &toks[cl.body.0..=cl.body.1.min(toks.len().saturating_sub(1))] {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let s = tok.text(masked);
        if SYNC_TOKENS.contains(&s) || s.starts_with("Atomic") {
            sink.report(
                "parallel",
                tok.start,
                format!(
                    "`{s}` inside a `{fan}` closure: scheduling-dependent \
                     synchronization breaks byte-identical replay — restructure \
                     so each chunk owns its slice and merge after the fan-out"
                ),
            );
        }
    }
    for site in parse::method_call_sites(toks, masked, cl.body, "emit") {
        let base = dataflow::path_base_before(toks, masked, site.saturating_sub(1));
        if base.is_some_and(|b| !locals.contains(&b)) {
            sink.report(
                "parallel",
                toks[site].start,
                format!(
                    "emitting through a captured sink inside a `{fan}` closure \
                     interleaves events in schedule order; fork a per-entity \
                     sink into the chunk and absorb it in entity-index order"
                ),
            );
        }
    }
}

/// slab: multiply-add / multiply-range arithmetic inside an index
/// expression re-derives slab strides.
fn check_slab(sink: &mut Sink) {
    let (masked, toks) = (sink.masked(), &sink.parsed().tokens);
    for k in 0..toks.len() {
        if !toks[k].is(masked, "[") {
            continue;
        }
        // Indexing context: `expr[...]`, i.e. the bracket follows a
        // value (identifier, literal, or a closed group). `vec![…]`,
        // attributes, array literals/types all follow punctuation.
        if k == 0 {
            continue;
        }
        let prev = toks[k - 1].text(masked);
        let indexing = matches!(toks[k - 1].kind, TokKind::Ident | TokKind::Num)
            && !matches!(prev, "return" | "in" | "break" | "match" | "else")
            || prev == ")"
            || prev == "]";
        if !indexing {
            continue;
        }
        let Some(close) = parse::match_delim(toks, masked, k) else {
            continue;
        };
        let mut has_mul = false;
        let mut has_add = false;
        let mut has_range = false;
        let mut q = k + 1;
        while q < close {
            let s = toks[q].text(masked);
            if s == "[" {
                // Nested index: audited on its own visit.
                q = parse::match_delim(toks, masked, q).map_or(q + 1, |c| c + 1);
                continue;
            }
            let binary = q > 0
                && (matches!(toks[q - 1].kind, TokKind::Ident | TokKind::Num)
                    || toks[q - 1].is(masked, ")")
                    || toks[q - 1].is(masked, "]"));
            match s {
                "*" if binary => has_mul = true,
                "+" if binary => has_add = true,
                ".." | "..=" => has_range = true,
                _ => {}
            }
            q += 1;
        }
        if has_mul && (has_add || has_range) {
            sink.report(
                "slab",
                toks[k].start,
                "raw stride arithmetic inside an index re-derives slab \
                 offsets; go through the Slab2/Slab3 accessors \
                 (crates/sim/src/slab.rs) so layout changes cannot \
                 desynchronize hand-rolled index math"
                    .to_owned(),
            );
        }
    }
}

/// hot: fns reachable from `// cellfi-lint: hot` roots stay
/// allocation-free outside reserved scratch.
fn check_hot(sink: &mut Sink) {
    let (masked, parsed) = (sink.masked(), sink.parsed());
    if !parsed.fns.iter().any(|f| f.hot) {
        return;
    }
    // Propagate hotness through direct same-file calls (callee-name
    // matching; duplicate names are all marked — conservative).
    let mut hot_root: BTreeMap<usize, String> = BTreeMap::new();
    let mut work: Vec<usize> = Vec::new();
    for (i, f) in parsed.fns.iter().enumerate() {
        if f.hot {
            hot_root.insert(i, f.name.clone());
            work.push(i);
        }
    }
    while let Some(i) = work.pop() {
        let Some(body) = parsed.fns[i].body else {
            continue;
        };
        let root = hot_root.get(&i).cloned().unwrap_or_default();
        for callee in parse::callee_names(&parsed.tokens, masked, body) {
            for (j, g) in parsed.fns.iter().enumerate() {
                if g.name == callee && !hot_root.contains_key(&j) {
                    hot_root.insert(j, root.clone());
                    work.push(j);
                }
            }
        }
    }
    for (&i, root) in &hot_root {
        check_hot_body(sink, i, root);
    }
}

/// Scan one hot fn body for allocation and slab-clone sites.
fn check_hot_body(sink: &mut Sink, fn_idx: usize, root: &str) {
    let (masked, parsed) = (sink.masked(), sink.parsed());
    let toks = &parsed.tokens;
    let f = &parsed.fns[fn_idx];
    let Some(body) = f.body else { return };
    let mut bindings = dataflow::bindings_in(toks, masked, body);
    for p in &f.params {
        bindings.insert_typed(&p.name, &p.ty);
    }
    let scratch_named = |idents: &[String]| idents.iter().any(|s| s.contains("scratch"));
    let hi = body.1.min(toks.len().saturating_sub(1));
    for k in body.0..=hi {
        if toks[k].kind != TokKind::Ident {
            continue;
        }
        let s = toks[k].text(masked);
        // Allocating macros: `format!` always, `vec!` unless scratch.
        if parse::path_at(toks, masked, k, "format!") {
            report_hot(sink, toks[k].start, root, "format! allocates a String");
            continue;
        }
        if parse::path_at(toks, masked, k, "vec!") {
            if !scratch_named(&dataflow::assign_target_idents(toks, masked, k)) {
                report_hot(sink, toks[k].start, root, "vec! allocates");
            }
            continue;
        }
        // Qualified constructors: `Vec::new`, `Box::new`, …
        if let Some(&(path, exemptable)) = HOT_QUALIFIED
            .iter()
            .find(|&&(path, _)| parse::path_at(toks, masked, k, path))
        {
            let exempt =
                exemptable && scratch_named(&dataflow::assign_target_idents(toks, masked, k));
            if !exempt {
                report_hot(sink, toks[k].start, root, &format!("{path} allocates"));
            }
            continue;
        }
        // Method calls: allocation set and slab clones.
        let is_method = k > 0
            && toks[k - 1].is(masked, ".")
            && toks.get(k + 1).is_some_and(|n| n.is(masked, "("));
        if !is_method {
            continue;
        }
        if HOT_FORBIDDEN_METHODS.contains(&s) {
            let exempt = if HOT_SCRATCH_EXEMPT.contains(&s) {
                // `push`/`extend`/`insert` refill their receiver;
                // `collect` lands in its assignment target.
                let idents = if s == "collect" {
                    dataflow::assign_target_idents(toks, masked, k)
                } else {
                    dataflow::path_idents_before(toks, masked, k - 1)
                };
                scratch_named(&idents)
            } else {
                false
            };
            if !exempt {
                report_hot(sink, toks[k].start, root, &format!(".{s}() allocates"));
            }
            continue;
        }
        if s == "clone" {
            let base = dataflow::path_base_before(toks, masked, k - 1);
            let slab_typed = base
                .as_deref()
                .and_then(|b| bindings.ty(b))
                .is_some_and(|ty| ty.contains("Slab2") || ty.contains("Slab3"));
            if slab_typed {
                report_hot(
                    sink,
                    toks[k].start,
                    root,
                    ".clone() on a slab copies the whole tensor",
                );
            }
        }
    }
}

fn report_hot(sink: &mut Sink, offset: usize, root: &str, what: &str) {
    sink.report(
        "hot",
        offset,
        format!(
            "{what} in a per-subframe hot path (reached from \
             `// cellfi-lint: hot` root `{root}`); steady-state subframes \
             must reuse reserved *_scratch buffers instead"
        ),
    );
}

/// cachegen: slab gain writes bump `gain_gen`; association writes bump
/// `assoc_gen` — in the same fn as the mutation.
fn check_cachegen(sink: &mut Sink) {
    let (masked, parsed) = (sink.masked(), sink.parsed());
    let toks = &parsed.tokens;
    for f in &parsed.fns {
        let Some(body) = f.body else { continue };
        let hi = body.1.min(toks.len().saturating_sub(1));
        let bumps = |gen_name: &str| -> bool {
            (body.0..=hi).any(|k| {
                toks[k].kind == TokKind::Ident
                    && toks[k].is(masked, gen_name)
                    && toks
                        .get(k + 1)
                        .is_some_and(|n| n.is(masked, "+=") || n.is(masked, "="))
            })
        };
        let mut gain_sites = Vec::new();
        let mut assoc_sites = Vec::new();
        for k in body.0..=hi {
            if toks[k].kind != TokKind::Ident {
                continue;
            }
            let s = toks[k].text(masked);
            // `self.<gain field>.<mutating accessor>(…)`, a wholesale
            // `self.<gain field> = …` replacement, or an index write
            // `self.<gain field>[link] = …` into a per-link array.
            if s == "self"
                && toks.get(k + 1).is_some_and(|t| t.is(masked, "."))
                && toks
                    .get(k + 2)
                    .is_some_and(|t| GAIN_FIELDS.contains(&t.text(masked)))
            {
                let write = match toks.get(k + 3).map(|t| t.text(masked)) {
                    Some(".") => toks
                        .get(k + 4)
                        .is_some_and(|t| GAIN_MUT_METHODS.contains(&t.text(masked)))
                        .then_some(k + 4),
                    Some("=") => Some(k + 2),
                    Some("[") => index_write(toks, masked, k + 3).then_some(k + 2),
                    _ => None,
                };
                if let Some(site) = write {
                    gain_sites.push((site, toks.get(k + 2).map_or("", |t| t.text(masked))));
                }
            }
            // `….assoc[ue] = …` association rewrites.
            if s == "assoc"
                && k > 0
                && toks[k - 1].is(masked, ".")
                && toks.get(k + 1).is_some_and(|t| t.is(masked, "["))
                && index_write(toks, masked, k + 1)
            {
                assoc_sites.push(k);
            }
        }
        if !gain_sites.is_empty() && !bumps("gain_gen") {
            for (site, field) in gain_sites {
                sink.report(
                    "cachegen",
                    toks[site].start,
                    format!(
                        "`{}` writes slab gain state (`{field}`) without bumping \
                         `gain_gen`; the (gain_gen, set_id) cache keys would \
                         replay stale interference/CQI for the changed gains",
                        f.name
                    ),
                );
            }
        }
        if !assoc_sites.is_empty() && !bumps("assoc_gen") {
            for site in assoc_sites {
                sink.report(
                    "cachegen",
                    toks[site].start,
                    format!(
                        "`{}` rewrites the association table without bumping \
                         `assoc_gen`; the CQI memo would replay scans for the \
                         old association",
                        f.name
                    ),
                );
            }
        }
    }
}

/// Whether the index group opening at `open` (`[`) is the target of an
/// assignment: `…[i] = …`, `…[i] += …` and the other compound forms.
fn index_write(toks: &[Token], masked: &str, open: usize) -> bool {
    parse::match_delim(toks, masked, open)
        .and_then(|close| toks.get(close + 1))
        .is_some_and(|t| INDEX_WRITE_OPS.contains(&t.text(masked)))
}

/// lint-allow: every directive must be well-formed, reasoned, and used.
fn check_allow_hygiene(sink: &mut Sink) {
    // Walk by index: reporting borrows the sink mutably.
    for i in 0..sink.scanned.allows.len() {
        let allow = &sink.scanned.allows[i];
        let line = allow.directive_line;
        let rules = allow.rules.clone();
        let reason_empty = allow.reason.is_empty();
        let used = sink.used_allows[i];
        if rules.is_empty() {
            push_hygiene(
                sink,
                line,
                "malformed directive: expected `cellfi-lint: allow(<rule>) — <reason>`".to_owned(),
            );
            continue;
        }
        for rule in &rules {
            if !RULE_NAMES.contains(&rule.as_str()) {
                push_hygiene(
                    sink,
                    line,
                    format!("unknown rule `{rule}` (known: {})", RULE_NAMES.join(", ")),
                );
            }
        }
        if reason_empty {
            push_hygiene(
                sink,
                line,
                "allow directive needs a reason: `allow(<rule>) — <why this is sound>`".to_owned(),
            );
        } else if !used && rules.iter().all(|r| RULE_NAMES.contains(&r.as_str())) {
            push_hygiene(
                sink,
                line,
                format!(
                    "unused allow({}) — nothing on the target line triggers it; delete the directive",
                    rules.join(", ")
                ),
            );
        }
    }
}

fn push_hygiene(sink: &mut Sink, line: usize, message: String) {
    sink.findings.push(Finding {
        rule: "lint-allow",
        path: sink.ctx.path.clone(),
        line,
        message,
    });
}
