//! `exp` — the experiment runner.
//!
//! ```text
//! exp <name>... [--quick] [--seed N] [--json] [--trace] [--trace-detail]
//!               [--sample K/N] [--monitors]
//! exp all [--quick]          # every table and figure, paper order
//! exp list                   # available experiment names
//! exp trace-diff <a> <b>     # byte-compare two trace streams
//! exp trace-query <t.jsonl> [--kind K] [--entity N] [--from US] [--to US]
//!                           [--group-by F] [--agg count|sum:F|mean:F|q0.9:F]
//! exp replay <TRACE.jsonl>   # reconstruct per-cell occupancy from a trace
//! ```
//!
//! Each experiment prints a human-readable report; `--json` appends the
//! headline values as a JSON object (consumed by EXPERIMENTS.md tooling).
//! An unrecognised `--option` fails before any experiment runs. Timing
//! lives in the separate `cellfi-bench` benchmark, never here.
//! `--trace` writes `TRACE_<name>.jsonl` (the tick-keyed event stream)
//! and `METRICS_<name>.jsonl` (the final metrics snapshot) per
//! experiment; `--trace-detail` additionally switches on the detail
//! stream (per-epoch `sched` occupancy decisions, per-block
//! `harq_retx`, and per-epoch histogram window snapshots in the metrics
//! export). `--sample K/N` keeps the deterministic per-entity stratum
//! `K/N` of the stream and writes the dropped remainder's histogram
//! sketches to `SKETCH_<name>.jsonl`; `--monitors` arms the invariant
//! monitors and the flight recorder — a violation dumps the ring as
//! `FLIGHT_<name>.jsonl` and fails the run with the violating tick.
//! `trace-diff` compares two such streams line by line; on divergence
//! it reports the first differing line plus a per-kind count summary of
//! the event tails — identical seeds must produce byte-identical traces
//! at any `CELLFI_THREADS`. `trace-query` filters, groups, and
//! aggregates a written trace. `replay` reads a written
//! `TRACE_<name>.jsonl` back and prints the final per-cell subchannel
//! allocation table it implies (exact when the trace has `sched`
//! events, folded from hop/pack moves otherwise).

use cellfi_sim::experiments::{self, ExpConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str =
    "usage: exp <name>...|all|list|trace-diff <a> <b>|trace-query <trace>|replay <trace> \
     [--quick] [--seed N] [--json] [--trace] [--trace-detail] [--sample K/N] [--monitors]";

/// Byte-compare two trace streams line by line; report the first
/// divergence. Returns success only for identical files.
fn trace_diff(path_a: &str, path_b: &str) -> ExitCode {
    let read = |p: &str| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("trace-diff: cannot read {p}: {e}");
            None
        }
    };
    let (Some(a), Some(b)) = (read(path_a), read(path_b)) else {
        return ExitCode::FAILURE;
    };
    if a == b {
        println!(
            "trace-diff: identical ({} lines, {} bytes)",
            a.lines().count(),
            a.len()
        );
        return ExitCode::SUCCESS;
    }
    let mut lines_a = a.lines();
    let mut lines_b = b.lines();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        match (lines_a.next(), lines_b.next()) {
            (Some(la), Some(lb)) if la == lb => continue,
            (Some(la), Some(lb)) => {
                eprintln!("trace-diff: first divergence at line {lineno}:");
                eprintln!("  {path_a}: {la}");
                eprintln!("  {path_b}: {lb}");
            }
            (Some(la), None) => {
                eprintln!("trace-diff: {path_b} ends at line {lineno}; {path_a} continues: {la}");
            }
            (None, Some(lb)) => {
                eprintln!("trace-diff: {path_a} ends at line {lineno}; {path_b} continues: {lb}");
            }
            (None, None) => {
                // Same lines but different bytes (e.g. trailing newline).
                eprintln!("trace-diff: files differ only in trailing bytes");
                return ExitCode::FAILURE;
            }
        }
        // Summarise the tails: per-kind event counts from the first
        // divergence onward, so a thread-count or seed mismatch shows
        // *what* diverged (one kind drifting vs. wholesale reordering)
        // without scrolling thousands of raw lines.
        let counts_a = kind_counts(a.lines().skip(lineno - 1));
        let counts_b = kind_counts(b.lines().skip(lineno - 1));
        let mut kinds: Vec<&str> = counts_a.keys().chain(counts_b.keys()).copied().collect();
        kinds.sort_unstable();
        kinds.dedup();
        eprintln!("trace-diff: per-kind event counts after line {lineno}:");
        eprintln!("  {:<16} {:>10} {:>10}", "kind", "a", "b");
        for kind in kinds {
            let na = counts_a.get(kind).copied().unwrap_or(0);
            let nb = counts_b.get(kind).copied().unwrap_or(0);
            let marker = if na == nb { "" } else { "  <- differs" };
            eprintln!("  {kind:<16} {na:>10} {nb:>10}{marker}");
        }
        return ExitCode::FAILURE;
    }
}

/// Per-kind line counts of a trace tail: the `"ev"` value per event
/// line, `<other>` for lines without one (metrics, sketches).
fn kind_counts<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, u64> {
    let mut counts = BTreeMap::new();
    for line in lines {
        let kind = cellfi_obs::query::parse_line(line)
            .and_then(|fields| fields.kind())
            .unwrap_or("<other>");
        *counts.entry(kind).or_insert(0) += 1;
    }
    counts
}

/// `exp trace-query`: filter/group/aggregate a written trace stream.
fn trace_query(args: &[String]) -> ExitCode {
    use cellfi_obs::query::{run_query, Agg, Query};
    let mut path: Option<&str> = None;
    let mut query = Query::default();
    let mut it = args.iter();
    let usage = "usage: exp trace-query <TRACE.jsonl> [--kind K] [--entity N] \
                 [--from US] [--to US] [--group-by FIELD] \
                 [--agg count|sum:F|mean:F|q<frac>:F]";
    while let Some(a) = it.next() {
        let mut grab = |what: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{what} needs a value")),
        };
        let r = match a.as_str() {
            "--kind" => grab("--kind").map(|v| query.kind = Some(v)),
            "--entity" => grab("--entity").and_then(|v| {
                v.parse()
                    .map(|n| query.entity = Some(n))
                    .map_err(|_| "--entity needs an integer".to_owned())
            }),
            "--from" => grab("--from").and_then(|v| {
                v.parse()
                    .map(|n| query.tick_lo = Some(n))
                    .map_err(|_| "--from needs a microsecond tick".to_owned())
            }),
            "--to" => grab("--to").and_then(|v| {
                v.parse()
                    .map(|n| query.tick_hi = Some(n))
                    .map_err(|_| "--to needs a microsecond tick".to_owned())
            }),
            "--group-by" => grab("--group-by").map(|v| query.group_by = Some(v)),
            "--agg" => grab("--agg").and_then(|v| Agg::parse(&v).map(|a| query.agg = a)),
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(a.as_str());
                Ok(())
            }
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(e) = r {
            eprintln!("trace-query: {e}");
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        }
    }
    let Some(path) = path else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-query: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_query(&text, &query) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-query: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reconstruct and print the final per-cell subchannel allocation a
/// trace stream implies.
fn replay_trace(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match experiments::replay::replay_jsonl(&text) {
        Ok(r) => {
            print!("{}", experiments::replay::allocation_table(&r));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Write `TRACE_<name>.jsonl` and `METRICS_<name>.jsonl` for each
/// experiment name — plus `SKETCH_<name>.jsonl` under `--sample` and,
/// on a monitor violation, the `FLIGHT_<name>.jsonl` ring dump (the
/// violation also fails the run).
fn write_traces(
    names: &[&str],
    config: ExpConfig,
    opts: &experiments::trace_run::TraceOptions,
) -> bool {
    let mut ok = true;
    for name in names {
        let Some(out) = experiments::trace_run::traced_opts(name, config, opts) else {
            eprintln!("no trace runner for {name}");
            ok = false;
            continue;
        };
        for (path, body) in [
            (format!("TRACE_{name}.jsonl"), &out.events),
            (format!("METRICS_{name}.jsonl"), &out.metrics),
        ] {
            match std::fs::write(&path, body) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("could not write {path}: {e}");
                    ok = false;
                }
            }
        }
        if !out.sketches.is_empty() {
            let path = format!("SKETCH_{name}.jsonl");
            match std::fs::write(&path, &out.sketches) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("could not write {path}: {e}");
                    ok = false;
                }
            }
        }
        if !out.verdict.is_empty() {
            println!("{name}: {}", out.verdict);
        }
        if let Some(v) = out.violation {
            eprintln!(
                "{name}: monitor {} violated at tick {} us (value {}, threshold {})",
                v.monitor, v.tick_us, v.value, v.threshold
            );
            let path = format!("FLIGHT_{name}.jsonl");
            match std::fs::write(&path, &out.flight) {
                Ok(()) => eprintln!("wrote {path} (flight-recorder ring, oldest first)"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace-diff") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: exp trace-diff <a.jsonl> <b.jsonl>");
            return ExitCode::FAILURE;
        };
        return trace_diff(a, b);
    }
    if args.first().map(String::as_str) == Some("replay") {
        let [_, path] = args.as_slice() else {
            eprintln!("usage: exp replay <TRACE.jsonl>");
            return ExitCode::FAILURE;
        };
        return replay_trace(path);
    }
    if args.first().map(String::as_str) == Some("trace-query") {
        return trace_query(&args[1..]);
    }
    let mut names: Vec<String> = Vec::new();
    let mut config = ExpConfig::default();
    let mut json = false;
    let mut trace = false;
    let mut opts = experiments::trace_run::TraceOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => config.quick = true,
            "--json" => json = true,
            "--trace" => trace = true,
            "--trace-detail" => {
                trace = true;
                opts.detail = true;
            }
            "--sample" => {
                trace = true;
                match it.next().and_then(|v| cellfi_obs::SampleSpec::parse(v)) {
                    Some(spec) => opts.sample = spec,
                    None => {
                        eprintln!("--sample needs a K/N spec with 0 < K <= N (e.g. 1/8)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--monitors" => {
                trace = true;
                opts.monitors = true;
                // The flight recorder rides along so a violation has a
                // ring to dump.
                opts.flight_cap = 256;
            }
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => config.seed = s,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "list" => {
                for n in experiments::ALL {
                    println!("{n}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => names.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other if other.starts_with("--") => {
                eprintln!("unknown option: {other}");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
            other => names.push(other.to_owned()),
        }
    }
    if names.is_empty() {
        eprintln!("{USAGE}");
        eprintln!("experiments: {}", experiments::ALL.join(" "));
        return ExitCode::FAILURE;
    }
    // Validate up front, then fan the known prefix out across the
    // scoped thread pool. Reports come back in input order, so the
    // printed stream is byte-identical to the old serial loop; an
    // unknown name still fails after the experiments preceding it.
    let known = names
        .iter()
        .position(|n| !experiments::ALL.contains(&n.as_str()))
        .unwrap_or(names.len());
    let runnable: Vec<&str> = names[..known].iter().map(String::as_str).collect();
    for report in experiments::run_many(&runnable, config) {
        println!("=== {} ===", report.id);
        println!("{}", report.text);
        if json {
            match serde_json::to_string_pretty(&report.values) {
                Ok(j) => println!("{j}"),
                Err(e) => eprintln!("json encoding failed: {e}"),
            }
        }
    }
    if trace && !write_traces(&runnable, config, &opts) {
        return ExitCode::FAILURE;
    }
    if let Some(name) = names.get(known) {
        eprintln!("unknown experiment: {name}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
