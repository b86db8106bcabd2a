//! `cellfi-bench compare`: A/B verdicts over two JSONL files of results
//! (one `all` or `run` line per workload run, each carrying its
//! `workload`), one verdict per workload and end-to-end metric.
//!
//! The rule is the benchmark's: run the parent and the change in
//! alternating pairs on one machine, at least ten. The change
//! *improved* a metric when it wins at least 9 of every 10 pairs (ties
//! count for neither) and the medians differ by more than the parent's
//! own interquartile distance. It *regressed* when its median is worse than the parent's
//! by more than the metric's bound. A metric whose parent spread
//! (interquartile distance over median) exceeds the bound is
//! *unresolved* unless every change run beats every parent run;
//! otherwise it is *within bound*.

use crate::spec::Spec;
use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won ≥ 9/10 of at least ten pairs, by more than the parent's
    /// spread.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Parent `(q1, median, q3)`.
    pub base: (f64, f64, f64),
    /// Change `(q1, median, q3)`.
    pub cand: (f64, f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared (`i`-th parent run against `i`-th change run).
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Fewest pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;

/// Compare parent runs `base` with change runs `cand` of one metric.
pub fn compare_metric(
    base: &[f64],
    cand: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Comparison {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (bq1, bm, bq3) = quartiles(base);
    let cq = quartiles(cand);
    let pairs = base.len().min(cand.len());
    let wins = base
        .iter()
        .zip(cand)
        .filter(|(b, c)| better(**c, **b))
        .count();
    // Relative change, positive when the change is better.
    let gain = if higher_is_better {
        cq.1 - bm
    } else {
        bm - cq.1
    } / bm;
    let all_better = cand.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && gain > 0.0
        && (cq.1 - bm).abs() > bq3 - bq1
    {
        Verdict::Improved
    } else if gain < -bound {
        Verdict::Regressed
    } else if (bq3 - bq1) / bm > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    Comparison {
        base: (bq1, bm, bq3),
        cand: cq,
        wins,
        pairs,
        verdict,
    }
}

/// `workload → metric → values in file order`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let Value::Object(obj) =
            serde_json::from_str::<Value>(line).map_err(|e| bad(&e.to_string()))?
        else {
            return Err(bad("not a JSON object"));
        };
        let Some(Value::String(workload)) = obj.get("workload") else {
            return Err(bad("no `workload` string"));
        };
        let Some(Value::Object(metrics)) = obj.get("metrics") else {
            return Err(bad("no `metrics` object"));
        };
        let entry = runs.entry(workload.clone()).or_default();
        for (name, m) in metrics {
            if let Value::Object(m) = m {
                if let Some(Value::Number(v)) = m.get("value") {
                    entry.entry(name.clone()).or_default().push(*v);
                }
            }
        }
    }
    Ok(runs)
}

/// Compare two JSONL result files under `spec`'s end-to-end bounds and
/// render one row per workload and metric. Returns the table and
/// whether any metric regressed.
pub fn compare_files(base: &str, cand: &str, spec: &Spec) -> Result<(String, bool), String> {
    let (base, cand) = (parse_runs(base)?, parse_runs(cand)?);
    let fmt = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
    let mut out = format!(
        "{:<16} {:<12} {:>32} {:>32} {:>6}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for workload in &spec.workloads {
        let (Some(b), Some(c)) = (base.get(workload), cand.get(workload)) else {
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(bv), Some(cv)) = (b.get(&m.name), c.get(&m.name)) else {
                continue;
            };
            let r = compare_metric(bv, cv, m.higher_is_better, m.bound.unwrap_or(0.0));
            regressed |= r.verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{:<16} {:<12} {:>32} {:>32} {:>6}  {}\n",
                workload,
                m.name,
                fmt(r.base),
                fmt(r.cand),
                format!("{}/{}", r.wins, r.pairs),
                r.verdict.label()
            ));
        }
    }
    Ok((out, regressed))
}
