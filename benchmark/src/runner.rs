//! Runs a workload's passes within the time budget, checks every pass's
//! outputs, and reduces the timings to the reported metrics.

use crate::workloads::{self, Layers, Outcome, Outputs};
use crate::{alloc, golden, kernels, stats};
use crate::{Metric, RunOptions, RunResult, Scale, Workload, END_TO_END, PER_LAYER};
use cellfi_sim::parallel::with_threads;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups timed per run. Passes that do not fit the budget are made
/// up by set-ups that are built and dropped unrun, so `setup_s` is
/// always a median of this many samples.
fn setup_samples(workload: Workload) -> usize {
    match workload {
        // 0.6 s and ~0.7 GB each: three, never two alive at once.
        Workload::Metro2500 => 3,
        _ => 11,
    }
}

/// One measured pass.
struct PassSample {
    setup_s: f64,
    /// Wall time of the measured phase.
    run_s: f64,
    /// Simulated seconds per host second, per window.
    window_rates: Vec<f64>,
    allocs_per_step: f64,
    outcome: Outcome,
}

fn measure_pass(workload: Workload, opts: &RunOptions, traced: bool) -> PassSample {
    let t = Instant::now();
    let mut pass = workloads::build(workload, opts.seed, opts.scale, traced);
    let setup_s = t.elapsed().as_secs_f64();
    pass.warm_up();

    // The clock is read only where the window changes, so the measured
    // loop is the workload's own calls back to back.
    let (n, windows) = (pass.steps(), pass.windows());
    let mut host_s = vec![0.0; windows];
    let mut steps = vec![0u32; windows];
    let allocs = alloc::allocations();
    let start = Instant::now();
    let mut segment_start = start;
    for i in 0..n {
        pass.step(i);
        let w = pass.window(i);
        steps[w] += 1;
        if i + 1 == n || pass.window(i + 1) != w {
            let now = Instant::now();
            host_s[w] += (now - segment_start).as_secs_f64();
            segment_start = now;
        }
    }
    let allocs = alloc::allocations() - allocs;
    PassSample {
        setup_s,
        run_s: (segment_start - start).as_secs_f64(),
        window_rates: steps
            .iter()
            .zip(&host_s)
            .map(|(&k, h)| f64::from(k) * pass.step_sim_s() / h)
            .collect(),
        allocs_per_step: allocs as f64 / n as f64,
        outcome: pass.finish(),
    }
}

/// The run's rate: the upper quartile of its window rates. Contention
/// from other tenants of a shared host only ever slows a window, and it
/// hits a varying share of them; the faster quartile tracks the code.
fn rate(samples: &[PassSample]) -> f64 {
    let rates: Vec<f64> = samples
        .iter()
        .flat_map(|p| p.window_rates.clone())
        .collect();
    stats::quartiles(&rates).2
}

/// Check bookkeeping for one run.
struct Checks {
    attempted: u64,
    failures: Vec<String>,
    /// The pinned outputs, when the seed is pinned and the scale full.
    golden: Result<Option<Outputs>, String>,
    /// The first pass's outputs: every later pass must repeat them.
    reference: Option<Outputs>,
}

/// The first output that differs between two output sets.
fn first_difference(want: &Outputs, got: &Outputs) -> String {
    want.keys()
        .chain(got.keys())
        .find(|k| want.get(*k) != got.get(*k))
        .map(|k| {
            let show = |o: &Outputs| o.get(k).map_or("(absent)", String::as_str).to_owned();
            format!("{k}: want {}, got {}", show(want), show(got))
        })
        .unwrap_or_default()
}

impl Checks {
    fn new(workload: Workload, opts: &RunOptions) -> Checks {
        Checks {
            attempted: 0,
            failures: Vec::new(),
            golden: match opts.scale {
                Scale::Full => golden::load(workload, opts.seed),
                Scale::Smoke => Ok(None),
            },
            reference: None,
        }
    }

    fn check(&mut self, what: String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what);
        }
    }

    /// Record a pass: its invariant checks, then its outputs against
    /// the golden (first pass) or against the first pass (later ones).
    fn pass(&mut self, label: &str, outcome: &Outcome) {
        for &(name, ok) in &outcome.checks {
            self.check(format!("{label}: {name}"), ok);
        }
        let got = &outcome.outputs;
        match &self.reference {
            Some(first) => {
                let diff = first_difference(first, got);
                self.check(
                    format!("{label}: outputs repeat the first pass: {diff}"),
                    diff.is_empty(),
                );
            }
            None => {
                match &self.golden {
                    Ok(Some(want)) => {
                        let diff = first_difference(want, got);
                        self.check(
                            format!("{label}: outputs match the golden: {diff}"),
                            diff.is_empty(),
                        );
                    }
                    Ok(None) => {}
                    Err(e) => self.check(format!("golden unreadable: {e}"), false),
                }
                self.reference = Some(got.clone());
            }
        }
    }
}

/// Run passes until the next one would overrun `budget_s` (at least
/// one pass).
fn passes(
    workload: Workload,
    opts: &RunOptions,
    traced: bool,
    budget_s: f64,
    checks: &mut Checks,
) -> Vec<PassSample> {
    let label = if traced { "traced pass" } else { "pass" };
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        let sample = measure_pass(workload, opts, traced);
        checks.pass(label, &sample.outcome);
        out.push(sample);
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > budget_s {
            return out;
        }
    }
}

fn median_of(samples: &[PassSample], f: impl Fn(&PassSample) -> f64) -> f64 {
    stats::median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
fn end_to_end(
    workload: Workload,
    opts: &RunOptions,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let samples = passes(workload, opts, false, opts.seconds, checks);
    let mut setups: Vec<f64> = samples.iter().map(|p| p.setup_s).collect();
    while setups.len() < setup_samples(workload) {
        let t = Instant::now();
        let pass = workloads::build(workload, opts.seed, opts.scale, false);
        setups.push(t.elapsed().as_secs_f64());
        drop(pass);
    }
    let rss = peak_rss_mb();
    checks.check(
        "peak RSS readable from /proc/self/status".to_owned(),
        rss.is_some(),
    );
    BTreeMap::from([
        ("setup_s", stats::median(&setups)),
        ("sim_s_per_s", rate(&samples)),
        ("peak_rss_mb", rss.unwrap_or(0.0)),
    ])
}

/// The traced run: per-layer metrics. Half the budget runs untraced
/// passes (the overhead baseline), half traced ones.
fn per_layer(workload: Workload, opts: &RunOptions, checks: &mut Checks) -> Layers {
    let plain = passes(workload, opts, false, opts.seconds / 2.0, checks);
    let traced = passes(workload, opts, true, opts.seconds / 2.0, checks);

    let mut layers = Layers::new();
    for &(name, _) in PER_LAYER {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.outcome.layers.get(name).copied())
            .collect();
        if !values.is_empty() {
            layers.insert(name, stats::median(&values));
        }
    }
    layers.insert("alloc.per_step", median_of(&plain, |p| p.allocs_per_step));
    layers.insert(
        "obs.profile_overhead_frac",
        rate(&plain) / rate(&traced) - 1.0,
    );
    layers.insert(
        "obs.attributed_frac",
        median_of(&traced, |p| p.outcome.attributed_ns as f64 / 1e9 / p.run_s),
    );
    match workload {
        Workload::Metro2500 => {
            let serial = with_threads(1, || measure_pass(workload, opts, false));
            checks.pass("1-thread pass", &serial.outcome);
            layers.insert(
                "parallel.speedup_2t",
                rate(&plain) / rate(std::slice::from_ref(&serial)),
            );
        }
        Workload::PaperSaturated => {
            let (kernel_rows, kernel_checks) = kernels::run(opts.seed);
            layers.extend(kernel_rows);
            for (name, ok) in kernel_checks {
                checks.check(format!("kernels: {name}"), ok);
            }
        }
        Workload::WebPaired | Workload::FleetChaos => {}
    }
    layers
}

/// Run `workload` under `opts`: untraced for the end-to-end metrics,
/// traced (`opts.trace`) for the per-layer ones. The worker count is
/// pinned to [`Workload::threads`].
pub fn run(workload: Workload, opts: &RunOptions) -> RunResult {
    with_threads(workload.threads(), || {
        let mut checks = Checks::new(workload, opts);
        let (values, table, fill) = if opts.trace {
            (per_layer(workload, opts, &mut checks), PER_LAYER, Some(0.0))
        } else {
            (end_to_end(workload, opts, &mut checks), END_TO_END, None)
        };
        let metrics = table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: values
                    .get(name)
                    .copied()
                    .or(fill)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured")),
            })
            .collect();
        RunResult {
            attempted: checks.attempted,
            failures: checks.failures,
            metrics,
        }
    })
}

/// Run one full-size pass of `workload` at `seed` and pin its outputs
/// as the golden. Refuses when the pass fails an invariant check.
pub fn write_golden(workload: Workload, seed: u64) -> Result<PathBuf, String> {
    let opts = RunOptions {
        seed,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
    };
    let sample = with_threads(workload.threads(), || measure_pass(workload, &opts, false));
    if let Some((name, _)) = sample.outcome.checks.iter().find(|(_, ok)| !ok) {
        return Err(format!("not pinned: check failed: {name}"));
    }
    golden::save(workload, seed, &sample.outcome.outputs)
}
