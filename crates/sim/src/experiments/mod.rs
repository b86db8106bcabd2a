//! Experiment drivers — one per table/figure of the paper.
//!
//! Each driver is a pure function from an [`ExpConfig`] to a
//! [`ExpReport`]: a human-readable text report plus machine-readable
//! key/value results that EXPERIMENTS.md tracks against the paper's
//! numbers. The `exp` binary dispatches by experiment name.

pub mod ablation;
pub mod chaos;
pub mod convergence;
pub mod coordination;
pub mod fig1;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig9metro;
pub mod harness;
pub mod laa;
pub mod overhead;
pub mod prach;
pub mod replay;
pub mod roaming;
pub mod spectrum_scale;
pub mod table1;
pub mod theorem1;
pub mod trace_run;

use std::collections::BTreeMap;

/// Common experiment knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Master seed; every experiment is deterministic given it.
    pub seed: u64,
    /// Quick mode: fewer topologies / shorter runs, for tests and smoke
    /// checks. Full mode reproduces the paper-scale sweep.
    pub quick: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            seed: 20171212, // the paper's conference date
            quick: false,
        }
    }
}

/// An experiment's output.
#[derive(Debug, Clone)]
pub struct ExpReport {
    /// Experiment id (e.g. "fig9a").
    pub id: String,
    /// Human-readable report.
    pub text: String,
    /// Headline numbers for EXPERIMENTS.md / JSON output.
    pub values: BTreeMap<String, f64>,
}

impl ExpReport {
    /// Create a report.
    pub fn new(id: &str) -> ExpReport {
        ExpReport {
            id: id.to_owned(),
            text: String::new(),
            values: BTreeMap::new(),
        }
    }

    /// Record a headline value.
    pub fn record(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_owned(), value);
    }
}

/// All experiment names, in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "fig1a",
    "fig1b",
    "fig1c",
    "fig2",
    "fig6",
    "fig7b",
    "fig7c",
    "fig8",
    "prach",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9dense",
    "fig9metro",
    "convergence",
    "overhead",
    "theorem1",
    "ablation",
    "laa",
    "coordination",
    "roaming",
    "chaos",
    "spectrum_scale",
];

/// Run several experiments concurrently on the scoped thread pool
/// ([`crate::parallel`]), returning reports in input order. Every name
/// must be valid (see [`run`] / [`ALL`]); each experiment derives all
/// randomness from its own [`SeedSeq`](cellfi_types::rng::SeedSeq)
/// children of `config.seed`, so runs are independent and the reduced
/// output is byte-identical to calling [`run`] serially in a loop.
pub fn run_many(names: &[&str], config: ExpConfig) -> Vec<ExpReport> {
    crate::parallel::map_indexed(names.len(), |i| {
        run(names[i], config)
            // cellfi-lint: allow(panic) — an unknown experiment name is a
            // caller typo; failing loudly beats silently dropping a figure
            // from the reproduction run.
            .unwrap_or_else(|| panic!("unknown experiment: {}", names[i]))
    })
}

/// Dispatch an experiment by name.
pub fn run(name: &str, config: ExpConfig) -> Option<ExpReport> {
    Some(match name {
        "table1" => table1::run(config),
        "fig1a" => fig1::run_a(config),
        "fig1b" => fig1::run_b(config),
        "fig1c" => fig1::run_c(config),
        "fig2" => fig2::run(config),
        "fig6" => fig6::run(config),
        "fig7b" => fig7::run_b(config),
        "fig7c" => fig7::run_c(config),
        "fig8" => fig8::run(config),
        "prach" => prach::run(config),
        "fig9a" => fig9::run_a(config),
        "fig9b" => fig9::run_b(config),
        "fig9c" => fig9::run_c(config),
        "fig9dense" => fig9::run_dense(config),
        "fig9metro" => fig9metro::run(config),
        "convergence" => convergence::run(config),
        "overhead" => overhead::run(config),
        "theorem1" => theorem1::run(config),
        "ablation" => ablation::run(config),
        "laa" => laa::run(config),
        "coordination" => coordination::run(config),
        "roaming" => roaming::run(config),
        "chaos" => chaos::run(config),
        "spectrum_scale" => spectrum_scale::run(config),
        _ => return None,
    })
}
