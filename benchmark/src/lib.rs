//! The CellFi repository benchmark.
//!
//! Four workloads, each run as repeated *passes* in one process: a pass
//! builds its inputs and system from the seed (timed as set-up), warms
//! up untimed, then steps a fixed measured phase with a closed host
//! loop — the next step starts when the previous call returns. Every
//! pass checks its simulated outputs: against the run's first pass, and
//! against the goldens for the pinned seeds.
//!
//! An untraced run reports the [`END_TO_END`] metrics. A traced run
//! ([`RunOptions::trace`]) reports the [`PER_LAYER`] metrics instead: it
//! installs the engine's existing `obs::Profiler` with the bench's own
//! clock and times calls into the public API of each layer from here.
//! No program code changes to produce either set.

#![deny(unsafe_code)]

pub mod alloc;
pub mod compare;
mod golden;
mod kernels;
mod runner;
pub mod spec;
pub mod stats;
mod workloads;

pub use runner::{run, write_golden};

use std::collections::BTreeMap;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper §6.3 topology (8 APs × 6 clients), CellFi, full backlog.
    PaperSaturated,
    /// The fig9metro quick point: 2,500 cells / 100,000 clients, culled.
    Metro2500,
    /// fig9c web traffic through CellFi, then through 802.11af.
    WebPaired,
    /// The PAWS lease fleet: 4,096 APs over 8 faulty shards.
    FleetChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSaturated,
        Workload::Metro2500,
        Workload::WebPaired,
        Workload::FleetChaos,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSaturated => "paper_saturated",
            Workload::Metro2500 => "metro_2500",
            Workload::WebPaired => "web_paired",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload runs with (pinned; `CELLFI_THREADS`
    /// is not read). Only metro has rows enough for `parallel` to split.
    pub fn threads(self) -> usize {
        match self {
            Workload::Metro2500 => 2,
            _ => 1,
        }
    }
}

/// Workload size. The command line always runs [`Scale::Full`]; tests
/// run [`Scale::Smoke`] through the library so they finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes; goldens apply.
    Full,
    /// Reduced sizes with the same code paths; no goldens.
    Smoke,
}

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed every input derives from.
    pub seed: u64,
    /// Host seconds to spend in measured passes (at least one pass
    /// always runs).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_s_per_s", "s/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_s", "s"),
    ("engine.new_s", "s"),
    ("spatial.rebuild_s", "s"),
    ("engine.mac_schedule_ns", "ns"),
    ("engine.fading_scan_ns", "ns"),
    ("engine.sinr_cache_ns", "ns"),
    ("engine.cqi_scan_ns", "ns"),
    ("engine.subframe_self_ns", "ns"),
    ("engine.im_epoch_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.allocs_per_sf", "count"),
    ("im.hops", "count"),
    ("lte.scheduler.pf_allocate_ns", "ns"),
    ("lte.amc.cqi_for_sinr_ns", "ns"),
    ("propagation.subchannel_sinr_ns", "ns"),
    ("core.hopping.round_ns", "ns"),
    ("core.sensing.cqi_push_ns", "ns"),
    ("lte.prach.detect_us", "us"),
    ("lte.prach.line_rate_x", "x"),
    ("parallel.speedup_2t", "x"),
    ("wifi.run_until_us", "us"),
    ("wifi.tx_success_ratio", "ratio"),
    ("wifi.attempts", "count"),
    ("wifi.allocs_per_tick", "count"),
    ("workload.web_ns", "ns"),
    ("fleet.step_us_p50", "us"),
    ("fleet.step_us_p99", "us"),
    ("fleet.drain_us", "us"),
    ("fleet.requests_per_tick", "count"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("fleet.backoffs", "count"),
    ("fleet.allocs_per_tick", "count"),
    ("alloc.per_step", "count"),
    ("obs.profile_overhead_frac", "ratio"),
    ("obs.attributed_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The result of one run: output checks and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Output checks made.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metrics, in table order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`
    /// (each metric as `{"value", "unit"}`), as one JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = BTreeMap::from([
                    ("value".to_owned(), Value::Number(m.value)),
                    ("unit".to_owned(), Value::String(m.unit.to_owned())),
                ]);
                (m.name.to_owned(), Value::Object(entry))
            })
            .collect();
        Value::Object(BTreeMap::from([
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::Number(self.attempted as f64)),
            (
                "failed".to_owned(),
                Value::Number(self.failures.len() as f64),
            ),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]))
    }
}
