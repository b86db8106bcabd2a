//! The four workloads, each as a [`Pass`]: one freshly built system
//! stepped through a fixed measured phase.

mod fleet;
mod lte;
mod web;

use crate::{Scale, Workload};
use cellfi_types::rng::SeedSeq;
use std::collections::BTreeMap;

/// Simulated outputs of one pass, by name, formatted exactly (`u64` in
/// decimal, `f64` in shortest round-trip form) so equality is textual.
pub(crate) type Outputs = BTreeMap<String, String>;

/// Per-layer metric values a traced pass measured.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// What a pass hands back when it closes.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Outputs compared across passes and against goldens.
    pub outputs: Outputs,
    /// Invariant checks `(name, held)`.
    pub checks: Vec<(&'static str, bool)>,
    /// Per-layer metrics (traced passes only).
    pub layers: Layers,
    /// Nanoseconds of the measured phase spent inside a named layer
    /// (profiler spans plus bench-timed calls; traced passes only).
    pub attributed_ns: u64,
}

impl Outcome {
    pub(crate) fn output(&mut self, name: &str, value: impl std::fmt::Display) {
        self.outputs.insert(name.to_owned(), value.to_string());
    }
}

/// One pass of a workload.
pub(crate) trait Pass {
    /// Advance untimed from construction to the measured phase. A
    /// traced pass installs its profiler at the end of the warm-up.
    fn warm_up(&mut self);
    /// Timed steps in the measured phase.
    fn steps(&self) -> usize;
    /// Simulated seconds one step advances.
    fn step_sim_s(&self) -> f64;
    /// Windows the measured phase is split into.
    fn windows(&self) -> usize;
    /// The window step `i` falls into: equal runs of steps by default.
    fn window(&self, i: usize) -> usize {
        i * self.windows() / self.steps()
    }
    /// Advance one step.
    fn step(&mut self, i: usize);
    /// Close the pass.
    fn finish(self: Box<Self>) -> Outcome;
}

/// Build one pass of `workload`: inputs derived from `seed`, system
/// constructed. This call is what `setup_s` times.
pub(crate) fn build(workload: Workload, seed: u64, scale: Scale, traced: bool) -> Box<dyn Pass> {
    let seeds = SeedSeq::new(seed)
        .child("cellfi-bench")
        .child(workload.name());
    match workload {
        Workload::PaperSaturated => Box::new(lte::Saturated::paper(seeds, scale, traced)),
        Workload::Metro2500 => Box::new(lte::Saturated::metro(seeds, scale, traced)),
        Workload::WebPaired => Box::new(web::WebPaired::new(seeds, scale, traced)),
        Workload::FleetChaos => Box::new(fleet::FleetChaos::new(seeds, scale, traced)),
    }
}

/// The environment a workload runs in, whatever the seed: the seed-1
/// stream of the workload, from which the engine workloads draw their
/// geometry (AP and client drops, shadowing and fading fields) and the
/// fleet its shard fault plans. Host cost depends on the environment
/// far more than on anything else — by 10 % on the paper drop, 30 % on
/// the web one, 2× on one metro drop in five, 7 % between fault plans
/// (see the README) — so the seed varies every other input instead.
pub(crate) fn pinned_environment(workload: Workload) -> SeedSeq {
    SeedSeq::new(1).child("cellfi-bench").child(workload.name())
}

/// Wall-clock nanoseconds since the first call: the clock the bench
/// injects into the engine's profiler (library code reads no clock).
pub(crate) fn clock_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a over a slice of counters: a compact digest of per-entity
/// outputs for the goldens.
pub(crate) fn digest(values: &[u64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Run the engine's standard invariant monitors once over its
/// end-of-pass counters (the counters are cumulative or running
/// maxima, so one check covers the whole pass without arming the
/// per-subframe monitor path the measurement would otherwise include).
pub(crate) fn engine_monitors_hold(engine: &cellfi_sim::LteEngine) -> bool {
    let mut monitors = cellfi_obs::MonitorRegistry::standard();
    monitors.check_tick(&engine.tick_facts());
    monitors.violations().is_empty()
}
