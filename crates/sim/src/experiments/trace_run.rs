//! Traced runs behind `exp --trace`.
//!
//! Maps each experiment name onto a deterministic, traced replay of its
//! canonical topology: `fig6` re-runs the PAWS withdrawal script with
//! the lease lifecycle traced; every other name runs the CellFi engine
//! over that experiment's topology with the event tracer enabled. Both
//! streams are pure functions of the seed — simulation ticks, never wall
//! clock — so two runs at *any* `CELLFI_THREADS` byte-compare equal via
//! `exp trace-diff`.

use super::ExpConfig;
use crate::engine::{ImMode, LteEngine, LteEngineConfig};
use crate::topology::{Scenario, ScenarioConfig, UE_NODE_BASE};
use cellfi_obs::{Event, Registry, Tracer};
use cellfi_propagation::antenna::Antenna;
use cellfi_propagation::link::LinkEnd;
use cellfi_types::geo::Point;
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::Instant;

/// A traced run's exports: the event stream plus a metrics snapshot
/// taken at the final tick, and — when the corresponding layers are
/// switched on — histogram sketches of the unsampled remainder, the
/// monitor verdict, and a flight-recorder dump.
#[derive(Debug, Clone)]
pub struct TraceOutput {
    /// JSONL event stream, one record per line, in tick order.
    pub events: String,
    /// JSONL metrics snapshot (counters, gauges, histograms).
    pub metrics: String,
    /// JSONL per-kind histogram sketches of the events the sampler
    /// dropped. Empty under [`cellfi_obs::SampleSpec::FULL`].
    pub sketches: String,
    /// Monitor verdict line ([`cellfi_obs::MonitorRegistry::verdict_line`]).
    /// Empty when monitors were not armed.
    pub verdict: String,
    /// The first invariant violation, when monitors were armed and one
    /// fired.
    pub violation: Option<cellfi_obs::monitor::Violation>,
    /// Flight-recorder ring dump (JSONL, oldest first). Empty unless
    /// flight recording was enabled.
    pub flight: String,
}

/// Knobs for a traced run: the detail stream, the deterministic
/// sampling spec, the invariant monitors, and the flight-recorder
/// capacity. `Default` reproduces the classic full-fidelity trace
/// byte for byte.
#[derive(Debug, Clone, Default)]
pub struct TraceOptions {
    /// Emit the high-rate detail stream (`sched`/`harq_retx`, per-epoch
    /// histogram windows).
    pub detail: bool,
    /// Stratified sampling spec; `SampleSpec::FULL` keeps everything.
    pub sample: cellfi_obs::SampleSpec,
    /// Arm the standard invariant-monitor catalogue.
    pub monitors: bool,
    /// Flight-recorder ring capacity in events; 0 disables it.
    pub flight_cap: usize,
}

/// Run experiment `name`'s topology with tracing enabled; `None` for
/// unknown names.
pub fn traced(name: &str, config: ExpConfig) -> Option<TraceOutput> {
    traced_with(name, config, false)
}

/// As [`traced`], with the detail stream (`sched`/`harq_retx` events
/// and per-epoch histogram window snapshots) switched on or off.
pub fn traced_with(name: &str, config: ExpConfig, detail: bool) -> Option<TraceOutput> {
    traced_opts(
        name,
        config,
        &TraceOptions {
            detail,
            ..TraceOptions::default()
        },
    )
}

/// As [`traced`], with the full option set: sampling, monitors, and the
/// flight recorder, on top of the detail switch.
pub fn traced_opts(name: &str, config: ExpConfig, opts: &TraceOptions) -> Option<TraceOutput> {
    if !super::ALL.contains(&name) {
        return None;
    }
    if name == "fig6" {
        return Some(paws_trace());
    }
    if name == "chaos" {
        return Some(chaos_trace(config, opts));
    }
    if name == "spectrum_scale" {
        return Some(super::spectrum_scale::trace(config, opts));
    }
    let e = traced_engine(name, config, opts).expect("known non-fig6 names have an engine run");
    // Per-epoch window snapshots (chronological) precede the final
    // cumulative snapshot; without detail the window log is empty
    // and the export is byte-identical to the classic stream.
    let metrics = format!(
        "{}{}",
        e.obs().metrics.window_log(),
        e.obs().metrics.snapshot_jsonl(e.now())
    );
    Some(output_from_engine(&e, metrics))
}

/// Assemble a [`TraceOutput`] from a finished engine's obs bundle.
fn output_from_engine(e: &LteEngine, metrics: String) -> TraceOutput {
    let obs = e.obs();
    TraceOutput {
        events: obs.tracer.to_jsonl(),
        metrics,
        sketches: obs.tracer.sketches().to_jsonl(),
        verdict: if obs.monitors.is_armed() {
            obs.monitors.verdict_line()
        } else {
            String::new()
        },
        violation: obs.monitors.first_violation().copied(),
        flight: obs.tracer.flight().to_jsonl(),
    }
}

/// Configure an engine's obs bundle from `opts` (tracer always on).
pub(crate) fn apply_opts(e: &mut LteEngine, opts: &TraceOptions) {
    let mut tracer = Tracer::new(true);
    tracer.set_sample(opts.sample);
    if opts.flight_cap > 0 {
        tracer.enable_flight(opts.flight_cap);
    }
    e.obs_mut().tracer = tracer;
    e.obs_mut().detail = opts.detail;
    if opts.monitors {
        e.obs_mut().monitors = cellfi_obs::MonitorRegistry::standard();
    }
}

/// The finished engine behind a traced run of `name` — exposed so the
/// replay round-trip test can compare reconstructed occupancy with the
/// engine's actual final masks. `None` for unknown names and for
/// `fig6`, whose trace has no engine.
pub(crate) fn traced_engine(
    name: &str,
    config: ExpConfig,
    opts: &TraceOptions,
) -> Option<LteEngine> {
    if !super::ALL.contains(&name) || name == "fig6" || name == "chaos" || name == "spectrum_scale"
    {
        return None;
    }
    let scenario = match name {
        "fig7b" | "fig7c" => two_cell_with_clients(config, name),
        "fig9metro" => metro_culled(config, name),
        _ => large_scale(config, name),
    };
    Some(engine_trace(scenario, name, config, opts))
}

/// The Fig 6 PAWS script with the lease lifecycle traced. Metrics
/// summarise the trace itself: lease-event counts and the margin left
/// before the 60 s ETSI deadline when transmissions stopped.
fn paws_trace() -> TraceOutput {
    let mut tracer = Tracer::new(true);
    let timeline = super::fig6::timeline_traced(&mut tracer);
    let mut metrics = Registry::new();
    for r in tracer.records() {
        match r.event {
            Event::PawsGrant { .. } => metrics.inc("paws_grants", 0, 1),
            Event::PawsRenew { .. } => metrics.inc("paws_renews", 0, 1),
            Event::PawsVacate { .. } => metrics.inc("paws_vacates", 0, 1),
            Event::PawsVacated { margin_us, .. } => {
                metrics.observe("vacate_margin_s", 0, margin_us as f64 / 1e6);
            }
            _ => {}
        }
    }
    let end = timeline.last().map(|e| e.at).unwrap_or(Instant::ZERO);
    TraceOutput {
        events: tracer.to_jsonl(),
        metrics: metrics.snapshot_jsonl(end),
        sketches: String::new(),
        verdict: String::new(),
        violation: None,
        flight: String::new(),
    }
}

/// A traced chaos run: one CellFi engine under a representative fault
/// intensity, with the resilience event stream (`fault_inject`,
/// `lease_renew`, `degrade`, `recover`, `paws_vacated`) and the
/// downtime/vacate-margin metrics the injector and lifecycles feed into
/// the engine's obs bundle. Byte-identical at any `CELLFI_THREADS`: the
/// lifecycles step serially in cell index order, and the engine's own
/// events merge through the fork/absorb sinks.
fn chaos_trace(config: ExpConfig, opts: &TraceOptions) -> TraceOutput {
    let seeds = SeedSeq::new(config.seed).child("trace").child("chaos");
    let horizon = Instant::from_secs(if config.quick { 10 } else { 20 });
    let out = super::chaos::chaos_run(ImMode::CellFi, 0.6, 3, 2, horizon, seeds, Some(opts));
    let metrics = out.engine.obs().metrics.snapshot_jsonl(out.engine.now());
    output_from_engine(&out.engine, metrics)
}

/// The paper's large-scale drop, sized for a short traced run.
fn large_scale(config: ExpConfig, name: &str) -> Scenario {
    let seeds = SeedSeq::new(config.seed).child("trace").child(name);
    Scenario::generate(ScenarioConfig::paper_default(4, 3), seeds.child("topo"))
}

/// A pocket edition of the fig9metro drop: same AP density, flat
/// channel and received-power cull floor as
/// [`super::fig9metro::metro_config`], shrunk to a map a traced run can
/// afford. The floor is active, so the spatial index genuinely culls
/// far links and the trace carries one `cull` event per client.
fn metro_culled(config: ExpConfig, name: &str) -> Scenario {
    let seeds = SeedSeq::new(config.seed).child("trace").child(name);
    let mut cfg = super::fig9metro::metro_config(super::fig9metro::QUICK[0]);
    cfg.n_aps = 36;
    cfg.clients_per_ap = 2;
    cfg.area = 2_400.0;
    Scenario::generate(cfg, seeds.child("topo"))
}

/// The Fig 7 two-cell rooftop layout. The walk experiment itself has no
/// resident clients (the probe is moved by hand), so the traced engine
/// run gives each cell two so there is traffic to schedule, PRACH to
/// overhear and interference to flag.
fn two_cell_with_clients(config: ExpConfig, name: &str) -> Scenario {
    let seeds = SeedSeq::new(config.seed).child("trace").child(name);
    let mut s = Scenario::two_cell_interference(15.0, seeds.child("topo"));
    let serving = s.aps[0].position;
    let interferer = s.aps[1].position;
    let drops = [
        (serving, 40.0, 0.0, 0),
        (serving, 80.0, 30.0, 0),
        (interferer, -40.0, 0.0, 1),
        (interferer, -80.0, -30.0, 1),
    ];
    for (i, (anchor, dx, dy, ap)) in drops.iter().enumerate() {
        s.ues.push(LinkEnd::new(
            UE_NODE_BASE + i as u32,
            Point::new(anchor.x + dx, anchor.y + dy),
            Antenna::client(),
        ));
        s.assoc.push(*ap);
    }
    s.config.clients_per_ap = 2;
    s
}

/// Run the CellFi engine over `scenario` with the tracer on, fully
/// backlogged, for a couple of simulated seconds (one in `--quick`).
fn engine_trace(
    scenario: Scenario,
    name: &str,
    config: ExpConfig,
    opts: &TraceOptions,
) -> LteEngine {
    let seeds = SeedSeq::new(config.seed).child("trace").child(name);
    let mut e = LteEngine::new(
        scenario,
        LteEngineConfig::paper_default(ImMode::CellFi),
        seeds.child("engine"),
    );
    apply_opts(&mut e, opts);
    // One cull record per client, before traffic: a no-op on dense
    // scenarios, so every pre-culling trace stays byte-identical.
    e.emit_cull_events();
    e.backlog_all(u64::MAX / 4);
    let horizon = if config.quick { 1 } else { 2 };
    e.run_until(Instant::from_secs(horizon));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpConfig {
        ExpConfig {
            seed: 9,
            quick: true,
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(traced("fig99", quick()).is_none());
    }

    #[test]
    fn fig6_trace_has_paws_lifecycle() {
        let out = traced("fig6", quick()).expect("fig6 is a known experiment");
        assert!(out.events.contains("\"ev\":\"paws_grant\""));
        assert!(out.events.contains("\"ev\":\"paws_vacate\""));
        assert!(out.events.contains("\"ev\":\"paws_vacated\""));
        assert!(out.metrics.contains("vacate_margin_s"));
    }

    #[test]
    fn engine_trace_is_seed_deterministic() {
        let a = traced("fig7b", quick()).expect("fig7b is a known experiment");
        let b = traced("fig7b", quick()).expect("fig7b is a known experiment");
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics, b.metrics);
        assert!(!a.events.is_empty(), "engine trace captured no events");
    }
}
