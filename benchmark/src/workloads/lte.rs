//! `paper_saturated` and `metro_2500`: the LTE engine under CellFi with
//! every client backlogged, stepped one subframe at a time.

use super::{clock_ns, digest, engine_monitors_hold, pinned_environment, Outcome, Pass};
use crate::alloc::allocations;
use crate::{Scale, Workload};
use cellfi_obs::{Profiler, SpanId};
use cellfi_sim::{ImMode, LteEngine, LteEngineConfig, Scenario, ScenarioConfig};
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::Instant;
use std::time::Instant as Wall;

/// A saturated-downlink engine pass.
pub(crate) struct Saturated {
    engine: LteEngine,
    warm_up_ms: u64,
    measured: usize,
    windows: usize,
    traced: bool,
    generate_s: f64,
    new_s: f64,
    spatial_s: f64,
    step_allocs: u64,
}

impl Saturated {
    /// Paper §6.3: 8 APs × 6 clients on 2 km², shadowing and fading on,
    /// on the pinned geometry.
    pub(crate) fn paper(seeds: SeedSeq, scale: Scale, traced: bool) -> Saturated {
        let (warm_up_ms, measured, windows) = match scale {
            Scale::Full => (1_000, 200_000, 100),
            Scale::Smoke => (100, 2_000, 4),
        };
        let config = ScenarioConfig::paper_default(8, 6);
        let sizes = (warm_up_ms, measured, windows);
        Saturated::build(Workload::PaperSaturated, config, seeds, traced, sizes)
    }

    /// The fig9metro quick point: 2,500 APs × 40 clients on a 20 km
    /// square (6.25 AP/km²), no shadowing or fading, culled at −80 dBm,
    /// on the pinned geometry. The smoke size keeps the density on a
    /// 4 km square.
    pub(crate) fn metro(seeds: SeedSeq, scale: Scale, traced: bool) -> Saturated {
        let (n_aps, clients, side_m, warm_up_ms, measured, windows) = match scale {
            Scale::Full => (2_500, 40, 20_000.0, 50, 300, 30),
            Scale::Smoke => (100, 10, 4_000.0, 10, 40, 4),
        };
        let mut config = ScenarioConfig::paper_default(n_aps, clients);
        config.area = side_m;
        config.cell_radius = 300.0;
        config.shadowing_sigma = 0.0;
        config.fading = false;
        config.cull_floor_dbm = Some(-80.0);
        let sizes = (warm_up_ms, measured, windows);
        Saturated::build(Workload::Metro2500, config, seeds, traced, sizes)
    }

    /// `sizes` is `(warm-up ms, measured subframes, windows)`.
    fn build(
        workload: Workload,
        config: ScenarioConfig,
        seeds: SeedSeq,
        traced: bool,
        sizes: (u64, usize, usize),
    ) -> Saturated {
        let (warm_up_ms, measured, windows) = sizes;
        let t = Wall::now();
        let scenario = Scenario::generate(config, pinned_environment(workload).child("topology"));
        let generate_s = t.elapsed().as_secs_f64();
        let t = Wall::now();
        let mut engine = LteEngine::new(
            scenario,
            LteEngineConfig::paper_default(ImMode::CellFi),
            seeds.child("engine"),
        );
        let new_s = t.elapsed().as_secs_f64();
        let mut spatial_s = 0.0;
        if traced {
            // Rebuilding from unchanged positions reproduces the same
            // tables, so the pass's outputs stay those of an untraced one.
            let t = Wall::now();
            engine.rebuild_spatial();
            spatial_s = t.elapsed().as_secs_f64();
        }
        engine.backlog_all(u64::MAX / 4);
        Saturated {
            engine,
            warm_up_ms,
            measured,
            windows,
            traced,
            generate_s,
            new_s,
            spatial_s,
            step_allocs: 0,
        }
    }
}

/// Per-subframe self time of `span` in ns.
fn per_subframe_ns(profiler: &Profiler, span: SpanId, subframes: f64) -> f64 {
    profiler.stats(span).self_ns as f64 / subframes
}

/// The engine's per-layer metrics from its profiler, plus the
/// nanoseconds the profiler attributed to a span. Shared with the LTE
/// leg of `web_paired`.
pub(crate) fn engine_layers(engine: &LteEngine, outcome: &mut Outcome) {
    let profiler = &engine.obs().profiler;
    let subframes = profiler.stats(SpanId::Subframe).count.max(1) as f64;
    let layers = &mut outcome.layers;
    for (name, span) in [
        ("engine.mac_schedule_ns", SpanId::MacSchedule),
        ("engine.fading_scan_ns", SpanId::FadingScan),
        ("engine.sinr_cache_ns", SpanId::SinrCache),
        ("engine.cqi_scan_ns", SpanId::CqiScan),
        ("engine.subframe_self_ns", SpanId::Subframe),
    ] {
        layers.insert(name, per_subframe_ns(profiler, span, subframes));
    }
    let epoch = profiler.stats(SpanId::ImEpoch);
    if epoch.count > 0 {
        layers.insert(
            "engine.im_epoch_ms",
            epoch.self_ns as f64 / epoch.count as f64 / 1e6,
        );
    }
    let facts = engine.tick_facts();
    let probes = facts.cache_hits + facts.cache_misses;
    if probes > 0 {
        layers.insert(
            "engine.cache_hit_ratio",
            facts.cache_hits as f64 / probes as f64,
        );
    }
    layers.insert("im.hops", engine.manager_hops().iter().sum::<u64>() as f64);
    outcome.attributed_ns += profiler
        .report()
        .iter()
        .map(|(_, s)| s.self_ns)
        .sum::<u64>();
}

impl Pass for Saturated {
    fn warm_up(&mut self) {
        self.engine.run_until(Instant::from_millis(self.warm_up_ms));
        if self.traced {
            self.engine.obs_mut().profiler = Profiler::with_clock(clock_ns);
        }
    }

    fn steps(&self) -> usize {
        self.measured
    }

    fn step_sim_s(&self) -> f64 {
        1e-3
    }

    fn windows(&self) -> usize {
        self.windows
    }

    fn step(&mut self, _i: usize) {
        if self.traced {
            let before = allocations();
            self.engine.step_subframe();
            self.step_allocs += allocations() - before;
        } else {
            self.engine.step_subframe();
        }
    }

    fn finish(self: Box<Self>) -> Outcome {
        let e = &self.engine;
        let scenario = e.scenario();
        let delivered = e.delivered_bits();
        let mut out = Outcome::default();
        out.output("delivered_bits", delivered.iter().sum::<u64>());
        out.output("delivered_digest", digest(delivered));
        out.output("manager_hops", e.manager_hops().iter().sum::<u64>());
        let kept: usize = (0..scenario.n_ues())
            .map(|u| scenario.nbr.candidates(u).len())
            .sum();
        out.output("kept_links", kept);
        out.output("max_neighbors", scenario.nbr.max_neighbors);

        let mut cell_bits = vec![0u64; scenario.aps.len()];
        for (u, &bits) in delivered.iter().enumerate() {
            cell_bits[scenario.assoc[u]] += bits;
        }
        out.checks
            .push(("every cell delivers", cell_bits.iter().all(|&b| b > 0)));
        out.checks
            .push(("engine monitors hold", engine_monitors_hold(e)));

        if self.traced {
            out.layers.insert("topology.generate_s", self.generate_s);
            out.layers.insert("engine.new_s", self.new_s);
            out.layers.insert("spatial.rebuild_s", self.spatial_s);
            out.layers.insert(
                "engine.allocs_per_sf",
                self.step_allocs as f64 / self.measured as f64,
            );
            engine_layers(e, &mut out);
        }
        out
    }
}
