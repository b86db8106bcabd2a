//! `fleet_chaos`: the sharded PAWS lease fleet alone — lifecycles,
//! shard faults, databases, response caches — with no engine.
//!
//! The configuration is `exp spectrum_scale`'s ETSI leg (compressed
//! 15 s lease validity, 2 s poll, jittered renewals, 8 shards, cache
//! TTL of one poll) on its 200 m AP grid, at fault intensity 0.6. The
//! shard fault plans are pinned; the seed drives AP→shard assignment,
//! renewal and backoff jitter.

use super::{pinned_environment, Outcome, Pass};
use crate::alloc::allocations;
use crate::{Scale, Workload};
use cellfi_spectrum::faults::FaultPlan;
use cellfi_spectrum::fleet::{FleetConfig, SpectrumFleet};
use cellfi_spectrum::lifecycle::LifecycleConfig;
use cellfi_spectrum::paws::GeoLocation;
use cellfi_spectrum::profile::RuleProfile;
use cellfi_types::geo::Point;
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::{Duration, Instant};
use std::time::Instant as Wall;

/// Fleet step cadence; at most the lifecycle's vacate margin.
const TICK: Duration = Duration::from_millis(250);

/// Per-shard fault intensity.
const FAULT_INTENSITY: f64 = 0.6;

fn fleet_config() -> FleetConfig {
    let profile = RuleProfile::etsi().with_lease_validity(Duration::from_secs(15));
    let lifecycle = LifecycleConfig {
        eirp_dbm: profile.max_eirp_dbm,
        poll: Duration::from_secs(2),
        renew_fraction: 0.5,
        backoff_base: Duration::from_millis(500),
        backoff_max: Duration::from_secs(4),
        jitter_frac: 0.25,
        vacate_margin: Duration::from_millis(500),
    };
    FleetConfig {
        n_shards: 8,
        cache_ttl: lifecycle.poll,
        ..FleetConfig::new(profile, lifecycle)
    }
}

/// AP sites on a square 200 m grid: several APs per 500 m cache
/// quantum, so response caching has real sharing.
fn grid_locations(n_aps: usize) -> Vec<GeoLocation> {
    let width = (n_aps as f64).sqrt().ceil() as usize;
    (0..n_aps)
        .map(|i| {
            let x = (i % width) as f64 * 200.0;
            let y = (i / width) as f64 * 200.0;
            GeoLocation::gps(Point::new(100_000.0 + x, y))
        })
        .collect()
}

/// One fleet pass.
pub(crate) struct FleetChaos {
    fleet: SpectrumFleet,
    ticks: usize,
    windows: usize,
    traced: bool,
    step_ns: Vec<u64>,
    drain_ns: u64,
    allocs: u64,
}

impl FleetChaos {
    pub(crate) fn new(seeds: SeedSeq, scale: Scale, traced: bool) -> FleetChaos {
        let (n_aps, ticks, windows) = match scale {
            Scale::Full => (4_096, 1_200, 120),
            Scale::Smoke => (64, 80, 4),
        };
        let config = fleet_config();
        let horizon = FleetChaos::at(ticks);
        let faults = pinned_environment(Workload::FleetChaos);
        let plans = (0..config.n_shards)
            .map(|s| {
                let seed = faults.seed_indexed("shard-faults", s as u64);
                FaultPlan::at_intensity(seed, FAULT_INTENSITY, horizon)
            })
            .collect();
        let fleet = SpectrumFleet::new(config, &grid_locations(n_aps), plans, &seeds);
        FleetChaos {
            fleet,
            ticks,
            windows,
            traced,
            step_ns: Vec::with_capacity(if traced { ticks } else { 0 }),
            drain_ns: 0,
            allocs: 0,
        }
    }

    fn at(tick: usize) -> Instant {
        Instant::ZERO + TICK * tick as u64
    }
}

fn ns_since(t: Wall) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Pass for FleetChaos {
    fn warm_up(&mut self) {}

    fn steps(&self) -> usize {
        self.ticks
    }

    fn step_sim_s(&self) -> f64 {
        TICK.as_secs_f64()
    }

    fn windows(&self) -> usize {
        self.windows
    }

    fn step(&mut self, i: usize) {
        if !self.traced {
            self.fleet.step(FleetChaos::at(i));
            drop(self.fleet.drain_events());
            return;
        }
        let (t, before) = (Wall::now(), allocations());
        self.fleet.step(FleetChaos::at(i));
        self.step_ns.push(ns_since(t));
        let t = Wall::now();
        drop(self.fleet.drain_events());
        self.drain_ns += ns_since(t);
        self.allocs += allocations() - before;
    }

    fn finish(mut self: Box<Self>) -> Outcome {
        let stats = self.fleet.finish(FleetChaos::at(self.ticks));
        let lc = stats.lifecycles;
        let mut out = Outcome::default();
        out.output("aps", stats.aps);
        out.output("renewals", lc.renewals);
        out.output("vacates", lc.vacates);
        out.output("degrades", lc.degrades);
        out.output("recoveries", lc.recoveries);
        out.output("backoffs", lc.backoffs);
        out.output("missed_deadlines", lc.missed_deadlines);
        out.output("min_vacate_margin_us", lc.min_vacate_margin_us);
        out.output("lease_gate_breaches", stats.lease_gate_breaches);
        out.output("cache_hits", stats.cache_hits);
        out.output("cache_misses", stats.cache_misses);
        out.output("cache_hit_rate", stats.cache_hit_rate);
        out.output("total_requests", stats.total_requests);
        out.output("peak_shard_rate", stats.peak_shard_rate);
        out.output("mean_shard_rate", stats.mean_shard_rate);
        out.output("uptime_mean", stats.uptime_mean);
        out.output("uptime_p10", stats.uptime_p10);
        out.checks
            .push(("no missed vacate deadline", lc.missed_deadlines == 0));
        out.checks
            .push(("no lease-gate breach", stats.lease_gate_breaches == 0));

        if self.traced {
            let ticks = self.ticks as f64;
            let step_total: u64 = self.step_ns.iter().sum();
            let pct = |p| crate::stats::percentile(&self.step_ns, p) as f64 / 1e3;
            let layers = &mut out.layers;
            layers.insert("fleet.step_us_p50", pct(0.5));
            layers.insert("fleet.step_us_p99", pct(0.99));
            layers.insert("fleet.drain_us", self.drain_ns as f64 / ticks / 1e3);
            layers.insert(
                "fleet.requests_per_tick",
                stats.total_requests as f64 / ticks,
            );
            layers.insert("fleet.cache_hit_ratio", stats.cache_hit_rate);
            layers.insert("fleet.backoffs", lc.backoffs as f64);
            layers.insert("fleet.allocs_per_tick", self.allocs as f64 / ticks);
            out.attributed_ns += step_total + self.drain_ns;
        }
        out
    }
}
