//! `exp spectrum_scale`: the multi-tenant spectrum-manager fleet under
//! fleet-wide chaos.
//!
//! Sweeps fleet size × per-shard fault intensity × regulatory rule
//! profile over a [`SpectrumFleet`]: thousands of lease lifecycles
//! multiplexed across 8 sharded database backends, each shard with its
//! own seeded [`FaultPlan`], with response caching, desynchronized
//! renewals and occupancy-driven cross-channel assignment. Per leg the
//! report pins:
//!
//! * **lease uptime** — mean and 10th-percentile per-AP fraction of
//!   ticks with permission to radiate;
//! * **renewal load** — peak and mean requests per shard rate window
//!   (the desynchronization jitter is what keeps the peak flat);
//! * **cache hit rate** — availability probes absorbed by the
//!   quantized-location response caches;
//! * **compliance** — worst-case vacate margin, missed deadlines, and
//!   ground-truth lease-gate breaches (the last two must be zero on
//!   every leg: the fleet-wide regulatory property).
//!
//! Everything derives from the experiment seed; legs fan out over the
//! thread pool and each fleet steps serially in AP index order, so the
//! report and the traced run are byte-identical at any `CELLFI_THREADS`.

use super::{ExpConfig, ExpReport};
use crate::report::table;
use cellfi_obs::monitor::TickFacts;
use cellfi_obs::{Event, MonitorRegistry, Registry, Tracer};
use cellfi_spectrum::faults::FaultPlan;
use cellfi_spectrum::fleet::{FleetConfig, FleetEvent, FleetStats, SpectrumFleet};
use cellfi_spectrum::lifecycle::LifecycleConfig;
use cellfi_spectrum::paws::GeoLocation;
use cellfi_spectrum::profile::RuleProfile;
use cellfi_types::geo::Point;
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::{Duration, Instant};

/// Cadence at which the fleet is stepped. Must stay ≤ the lifecycle's
/// vacate margin so an expiry between steps is always caught in time.
pub const FLEET_TICK: Duration = Duration::from_millis(250);

/// Database shards every leg runs over.
pub const N_SHARDS: usize = 8;

/// Compressed lease validity per profile, scaled so renewal, expiry and
/// revocation all happen within an experiment horizon while the 2:1
/// ETSI:FCC validity ratio survives the compression.
fn compressed_validity(profile: &RuleProfile) -> Duration {
    if profile.name == "fcc" {
        Duration::from_secs(30)
    } else {
        Duration::from_secs(15)
    }
}

/// The fleet tuning every leg uses: the chaos-experiment lifecycle
/// cadence under `profile`'s EIRP cap, a cache TTL of one poll interval
/// and a renewal spread of one poll interval (jitter on).
fn fleet_config(profile: &RuleProfile) -> FleetConfig {
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
        n_shards: N_SHARDS,
        cache_ttl: lifecycle.poll,
        ..FleetConfig::new(
            profile
                .clone()
                .with_lease_validity(compressed_validity(profile)),
            lifecycle,
        )
    }
}

/// A deterministic metro grid of AP sites, 200 m pitch: several APs per
/// 500 m cache-quantum cell, so response caching has real sharing.
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

/// Build and drive one fleet leg to `horizon`, returning the aggregate
/// stats and the drained event stream.
fn fleet_run(
    profile: &RuleProfile,
    intensity: f64,
    n_aps: usize,
    renew_spread: Option<Duration>,
    horizon: Instant,
    seeds: &SeedSeq,
) -> (FleetStats, Vec<(Instant, FleetEvent)>) {
    let mut config = fleet_config(profile);
    if let Some(spread) = renew_spread {
        config.renew_spread = spread;
    }
    let plans: Vec<FaultPlan> = (0..config.n_shards)
        .map(|s| {
            FaultPlan::at_intensity(
                seeds.seed_indexed("shard-faults", s as u64),
                intensity,
                horizon,
            )
        })
        .collect();
    let mut fleet = SpectrumFleet::new(config, &grid_locations(n_aps), plans, seeds);
    let mut events = Vec::new();
    let mut now = Instant::ZERO;
    while now < horizon {
        fleet.step(now);
        events.append(&mut fleet.drain_events());
        now += FLEET_TICK;
    }
    (fleet.finish(horizon), events)
}

/// Worst-case vacate margin in seconds; the profile's full deadline
/// when no AP in the leg ever had to vacate.
fn min_margin_s(stats: &FleetStats, profile: &RuleProfile) -> f64 {
    if stats.lifecycles.min_vacate_margin_us == u64::MAX {
        profile.vacate_deadline.as_micros() as f64 / 1e6
    } else {
        stats.lifecycles.min_vacate_margin_us as f64 / 1e6
    }
}

/// Run the fleet-scale sweep.
pub fn run(config: ExpConfig) -> ExpReport {
    let mut rep = ExpReport::new("spectrum_scale");
    let (sizes, horizon, intensities): (&[usize], Instant, &[f64]) = if config.quick {
        (&[128, 384], Instant::from_secs(30), &[0.0, 0.6])
    } else {
        (&[256, 1024], Instant::from_secs(60), &[0.0, 0.3, 0.6, 0.9])
    };
    let profiles = [RuleProfile::etsi(), RuleProfile::fcc()];
    let legs: Vec<(&RuleProfile, f64, usize)> = profiles
        .iter()
        .flat_map(|p| {
            intensities
                .iter()
                .flat_map(move |&i| sizes.iter().map(move |&n| (p, i, n)))
        })
        .collect();
    // Fan the independent legs over the pool; each fleet steps serially
    // inside, and results reduce in input order, so the report is
    // thread-count independent.
    let outcomes = crate::parallel::map_indexed(legs.len(), |l| {
        let (profile, intensity, n_aps) = legs[l];
        let seeds = SeedSeq::new(config.seed)
            .child("spectrum-scale")
            .child(&format!(
                "{}-i{:02}-n{n_aps:04}",
                profile.name,
                (intensity * 10.0) as u32
            ));
        fleet_run(profile, intensity, n_aps, None, horizon, &seeds)
    });

    let mut rows = Vec::new();
    for (l, (profile, intensity, n_aps)) in legs.iter().enumerate() {
        let (stats, _) = &outcomes[l];
        let margin_s = min_margin_s(stats, profile);
        rows.push(vec![
            profile.name.to_string(),
            format!("{intensity:.1}"),
            format!("{n_aps}"),
            format!("{:.3}", stats.uptime_mean),
            format!("{:.3}", stats.uptime_p10),
            format!("{}", stats.peak_shard_rate),
            format!("{:.1}", stats.mean_shard_rate),
            format!("{:.2}", stats.cache_hit_rate),
            format!("{margin_s:.1} s"),
            format!("{}", stats.lifecycles.missed_deadlines),
            format!("{}", stats.lease_gate_breaches),
        ]);
        let key = format!(
            "{}_i{:02}_n{n_aps:04}",
            profile.name,
            (intensity * 10.0) as u32
        );
        rep.record(&format!("{key}_uptime_mean"), stats.uptime_mean);
        rep.record(&format!("{key}_uptime_p10"), stats.uptime_p10);
        rep.record(&format!("{key}_renew_peak"), stats.peak_shard_rate as f64);
        rep.record(&format!("{key}_renew_mean"), stats.mean_shard_rate);
        rep.record(&format!("{key}_cache_hit_rate"), stats.cache_hit_rate);
        rep.record(&format!("{key}_min_margin_s"), margin_s);
        rep.record(
            &format!("{key}_missed_deadlines"),
            stats.lifecycles.missed_deadlines as f64,
        );
        rep.record(
            &format!("{key}_lease_gate_breaches"),
            stats.lease_gate_breaches as f64,
        );
    }
    rep.text = table(
        &[
            "profile",
            "intensity",
            "APs",
            "uptime",
            "p10",
            "peak req/win",
            "mean req/win",
            "cache hit",
            "min margin",
            "missed",
            "breaches",
        ],
        &rows,
    );
    rep.text.push_str(
        "\nEach leg multiplexes the fleet over 8 sharded PAWS backends with\n\
         independent seeded fault plans. `missed` and `breaches` must be 0 on\n\
         every leg: no AP transmits without a valid lease and every vacate\n\
         beats its profile's deadline, fleet-wide, at any fault intensity.\n\
         `min margin` reports the profile's full deadline when a leg never\n\
         had to vacate.\n",
    );
    rep
}

/// Translate one fleet event into the obs trace/metrics bundle of a
/// traced run. Shard-scoped events keep the shard as their entity.
fn emit_fleet_event(
    tracer: &mut Tracer,
    metrics: &mut Registry,
    at: Instant,
    event: FleetEvent,
    min_margin_us: &mut i64,
) {
    match event {
        FleetEvent::Lifecycle { ap, event } => {
            if let Some(margin_us) =
                super::chaos::emit_lifecycle_event(tracer, metrics, ap, at, event)
            {
                *min_margin_us = (*min_margin_us).min(margin_us);
            }
        }
        FleetEvent::ShardOutage { shard, until } => {
            tracer.emit(
                at,
                Event::ShardOutage {
                    shard,
                    until_us: until.as_micros(),
                },
            );
            metrics.inc("shard_outages", shard, 1);
        }
        FleetEvent::CacheHit { shard, age } => {
            tracer.emit(
                at,
                Event::CacheHit {
                    shard,
                    age_us: age.as_micros(),
                },
            );
            metrics.inc("cache_hits", shard, 1);
        }
        FleetEvent::RenewBatch { shard, size } => {
            tracer.emit(at, Event::RenewBatch { shard, size });
            metrics.observe("renew_batch", shard, size as f64);
        }
        FleetEvent::Fault { shard, kind } => {
            tracer.emit(at, Event::FaultInject { cell: shard, kind });
            metrics.inc("faults_injected", shard, 1);
        }
    }
}

/// A traced fleet run behind `exp spectrum_scale --trace`: one
/// representative ETSI leg under moderate chaos, engine-free (the fleet
/// is the whole system under test). Fleet events map onto the obs event
/// stream (`shard_outage`, `cache_hit`, `renew_batch` plus the lease
/// lifecycle kinds), and `--monitors` arms the fleet catalogue
/// ([`MonitorRegistry::fleet`]) against per-tick facts. Byte-identical
/// at any `CELLFI_THREADS`: the fleet steps serially in AP index order.
pub(crate) fn trace(
    config: ExpConfig,
    opts: &super::trace_run::TraceOptions,
) -> super::trace_run::TraceOutput {
    let seeds = SeedSeq::new(config.seed)
        .child("trace")
        .child("spectrum_scale");
    let (n_aps, horizon) = if config.quick {
        (48, Instant::from_secs(15))
    } else {
        (64, Instant::from_secs(30))
    };
    let profile = RuleProfile::etsi();
    let fleet_cfg = fleet_config(&profile);
    let plans: Vec<FaultPlan> = (0..fleet_cfg.n_shards)
        .map(|s| {
            FaultPlan::at_intensity(seeds.seed_indexed("shard-faults", s as u64), 0.6, horizon)
        })
        .collect();
    let mut fleet = SpectrumFleet::new(fleet_cfg, &grid_locations(n_aps), plans, &seeds);

    let mut tracer = Tracer::new(true);
    tracer.set_sample(opts.sample);
    if opts.flight_cap > 0 {
        tracer.enable_flight(opts.flight_cap);
    }
    let mut metrics = Registry::new();
    let mut monitors = if opts.monitors {
        MonitorRegistry::fleet()
    } else {
        MonitorRegistry::disabled()
    };

    let mut min_margin_us = i64::MAX;
    let mut missed_seen = 0u64;
    let mut now = Instant::ZERO;
    while now < horizon {
        fleet.step(now);
        for (at, ev) in fleet.drain_events() {
            emit_fleet_event(&mut tracer, &mut metrics, at, ev, &mut min_margin_us);
        }
        // A missed deadline saturates the event margin at zero, so the
        // miss counter is the signal: surface it to the monitors as a
        // negative margin, exactly like the chaos engine runs do.
        let missed: u64 = (0..fleet.n_aps())
            .map(|i| fleet.lifecycle(i).stats().missed_deadlines)
            .sum();
        if missed > missed_seen {
            missed_seen = missed;
            min_margin_us = min_margin_us.min(-1);
        }
        monitors.check_tick(&TickFacts {
            tick_us: now.as_micros(),
            n_ues: fleet.n_aps() as u32,
            rlf_drops: 0,
            max_starved_epochs: 0,
            cache_hits: 0,
            cache_misses: 0,
            min_margin_us,
            lease_gate_breaches: fleet.lease_gate_breaches(),
        });
        now += FLEET_TICK;
    }
    let stats = fleet.finish(horizon);
    metrics.inc("lease_gate_breaches", 0, stats.lease_gate_breaches);

    super::trace_run::TraceOutput {
        events: tracer.to_jsonl(),
        metrics: metrics.snapshot_jsonl(horizon),
        sketches: tracer.sketches().to_jsonl(),
        verdict: if monitors.is_armed() {
            monitors.verdict_line()
        } else {
            String::new()
        },
        violation: monitors.first_violation().copied(),
        flight: tracer.flight().to_jsonl(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    fn quick() -> ExpConfig {
        ExpConfig {
            seed: 9,
            quick: true,
        }
    }

    #[test]
    fn every_leg_is_compliant() {
        let r = run(quick());
        for (k, v) in &r.values {
            if k.ends_with("missed_deadlines") || k.ends_with("lease_gate_breaches") {
                assert_eq!(*v, 0.0, "{k}");
            }
            if k.ends_with("min_margin_s") {
                assert!(*v >= 0.0, "{k} = {v}");
            }
            if k.ends_with("uptime_mean") {
                assert!(*v > 0.0, "{k} = {v}");
            }
        }
        // Quick sweep covers >= 2000 lifecycles: 2 profiles x 2
        // intensities x (128 + 384) APs.
        assert_eq!(r.values.len(), 8 * 8, "8 legs x 8 metrics");
    }

    #[test]
    fn chaos_costs_uptime_but_zero_is_free() {
        let r = run(quick());
        assert_eq!(r.values["etsi_i00_n0128_uptime_mean"], 1.0);
        assert!(r.values["etsi_i06_n0128_uptime_mean"] < 1.0);
        assert!(r.values["etsi_i00_n0128_cache_hit_rate"] > 0.2);
        // Chaos poisons cache reuse (outages stall refreshes), but the
        // caches still absorb real load.
        assert!(r.values["etsi_i06_n0128_cache_hit_rate"] > 0.05);
    }

    /// Satellite: renewal desynchronization. Jitter off lets every AP
    /// on a shard renew in lockstep (a storm); the deterministic jitter
    /// keeps the per-shard peak strictly below it and under a pinned
    /// bound — byte-identically at 1 and 8 threads.
    #[test]
    fn desync_flattens_renewal_storms_at_any_thread_count() {
        let go = |spread: Option<Duration>| {
            with_threads(1, || {
                let seeds = SeedSeq::new(41).child("desync");
                fleet_run(
                    &RuleProfile::etsi(),
                    0.0,
                    96,
                    spread,
                    Instant::from_secs(20),
                    &seeds,
                )
            })
        };
        let spread = Some(Duration::from_secs(8));
        let (storm, _) = go(Some(Duration::ZERO));
        let (calm, calm_events) = go(spread);
        assert!(
            calm.peak_shard_rate < storm.peak_shard_rate,
            "jitter must flatten the peak: {} vs {}",
            calm.peak_shard_rate,
            storm.peak_shard_rate
        );
        // Pinned bound: spreading activations over 8 s keeps every 1 s
        // shard window under half the synchronized burst.
        assert!(
            calm.peak_shard_rate as f64 <= storm.peak_shard_rate as f64 * 0.5,
            "{} vs {}",
            calm.peak_shard_rate,
            storm.peak_shard_rate
        );
        let rerun = with_threads(8, || {
            let seeds = SeedSeq::new(41).child("desync");
            fleet_run(
                &RuleProfile::etsi(),
                0.0,
                96,
                spread,
                Instant::from_secs(20),
                &seeds,
            )
        });
        assert_eq!(calm, rerun.0, "stats byte-identical across thread counts");
        assert_eq!(calm_events, rerun.1, "events byte-identical too");
    }

    #[test]
    fn report_is_thread_count_independent() {
        let a = with_threads(1, || run(quick()));
        let b = with_threads(8, || run(quick()));
        assert_eq!(a.values, b.values);
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn traced_fleet_emits_the_new_event_kinds() {
        let out = trace(quick(), &Default::default());
        assert!(
            out.events.contains("\"ev\":\"cache_hit\""),
            "cache hits traced"
        );
        assert!(
            out.events.contains("\"ev\":\"renew_batch\""),
            "batches traced"
        );
        assert!(
            out.events.contains("\"ev\":\"lease_renew\""),
            "renewals traced"
        );
        assert!(
            out.events.contains("\"ev\":\"fault_inject\""),
            "faults traced at intensity 0.6"
        );
        assert!(out.verdict.is_empty(), "monitors not armed by default");
    }

    #[test]
    fn traced_fleet_monitors_stay_green() {
        let out = trace(
            quick(),
            &super::super::trace_run::TraceOptions {
                monitors: true,
                flight_cap: 64,
                ..Default::default()
            },
        );
        assert!(
            out.verdict.starts_with("monitors: armed=2"),
            "{}",
            out.verdict
        );
        assert!(out.verdict.contains("violations=0"), "{}", out.verdict);
        assert!(out.violation.is_none());
    }
}
