//! The multi-tenant spectrum manager: a fleet of lease lifecycles over
//! sharded database backends.
//!
//! One AP's lease lifecycle is provably compliant under fault injection
//! ([`crate::lifecycle`]); a metro deployment is thousands of them
//! hammering a shared database, where the dominant failure modes are
//! *correlated*: renewal storms, shard outages and revocation waves.
//! [`SpectrumFleet`] multiplexes `N` [`LeaseLifecycle`] state machines
//! over `S` database shards and adds the four defenses a production
//! spectrum manager needs:
//!
//! * **Sharding** — consistent AP→shard assignment (a seeded hash, so
//!   assignment survives fleet growth deterministically) with an
//!   independent [`FaultPlan`] per shard: one shard's outage degrades
//!   only its tenants, never the fleet.
//! * **Response caching** — availability answers are cached per shard,
//!   keyed on quantized location ([`AvailabilityCache`]). Queries are
//!   snapped to the quantization cell's representative point with an
//!   uncertainty disc covering the whole cell, so a cached answer is
//!   conservative for every AP in the cell. Replayed responses keep
//!   their original `response_time_us`; the lifecycle anchors its
//!   regulatory confidence window there, so caching sheds load without
//!   stretching any vacate deadline.
//! * **Renewal desynchronization** — each AP's activation is offset by
//!   a deterministic, seeded jitter within a configurable spread, so
//!   steady-state renewals decorrelate instead of storming. Per-shard
//!   request rates are tracked in fixed windows (peak and mean are
//!   reported; the batch sizes surface as `renew_batch` events).
//! * **Cross-channel assignment** — the fleet synthesizes a
//!   network-listen survey from its own per-channel occupancy (each
//!   co-channel AP adds a fixed interference increment), so each
//!   lifecycle's [`crate::selection`] ranking spreads the fleet across
//!   TV channels instead of taking the first grant.
//!
//! The fleet also audits itself: every tick, every transmitting AP is
//! checked against its shard's ground-truth availability, and a
//! transmission on a channel that has been unavailable for longer than
//! the profile's vacate deadline counts as a lease-gate breach (the
//! invariant the `fleet()` monitor catalogue watches — it must stay
//! zero under arbitrary fault schedules).

use cellfi_types::rng::{splitmix64, SeedSeq};
use cellfi_types::time::{Duration, Instant};
use cellfi_types::units::Dbm;
use cellfi_types::ChannelId;

use crate::cache::AvailabilityCache;
use crate::client::ClientState;
use crate::database::SpectrumDatabase;
use crate::faults::{FaultInjector, FaultPlan, PawsFailure, PawsTransport};
use crate::lifecycle::{LeaseLifecycle, LifecycleConfig, LifecycleEvent, LifecycleStats};
use crate::paws::{
    AvailSpectrumReq, AvailSpectrumResp, GeoLocation, InitReq, InitResp, SpectrumUseNotify,
};
use crate::plan::{ChannelPlan, MAX_PLAN_CHANNELS};
use crate::profile::RuleProfile;
use crate::selection::{ListenObservation, OccupantKind};

/// Interference increment per co-channel CellFi AP in the synthesized
/// network-listen survey, dB. Only the ordering matters to the
/// selector, so a fixed per-occupant penalty above the listen floor is
/// enough to rank channels by fleet occupancy.
const CO_CHANNEL_STEP_DB: f64 = 3.0;

/// Listen floor for an occupied channel in the synthesized survey.
const LISTEN_FLOOR_DBM: f64 = -95.0;

/// Configuration of a [`SpectrumFleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// TV channel plan all shards serve.
    pub plan: ChannelPlan,
    /// Regulatory profile applied to every shard database and every
    /// lifecycle (timing + EIRP envelope).
    pub profile: RuleProfile,
    /// Per-AP lifecycle tuning (cadence, backoff, margins).
    pub lifecycle: LifecycleConfig,
    /// Number of database shards (≥ 1).
    pub n_shards: usize,
    /// Mobile clients each AP answers for.
    pub clients_per_ap: u32,
    /// Availability-cache location quantum, metres.
    pub cache_quantum: f64,
    /// Availability-cache TTL (entries also die at lease expiry).
    pub cache_ttl: Duration,
    /// Spread of the deterministic per-AP activation jitter. `ZERO`
    /// disables desynchronization: all APs renew in lockstep.
    pub renew_spread: Duration,
    /// Accounting window for per-shard request rates.
    pub rate_window: Duration,
}

impl FleetConfig {
    /// A fleet config with the paper-default lifecycle under `profile`,
    /// sized for experiment sweeps: 8 shards, 500 m cache quantum,
    /// cache TTL of half the lifecycle poll, 1 s rate windows and a
    /// renewal spread of one poll interval.
    pub fn new(profile: RuleProfile, lifecycle: LifecycleConfig) -> FleetConfig {
        FleetConfig {
            plan: ChannelPlan::Eu,
            cache_ttl: Duration::from_micros(lifecycle.poll.as_micros() / 2),
            renew_spread: lifecycle.poll,
            profile,
            lifecycle,
            n_shards: 8,
            clients_per_ap: 4,
            cache_quantum: 500.0,
            rate_window: Duration::from_secs(1),
        }
    }
}

/// An observable fleet-level event, drained by the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// A lifecycle transition on one AP.
    Lifecycle {
        /// AP index within the fleet.
        ap: u32,
        /// The transition.
        event: LifecycleEvent,
    },
    /// A shard's database entered a scheduled outage window.
    ShardOutage {
        /// The shard.
        shard: u32,
        /// When the outage window ends.
        until: Instant,
    },
    /// An availability query was served from the shard's cache.
    CacheHit {
        /// The shard.
        shard: u32,
        /// Age of the replayed response.
        age: Duration,
    },
    /// A per-shard rate window closed with at least one request.
    RenewBatch {
        /// The shard.
        shard: u32,
        /// Requests the shard served in the window.
        size: u32,
    },
    /// A fault fired on a shard's transport.
    Fault {
        /// The shard.
        shard: u32,
        /// [`crate::faults::FaultKind::code`] of the fault.
        kind: u32,
    },
}

/// One database shard: injector-wrapped backend, response cache and
/// request-rate accounting.
#[derive(Debug)]
struct Shard {
    injector: FaultInjector,
    cache: AvailabilityCache,
    /// Start of the currently accumulating rate window.
    window_start: Instant,
    /// Requests served in the current window.
    window_requests: u64,
    /// Largest completed window.
    peak_window: u64,
    /// All requests ever served (cache hits excluded — they never reach
    /// the shard).
    total_requests: u64,
    /// Completed windows.
    windows_closed: u64,
    /// Outage edge detector for `shard_outage` events.
    in_outage: bool,
}

impl Shard {
    fn note_request(&mut self) {
        self.window_requests += 1;
        self.total_requests += 1;
    }

    /// Close every rate window that ends at or before `now`, emitting
    /// `renew_batch` events for non-empty ones.
    fn close_windows(
        &mut self,
        shard_id: u32,
        now: Instant,
        window: Duration,
        events: &mut Vec<(Instant, FleetEvent)>,
    ) {
        while self.window_start + window <= now {
            let end = self.window_start + window;
            if self.window_requests > 0 {
                events.push((
                    end,
                    FleetEvent::RenewBatch {
                        shard: shard_id,
                        size: self.window_requests as u32,
                    },
                ));
            }
            self.peak_window = self.peak_window.max(self.window_requests);
            self.windows_closed += 1;
            self.window_requests = 0;
            self.window_start = end;
        }
    }
}

/// Per-AP bookkeeping around one lifecycle.
#[derive(Debug)]
struct ApState {
    lifecycle: LeaseLifecycle,
    location: GeoLocation,
    shard: usize,
    /// First tick at which this AP runs (desynchronization jitter).
    activation: Instant,
    /// Ground-truth audit: since when the AP has been transmitting on a
    /// channel its shard considers unavailable.
    unavailable_since: Option<Instant>,
    /// Ticks stepped (post-activation).
    ticks: u64,
    /// Ticks with regulatory permission to radiate.
    up_ticks: u64,
}

/// Aggregated fleet counters, computed by [`SpectrumFleet::finish`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    /// Fleet size.
    pub aps: usize,
    /// Summed lifecycle counters across the fleet
    /// (`min_vacate_margin_us` is the fleet-wide minimum).
    pub lifecycles: LifecycleStats,
    /// Ticks where an AP transmitted on a channel that had been
    /// ground-truth-unavailable longer than the profile's vacate
    /// deadline. The fleet invariant: zero.
    pub lease_gate_breaches: u64,
    /// Availability probes served from shard caches.
    pub cache_hits: u64,
    /// Availability probes that reached a shard database.
    pub cache_misses: u64,
    /// Fraction of probes served from caches.
    pub cache_hit_rate: f64,
    /// Requests that reached shard databases (all PAWS methods).
    pub total_requests: u64,
    /// Largest single rate window on any shard (requests per window).
    pub peak_shard_rate: u64,
    /// Mean requests per rate window per shard.
    pub mean_shard_rate: f64,
    /// Mean per-AP uptime fraction (ticks with permission to radiate).
    pub uptime_mean: f64,
    /// 10th-percentile per-AP uptime fraction.
    pub uptime_p10: f64,
}

/// The fleet orchestrator. Construct with [`SpectrumFleet::new`], drive
/// with [`SpectrumFleet::step`] once per tick in ascending time order,
/// then call [`SpectrumFleet::finish`] exactly once at the horizon.
#[derive(Debug)]
pub struct SpectrumFleet {
    config: FleetConfig,
    aps: Vec<ApState>,
    shards: Vec<Shard>,
    events: Vec<(Instant, FleetEvent)>,
    breaches: u64,
    /// Reusable listen-survey buffer (one entry per occupied channel).
    listen: Vec<ListenObservation>,
}

/// Snap a query location to its quantization cell's representative: the
/// cell centre, with an uncertainty disc covering the entire cell (so a
/// cached answer is conservative for every AP inside it).
fn snap_location(loc: &GeoLocation, quantum: f64) -> GeoLocation {
    let cx = (loc.x / quantum).floor() * quantum + quantum / 2.0;
    let cy = (loc.y / quantum).floor() * quantum + quantum / 2.0;
    GeoLocation {
        x: cx,
        y: cy,
        // Half the cell diagonal is quantum·√2/2 ≈ 0.708·quantum.
        uncertainty: loc.uncertainty.max(quantum * 0.71),
    }
}

/// AP `i`'s device serial, `fleet-ap-` and `i` zero-padded to five
/// digits: the same string as `format!("fleet-ap-{i:05}")`, written
/// without the formatting machinery, which dominated fleet construction.
fn ap_serial(i: usize) -> String {
    const PREFIX: &str = "fleet-ap-";
    // usize::MAX has 20 decimal digits; unused leading slots stay '0'.
    let mut digits = [b'0'; 20];
    let mut n = i;
    let mut len = 0;
    loop {
        digits[digits.len() - 1 - len] = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
        if n == 0 {
            break;
        }
    }
    let width = len.max(5);
    let mut serial = String::with_capacity(PREFIX.len() + width);
    serial.push_str(PREFIX);
    for &d in &digits[digits.len() - width..] {
        serial.push(char::from(d));
    }
    serial
}

/// The transport one AP sees: its shard's fault injector behind the
/// shard's response cache, with request-rate accounting.
struct ShardTransport<'a> {
    shard: &'a mut Shard,
    shard_id: u32,
    quantum: f64,
    events: &'a mut Vec<(Instant, FleetEvent)>,
}

impl PawsTransport for ShardTransport<'_> {
    fn init(&mut self, req: &InitReq, now: Instant) -> Result<InitResp, PawsFailure> {
        self.shard.note_request();
        self.shard.injector.init(req, now)
    }

    fn avail_spectrum(
        &mut self,
        req: &AvailSpectrumReq,
        now: Instant,
    ) -> Result<AvailSpectrumResp, PawsFailure> {
        let snapped = snap_location(&req.location, self.quantum);
        if let Some(resp) = self.shard.cache.get(&snapped, now) {
            let age = Duration::from_micros(now.as_micros().saturating_sub(resp.response_time_us));
            self.events.push((
                now,
                FleetEvent::CacheHit {
                    shard: self.shard_id,
                    age,
                },
            ));
            return Ok(resp);
        }
        self.shard.note_request();
        let snapped_req = AvailSpectrumReq {
            device: req.device.clone(),
            location: snapped,
            request_time_us: req.request_time_us,
        };
        let resp = self.shard.injector.avail_spectrum(&snapped_req, now)?;
        self.shard.cache.insert(&snapped, resp.clone(), now);
        Ok(resp)
    }

    fn notify_use(&mut self, notify: SpectrumUseNotify, now: Instant) -> Result<(), PawsFailure> {
        self.shard.note_request();
        self.shard.injector.notify_use(notify, now)
    }
}

impl SpectrumFleet {
    /// Build a fleet of `locations.len()` APs over `shard_plans.len()`
    /// shards (must equal `config.n_shards`). All randomness — shard
    /// assignment, activation jitter, per-AP backoff jitter — derives
    /// from `seeds`, so the same inputs replay byte-identically.
    pub fn new(
        config: FleetConfig,
        locations: &[GeoLocation],
        shard_plans: Vec<FaultPlan>,
        seeds: &SeedSeq,
    ) -> SpectrumFleet {
        assert!(config.n_shards >= 1, "a fleet has at least one shard");
        assert!(
            shard_plans.len() == config.n_shards,
            "one fault plan per shard"
        );
        let shards: Vec<Shard> = shard_plans
            .into_iter()
            .map(|plan| {
                let db = SpectrumDatabase::new(config.plan, vec![]).with_profile(&config.profile);
                Shard {
                    injector: FaultInjector::new(db, plan),
                    cache: AvailabilityCache::new(config.cache_quantum, config.cache_ttl),
                    window_start: Instant::ZERO,
                    window_requests: 0,
                    peak_window: 0,
                    total_requests: 0,
                    windows_closed: 0,
                    in_outage: false,
                }
            })
            .collect();
        let assign_seed = seeds.seed("shard-assign");
        let lease_seed = seeds.seed("lease");
        let jitter_seed = seeds.seed("renew-jitter");
        let spread_us = config.renew_spread.as_micros();
        let aps: Vec<ApState> = locations
            .iter()
            .enumerate()
            .map(|(i, loc)| {
                let lifecycle = LeaseLifecycle::new(
                    ap_serial(i),
                    config.clients_per_ap,
                    *loc,
                    config.plan,
                    config.lifecycle,
                    SeedSeq::seed_with(lease_seed, i as u64),
                )
                .with_profile(&config.profile);
                let offset = if spread_us == 0 {
                    0
                } else {
                    SeedSeq::seed_with(jitter_seed, i as u64) % spread_us
                };
                ApState {
                    lifecycle,
                    location: *loc,
                    shard: (splitmix64(i as u64 ^ assign_seed) % config.n_shards as u64) as usize,
                    activation: Instant::from_micros(offset),
                    unavailable_since: None,
                    ticks: 0,
                    up_ticks: 0,
                }
            })
            .collect();
        SpectrumFleet {
            config,
            aps,
            shards,
            events: Vec::new(),
            breaches: 0,
            listen: Vec::new(),
        }
    }

    /// Fleet size.
    pub fn n_aps(&self) -> usize {
        self.aps.len()
    }

    /// Which shard serves AP `ap`.
    pub fn shard_of(&self, ap: usize) -> usize {
        self.aps[ap].shard
    }

    /// The lifecycle of AP `ap`.
    pub fn lifecycle(&self, ap: usize) -> &LeaseLifecycle {
        &self.aps[ap].lifecycle
    }

    /// Regulatory permission of AP `ap` to radiate at `now`.
    pub fn may_transmit(&self, ap: usize, now: Instant) -> bool {
        self.aps[ap].lifecycle.may_transmit(now)
    }

    /// Mutable access to shard `s`'s database (tests script withdrawals
    /// and incumbent arrivals through this).
    pub fn shard_database_mut(&mut self, s: usize) -> &mut SpectrumDatabase {
        self.shards[s].injector.database_mut()
    }

    /// Ground-truth lease-gate breaches so far (the fleet invariant:
    /// zero).
    pub fn lease_gate_breaches(&self) -> u64 {
        self.breaches
    }

    /// Drain the fleet events accumulated since the last call, in
    /// emission order (time-ordered per AP and per shard).
    pub fn drain_events(&mut self) -> Vec<(Instant, FleetEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Synthesize the shared network-listen survey from fleet-wide
    /// per-channel occupancy: every channel some AP operates on reads
    /// as CellFi-occupied, `CO_CHANNEL_STEP_DB` louder per occupant.
    /// A channel outside the plan is left out: the selector ranks only
    /// the plan's channels, and every AP operates on one of them.
    fn build_listen(&mut self) {
        let plan = self.config.plan;
        let mut counts = [0u32; MAX_PLAN_CHANNELS];
        for ap in &self.aps {
            if let Some(slot) = ap.lifecycle.current_channel().and_then(|ch| plan.slot(ch)) {
                counts[slot] += 1;
            }
        }
        let (lo, _) = plan.channel_range();
        self.listen.clear();
        for (offset, &count) in (0..).zip(&counts[..plan.len()]) {
            if count > 0 {
                self.listen.push(ListenObservation {
                    channel: ChannelId::new(lo + offset),
                    energy: Dbm(LISTEN_FLOOR_DBM + CO_CHANNEL_STEP_DB * count as f64),
                    occupant: OccupantKind::CellFi,
                });
            }
        }
    }

    /// Advance the whole fleet to `now`: shard fault plans and rate
    /// windows first, then every active AP's lifecycle in index order
    /// (serial, so replay is byte-identical at any worker count), then
    /// the ground-truth compliance audit.
    pub fn step(&mut self, now: Instant) {
        let vacate_deadline = self.config.profile.vacate_deadline;
        let rate_window = self.config.rate_window;
        let quantum = self.config.cache_quantum;
        self.build_listen();
        let SpectrumFleet {
            aps,
            shards,
            events,
            breaches,
            listen,
            ..
        } = self;
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.injector.advance_to(now);
            shard.close_windows(s as u32, now, rate_window, events);
            let in_outage = shard.injector.plan().in_outage(now);
            if in_outage && !shard.in_outage {
                let until = shard
                    .injector
                    .plan()
                    .outages
                    .iter()
                    .find(|&&(from, to)| from <= now && now < to)
                    .map(|&(_, to)| to)
                    .unwrap_or(now);
                events.push((
                    now,
                    FleetEvent::ShardOutage {
                        shard: s as u32,
                        until,
                    },
                ));
            }
            shard.in_outage = in_outage;
        }
        for (i, ap) in aps.iter_mut().enumerate() {
            if now < ap.activation {
                continue;
            }
            ap.ticks += 1;
            let mut transport = ShardTransport {
                shard: &mut shards[ap.shard],
                shard_id: ap.shard as u32,
                quantum,
                events,
            };
            ap.lifecycle.step(&mut transport, listen, now);
            events.extend(ap.lifecycle.drain_events().map(|(t, event)| {
                (
                    t,
                    FleetEvent::Lifecycle {
                        ap: i as u32,
                        event,
                    },
                )
            }));
            // Ground-truth audit: a transmitting AP's channel must not
            // have been unavailable longer than the vacate deadline.
            let on_air_channel = match ap.lifecycle.client().state() {
                ClientState::Operating { channel, .. } | ClientState::Vacating { channel, .. }
                    if ap.lifecycle.may_transmit(now) =>
                {
                    Some(channel)
                }
                _ => None,
            };
            if let Some(ch) = on_air_channel {
                ap.up_ticks += 1;
                let available =
                    shards[ap.shard]
                        .injector
                        .database()
                        .is_available(ch, ap.location.point(), now);
                if available {
                    ap.unavailable_since = None;
                } else {
                    let since = *ap.unavailable_since.get_or_insert(now);
                    if now.duration_since(since) > vacate_deadline {
                        *breaches += 1;
                    }
                }
            } else {
                ap.unavailable_since = None;
            }
        }
        for (s, shard) in shards.iter_mut().enumerate() {
            for (t, kind) in shard.injector.drain_faults() {
                events.push((
                    t,
                    FleetEvent::Fault {
                        shard: s as u32,
                        kind: kind.code(),
                    },
                ));
            }
        }
    }

    /// Close the books at the horizon: flush every shard's final rate
    /// window and aggregate the fleet counters.
    pub fn finish(&mut self, end: Instant) -> FleetStats {
        let rate_window = self.config.rate_window;
        let SpectrumFleet {
            aps,
            shards,
            events,
            breaches,
            ..
        } = self;
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.close_windows(s as u32, end, rate_window, events);
            if shard.window_requests > 0 {
                // Count the trailing partial window toward peak/mean.
                shard.peak_window = shard.peak_window.max(shard.window_requests);
                shard.windows_closed += 1;
                shard.window_requests = 0;
            }
        }
        let mut lifecycles = LifecycleStats {
            min_vacate_margin_us: u64::MAX,
            ..LifecycleStats::default()
        };
        let mut uptimes: Vec<f64> = Vec::with_capacity(aps.len());
        for ap in aps.iter() {
            let s = ap.lifecycle.stats();
            lifecycles.renewals += s.renewals;
            lifecycles.vacates += s.vacates;
            lifecycles.degrades += s.degrades;
            lifecycles.recoveries += s.recoveries;
            lifecycles.backoffs += s.backoffs;
            lifecycles.missed_deadlines += s.missed_deadlines;
            lifecycles.min_vacate_margin_us =
                lifecycles.min_vacate_margin_us.min(s.min_vacate_margin_us);
            uptimes.push(if ap.ticks == 0 {
                0.0
            } else {
                ap.up_ticks as f64 / ap.ticks as f64
            });
        }
        uptimes.sort_by(f64::total_cmp);
        let (uptime_mean, uptime_p10) = if uptimes.is_empty() {
            (0.0, 0.0)
        } else {
            let mean = uptimes.iter().sum::<f64>() / uptimes.len() as f64;
            (mean, uptimes[(uptimes.len() - 1) / 10])
        };
        let cache_hits: u64 = shards.iter().map(|s| s.cache.hits()).sum();
        let cache_misses: u64 = shards.iter().map(|s| s.cache.misses()).sum();
        let probes = cache_hits + cache_misses;
        let total_requests: u64 = shards.iter().map(|s| s.total_requests).sum();
        let windows: u64 = shards.iter().map(|s| s.windows_closed).sum();
        FleetStats {
            aps: aps.len(),
            lifecycles,
            lease_gate_breaches: *breaches,
            cache_hits,
            cache_misses,
            cache_hit_rate: if probes == 0 {
                0.0
            } else {
                cache_hits as f64 / probes as f64
            },
            total_requests,
            peak_shard_rate: shards.iter().map(|s| s.peak_window).max().unwrap_or(0),
            mean_shard_rate: if windows == 0 {
                0.0
            } else {
                total_requests as f64 / windows as f64
            },
            uptime_mean,
            uptime_p10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellfi_types::geo::Point;

    const TICK: Duration = Duration::from_millis(500);

    fn locations(n: usize) -> Vec<GeoLocation> {
        (0..n)
            .map(|i| {
                // A 4-km grid, 200 m pitch: several APs per cache cell.
                let x = (i % 20) as f64 * 200.0;
                let y = (i / 20) as f64 * 200.0;
                GeoLocation::gps(Point::new(100_000.0 + x, y))
            })
            .collect()
    }

    fn fast_config(profile: RuleProfile) -> FleetConfig {
        let mut lifecycle = LifecycleConfig::paper_default(30.0);
        lifecycle.poll = Duration::from_secs(2);
        lifecycle.backoff_base = Duration::from_millis(500);
        lifecycle.backoff_max = Duration::from_secs(4);
        lifecycle.vacate_margin = Duration::from_millis(500);
        FleetConfig {
            n_shards: 8,
            // One full poll interval: neighbours in a cell share answers.
            cache_ttl: Duration::from_secs(2),
            ..FleetConfig::new(
                profile.with_lease_validity(Duration::from_secs(15)),
                lifecycle,
            )
        }
    }

    fn run_fleet(
        config: FleetConfig,
        n_aps: usize,
        intensity: f64,
        horizon: Instant,
        master: u64,
    ) -> (FleetStats, Vec<(Instant, FleetEvent)>) {
        let seeds = SeedSeq::new(master).child("fleet-test");
        let plans: Vec<FaultPlan> = (0..config.n_shards)
            .map(|s| {
                FaultPlan::at_intensity(
                    seeds.seed_indexed("shard-faults", s as u64),
                    intensity,
                    horizon,
                )
            })
            .collect();
        let mut fleet = SpectrumFleet::new(config, &locations(n_aps), plans, &seeds);
        let mut t = Instant::ZERO;
        let mut events = Vec::new();
        while t < horizon {
            fleet.step(t);
            events.extend(fleet.drain_events());
            t += TICK;
        }
        (fleet.finish(horizon), events)
    }

    #[test]
    fn ap_serial_matches_format() {
        for i in [
            0,
            7,
            42,
            9_999,
            10_000,
            99_999,
            100_000,
            123_456,
            999_999,
            1_000_000,
            4_294_967_296,
            usize::MAX,
        ] {
            assert_eq!(ap_serial(i), format!("fleet-ap-{i:05}"), "index {i}");
        }
    }

    #[test]
    fn assignment_spreads_aps_over_every_shard() {
        let config = fast_config(RuleProfile::etsi());
        let seeds = SeedSeq::new(1).child("assign");
        let plans = vec![FaultPlan::none(); 8];
        let fleet = SpectrumFleet::new(config, &locations(64), plans, &seeds);
        let mut per_shard = [0usize; 8];
        for i in 0..fleet.n_aps() {
            per_shard[fleet.shard_of(i)] += 1;
        }
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
        // Consistent: the same fleet built again assigns identically.
        let fleet2 = SpectrumFleet::new(
            fast_config(RuleProfile::etsi()),
            &locations(64),
            vec![FaultPlan::none(); 8],
            &SeedSeq::new(1).child("assign"),
        );
        for i in 0..fleet.n_aps() {
            assert_eq!(fleet.shard_of(i), fleet2.shard_of(i));
        }
    }

    #[test]
    fn healthy_fleet_runs_clean_and_caches_hard() {
        let horizon = Instant::from_secs(30);
        let (stats, events) = run_fleet(fast_config(RuleProfile::etsi()), 48, 0.0, horizon, 7);
        assert_eq!(stats.lifecycles.missed_deadlines, 0);
        assert_eq!(stats.lease_gate_breaches, 0);
        assert!(stats.lifecycles.renewals > 0);
        // Several APs share each 500 m cache cell, so the cache must
        // absorb a solid share of the availability probes.
        assert!(stats.cache_hits > 0, "{stats:?}");
        assert!(stats.cache_hit_rate > 0.3, "{stats:?}");
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, FleetEvent::CacheHit { .. })));
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, FleetEvent::RenewBatch { .. })));
        assert!(stats.uptime_mean > 0.8, "{stats:?}");
    }

    #[test]
    fn one_shard_outage_does_not_stall_the_fleet() {
        let config = fast_config(RuleProfile::etsi());
        let horizon = Instant::from_secs(40);
        let seeds = SeedSeq::new(3).child("outage");
        // Shard 0 is down for the entire run; the rest are healthy.
        let mut plans = vec![FaultPlan::none(); 8];
        plans[0].outages.push((Instant::ZERO, horizon));
        let mut fleet = SpectrumFleet::new(config, &locations(64), plans, &seeds);
        let mut t = Instant::ZERO;
        let mut events = Vec::new();
        while t < horizon {
            fleet.step(t);
            events.extend(fleet.drain_events());
            t += TICK;
        }
        let end = horizon - Duration::from_millis(1);
        let mut dark_shard_aps = 0;
        let mut lit_aps = 0;
        for i in 0..fleet.n_aps() {
            if fleet.shard_of(i) == 0 {
                dark_shard_aps += 1;
                assert!(
                    !fleet.may_transmit(i, end),
                    "AP {i} on the dark shard cannot hold a lease"
                );
            } else if fleet.may_transmit(i, end) {
                lit_aps += 1;
            }
        }
        assert!(dark_shard_aps > 0, "some APs must land on shard 0");
        assert!(
            lit_aps > 40,
            "healthy shards keep their tenants on the air: {lit_aps}"
        );
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, FleetEvent::ShardOutage { shard: 0, .. })));
        let stats = fleet.finish(horizon);
        assert_eq!(stats.lease_gate_breaches, 0);
        assert_eq!(stats.lifecycles.missed_deadlines, 0);
    }

    #[test]
    fn chaos_on_every_shard_stays_compliant() {
        let horizon = Instant::from_secs(40);
        let (stats, _) = run_fleet(fast_config(RuleProfile::etsi()), 64, 0.8, horizon, 11);
        assert_eq!(stats.lifecycles.missed_deadlines, 0, "{stats:?}");
        assert_eq!(stats.lease_gate_breaches, 0, "{stats:?}");
        assert!(stats.lifecycles.vacates > 0, "chaos must force vacates");
        assert!(stats.uptime_mean < 1.0);
    }

    #[test]
    fn fcc_profile_fleet_honors_its_own_deadline() {
        let horizon = Instant::from_secs(30);
        let (stats, _) = run_fleet(fast_config(RuleProfile::fcc()), 32, 0.6, horizon, 13);
        assert_eq!(stats.lifecycles.missed_deadlines, 0);
        assert_eq!(stats.lease_gate_breaches, 0);
    }

    #[test]
    fn desynchronized_renewals_cut_the_peak_rate() {
        let horizon = Instant::from_secs(30);
        let mut synced = fast_config(RuleProfile::etsi());
        synced.renew_spread = Duration::ZERO;
        let (sync_stats, _) = run_fleet(synced, 64, 0.0, horizon, 17);
        let (jittered_stats, _) = run_fleet(fast_config(RuleProfile::etsi()), 64, 0.0, horizon, 17);
        assert!(
            jittered_stats.peak_shard_rate < sync_stats.peak_shard_rate,
            "jitter {jittered_stats:?} vs storm {sync_stats:?}"
        );
    }

    #[test]
    fn fleet_replays_byte_identically_from_the_seed() {
        let horizon = Instant::from_secs(20);
        let (stats_a, events_a) = run_fleet(fast_config(RuleProfile::etsi()), 32, 0.7, horizon, 23);
        let (stats_b, events_b) = run_fleet(fast_config(RuleProfile::etsi()), 32, 0.7, horizon, 23);
        assert_eq!(stats_a, stats_b);
        assert_eq!(events_a, events_b);
        let (stats_c, events_c) = run_fleet(fast_config(RuleProfile::etsi()), 32, 0.7, horizon, 29);
        assert!(
            stats_a != stats_c || events_a != events_c,
            "seed must matter"
        );
    }

    #[test]
    fn occupancy_listen_spreads_the_fleet_across_channels() {
        let config = fast_config(RuleProfile::etsi());
        let horizon = Instant::from_secs(10);
        let seeds = SeedSeq::new(31).child("spread");
        let plans = vec![FaultPlan::none(); 8];
        let mut fleet = SpectrumFleet::new(config, &locations(40), plans, &seeds);
        let mut t = Instant::ZERO;
        while t < horizon {
            fleet.step(t);
            t += TICK;
        }
        let mut channels: std::collections::BTreeSet<ChannelId> = std::collections::BTreeSet::new();
        for i in 0..fleet.n_aps() {
            if let Some(ch) = fleet.lifecycle(i).current_channel() {
                channels.insert(ch);
            }
        }
        assert!(
            channels.len() > 1,
            "cross-channel assignment must not pile every AP on one grant: {channels:?}"
        );
    }
}
