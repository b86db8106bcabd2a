//! Deterministic fault injection for the PAWS exchange.
//!
//! Real TVWS deployments lose database connectivity, see delayed or
//! malformed PAWS responses, and face mid-lease revocations; the TVWS
//! survey literature flags database reachability as the operational
//! Achilles' heel of white-space systems. This module makes those
//! failures *first-class and reproducible*: a [`FaultPlan`] describes a
//! fault schedule, and a [`FaultInjector`] sits between the
//! [`DatabaseClient`](crate::client::DatabaseClient) and the
//! [`SpectrumDatabase`], perturbing every request from a seeded RNG —
//! request loss, response delay past the client timeout, database outage
//! windows, transient protocol errors, truncated grant lists, and
//! mid-lease revocation.
//!
//! Everything is driven by the simulation clock and a seed: the same
//! plan replayed against the same traffic produces byte-identical fault
//! sequences, which is what lets `exp chaos` pin its traces across
//! thread counts and lets the compliance property tests explore
//! arbitrary generated schedules.

use crate::database::SpectrumDatabase;
use crate::paws::{
    AvailSpectrumReq, AvailSpectrumResp, InitReq, InitResp, PawsError, SpectrumUseNotify,
};
use cellfi_types::time::{Duration, Instant};
use cellfi_types::ChannelId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The client-side PAWS request timeout: how long an AP waits for a
/// database response before treating the request as lost. The paper's
/// database round trips were sub-second; 2 s is a conservative bound
/// that still leaves dozens of retries inside the ETSI minute.
pub const PAWS_CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Why a PAWS request failed at the transport layer.
///
/// These are *environmental* failures — the network or the database
/// misbehaving — as opposed to [`crate::client::OperationError`], which
/// is the client refusing to do something non-compliant. A resilient
/// client must survive every variant without wedging its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum PawsFailure {
    /// No response arrived before [`PAWS_CLIENT_TIMEOUT`] elapsed —
    /// the request or its response was lost or delayed past the bound.
    PawsTimeout {
        /// How long the client waited before giving up.
        waited: Duration,
    },
    /// The database is unreachable (connectivity outage window).
    Unreachable,
    /// The database answered, but with a PAWS protocol error.
    Protocol(PawsError),
}

impl std::fmt::Display for PawsFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PawsFailure::PawsTimeout { waited } => {
                write!(f, "PAWS request timed out after {} us", waited.as_micros())
            }
            PawsFailure::Unreachable => write!(f, "spectrum database unreachable"),
            PawsFailure::Protocol(e) => write!(f, "PAWS protocol error: {e}"),
        }
    }
}

impl std::error::Error for PawsFailure {}

/// The PAWS exchange as the client sees it: a transport that may fail.
///
/// [`SpectrumDatabase`] implements this infallibly (the in-process
/// "perfect network"); [`FaultInjector`] wraps a database and makes the
/// same exchange unreliable on a deterministic schedule. The client is
/// generic over the trait, so every request path handles failure.
pub trait PawsTransport {
    /// Serve a PAWS `INIT_REQ`.
    fn init(&mut self, req: &InitReq, now: Instant) -> Result<InitResp, PawsFailure>;
    /// Serve a PAWS `AVAIL_SPECTRUM_REQ`.
    fn avail_spectrum(
        &mut self,
        req: &AvailSpectrumReq,
        now: Instant,
    ) -> Result<AvailSpectrumResp, PawsFailure>;
    /// Accept a `SPECTRUM_USE_NOTIFY`.
    fn notify_use(&mut self, notify: SpectrumUseNotify, now: Instant) -> Result<(), PawsFailure>;
}

impl PawsTransport for SpectrumDatabase {
    fn init(&mut self, req: &InitReq, _now: Instant) -> Result<InitResp, PawsFailure> {
        Ok(SpectrumDatabase::init(self, req))
    }

    fn avail_spectrum(
        &mut self,
        req: &AvailSpectrumReq,
        _now: Instant,
    ) -> Result<AvailSpectrumResp, PawsFailure> {
        Ok(SpectrumDatabase::avail_spectrum(self, req))
    }

    fn notify_use(&mut self, notify: SpectrumUseNotify, _now: Instant) -> Result<(), PawsFailure> {
        SpectrumDatabase::notify_use(self, notify);
        Ok(())
    }
}

/// The kind of fault an injector applied to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The request never reached the database (client times out).
    RequestLost,
    /// The response was delayed past the client timeout (client times
    /// out; the database-side effect of the request still happened).
    ResponseDelayed,
    /// The request fell inside a database outage window.
    Outage,
    /// The database answered with a transient PAWS protocol error.
    TransientError,
    /// The grant list in the response was truncated.
    TruncatedGrants,
    /// A channel was revoked mid-lease by the schedule.
    Revocation,
}

impl FaultKind {
    /// Stable numeric code for trace events (obs payloads are numbers).
    pub fn code(self) -> u32 {
        match self {
            FaultKind::RequestLost => 0,
            FaultKind::ResponseDelayed => 1,
            FaultKind::Outage => 2,
            FaultKind::TransientError => 3,
            FaultKind::TruncatedGrants => 4,
            FaultKind::Revocation => 5,
        }
    }
}

/// A deterministic fault schedule for one PAWS client↔database path.
///
/// Per-request faults are drawn from a seeded RNG at the given rates;
/// outage windows and revocations are explicit points on the simulation
/// clock. [`FaultPlan::at_intensity`] scales everything from a single
/// knob so experiments can sweep severity.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-request fault draws.
    pub seed: u64,
    /// Probability a request is silently lost (→ timeout).
    pub request_loss: f64,
    /// Probability a response is delayed past the client timeout. The
    /// database still processed the request (notifications are logged),
    /// but the client must treat it as failed.
    pub response_delay: f64,
    /// Probability of a transient PAWS protocol error response.
    pub transient_error: f64,
    /// Probability an availability response loses the tail of its grant
    /// list (keeps the first half, at least one grant when non-empty).
    pub truncated_grants: f64,
    /// Database connectivity outage windows `[start, end)`.
    pub outages: Vec<(Instant, Instant)>,
    /// Mid-lease revocations: at each instant, withdraw the named
    /// channel (`Some`) or whatever channel the client last notified
    /// use of (`None`).
    pub revocations: Vec<(Instant, Option<ChannelId>)>,
    /// How long a revoked channel stays withdrawn before the operator
    /// reinstates it.
    pub revocation_hold: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing (the perfect network).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            request_loss: 0.0,
            response_delay: 0.0,
            transient_error: 0.0,
            truncated_grants: 0.0,
            outages: Vec::new(),
            revocations: Vec::new(),
            revocation_hold: Duration::from_secs(300),
        }
    }

    /// A no-fault plan carrying `seed` — what [`FaultPlan::at_intensity`]
    /// degenerates to at zero intensity.
    pub fn none_with_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// A plan scaled from one severity knob in `[0, 1]`: per-request
    /// fault rates grow linearly with `intensity`, and the schedule
    /// gains `⌈intensity · 4⌉` outage windows plus the same number of
    /// revocations of the in-use channel, placed deterministically from
    /// `seed` across `[0, horizon)`.
    pub fn at_intensity(seed: u64, intensity: f64, horizon: Instant) -> FaultPlan {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan {
            seed,
            request_loss: 0.15 * intensity,
            response_delay: 0.10 * intensity,
            transient_error: 0.10 * intensity,
            truncated_grants: 0.10 * intensity,
            ..FaultPlan::none()
        };
        if intensity <= 0.0 {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6661_756c_7470_6c61); // "faultpla"
        let n = (intensity * 4.0).ceil() as usize;
        let horizon_us = horizon.as_micros().max(1);
        for _ in 0..n {
            let start = Instant::from_micros(rng.gen_range(0..horizon_us));
            // Outages between 5 s and 45 s: long enough to force several
            // retries, short enough to recover inside the ETSI minute.
            let len = Duration::from_micros(rng.gen_range(5_000_000..45_000_000));
            plan.outages.push((start, start + len));
            let at = Instant::from_micros(rng.gen_range(0..horizon_us));
            plan.revocations.push((at, None));
        }
        // Schedules are applied in time order regardless of draw order.
        plan.outages.sort_by_key(|&(s, _)| s.as_micros());
        plan.revocations.sort_by_key(|&(t, _)| t.as_micros());
        plan
    }

    /// Whether `now` falls inside an outage window.
    pub fn in_outage(&self, now: Instant) -> bool {
        self.outages.iter().any(|&(s, e)| s <= now && now < e)
    }
}

/// Wraps a [`SpectrumDatabase`] and perturbs the PAWS exchange per a
/// [`FaultPlan`]. Owns the database; experiments reach the ground truth
/// through [`FaultInjector::database`] (e.g. to check real availability
/// when verifying compliance).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    db: SpectrumDatabase,
    plan: FaultPlan,
    rng: StdRng,
    /// Revocations not yet applied (index into `plan.revocations`).
    next_revocation: usize,
    /// The channel most recently notified in use (revocation target for
    /// `None` entries).
    last_use: Option<ChannelId>,
    /// Log of injected faults, drained by the harness for trace events.
    log: Vec<(Instant, FaultKind)>,
}

impl FaultInjector {
    /// An injector applying `plan` in front of `db`.
    pub fn new(db: SpectrumDatabase, plan: FaultPlan) -> FaultInjector {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultInjector {
            db,
            plan,
            rng,
            next_revocation: 0,
            last_use: None,
            log: Vec::new(),
        }
    }

    /// The wrapped database (ground truth for compliance checks).
    pub fn database(&self) -> &SpectrumDatabase {
        &self.db
    }

    /// Mutable access to the wrapped database (scripted withdrawals).
    pub fn database_mut(&mut self) -> &mut SpectrumDatabase {
        &mut self.db
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far, in injection order; drains the log.
    pub fn drain_faults(&mut self) -> Vec<(Instant, FaultKind)> {
        std::mem::take(&mut self.log)
    }

    /// Apply every revocation scheduled at or before `now`. Scheduled
    /// state changes happen on the simulation clock, not on request
    /// arrival, so availability ground truth is well-defined even while
    /// the client is backing off. Harnesses call this each tick;
    /// requests also apply it implicitly.
    pub fn advance_to(&mut self, now: Instant) {
        while let Some(&(at, target)) = self.plan.revocations.get(self.next_revocation) {
            if at > now {
                break;
            }
            self.next_revocation += 1;
            let target = target.or(self.last_use);
            if let Some(ch) = target {
                self.db
                    .withdraw_channel(ch, Some(at + self.plan.revocation_hold));
                self.log.push((at, FaultKind::Revocation));
            }
        }
    }

    /// The per-request fault draw shared by every PAWS method: returns
    /// the failure to surface, or `None` to forward the request. Draws
    /// happen in a fixed order so one seed gives one fault sequence.
    fn perturb_request(&mut self, now: Instant) -> Option<PawsFailure> {
        self.advance_to(now);
        if self.plan.in_outage(now) {
            self.log.push((now, FaultKind::Outage));
            return Some(PawsFailure::Unreachable);
        }
        if self.plan.request_loss > 0.0 && self.rng.gen_bool(self.plan.request_loss) {
            self.log.push((now, FaultKind::RequestLost));
            return Some(PawsFailure::PawsTimeout {
                waited: PAWS_CLIENT_TIMEOUT,
            });
        }
        if self.plan.transient_error > 0.0 && self.rng.gen_bool(self.plan.transient_error) {
            self.log.push((now, FaultKind::TransientError));
            return Some(PawsFailure::Protocol(PawsError {
                message_type: "AvailSpectrumResp",
                detail: "transient database error (injected)".to_owned(),
            }));
        }
        None
    }

    /// Response-side delay draw: the database processed the request but
    /// the client times out waiting for the answer.
    fn perturb_response(&mut self, now: Instant) -> Option<PawsFailure> {
        if self.plan.response_delay > 0.0 && self.rng.gen_bool(self.plan.response_delay) {
            self.log.push((now, FaultKind::ResponseDelayed));
            return Some(PawsFailure::PawsTimeout {
                waited: PAWS_CLIENT_TIMEOUT,
            });
        }
        None
    }
}

impl PawsTransport for FaultInjector {
    fn init(&mut self, req: &InitReq, now: Instant) -> Result<InitResp, PawsFailure> {
        if let Some(f) = self.perturb_request(now) {
            return Err(f);
        }
        let resp = self.db.init(req);
        match self.perturb_response(now) {
            Some(f) => Err(f),
            None => Ok(resp),
        }
    }

    fn avail_spectrum(
        &mut self,
        req: &AvailSpectrumReq,
        now: Instant,
    ) -> Result<AvailSpectrumResp, PawsFailure> {
        if let Some(f) = self.perturb_request(now) {
            return Err(f);
        }
        let mut resp = self.db.avail_spectrum(req);
        if let Some(f) = self.perturb_response(now) {
            return Err(f);
        }
        if self.plan.truncated_grants > 0.0
            && self.rng.gen_bool(self.plan.truncated_grants)
            && resp.grants.len() > 1
        {
            self.log.push((now, FaultKind::TruncatedGrants));
            let keep = resp.grants.len().div_ceil(2);
            resp.grants.truncate(keep);
        }
        Ok(resp)
    }

    fn notify_use(&mut self, notify: SpectrumUseNotify, now: Instant) -> Result<(), PawsFailure> {
        if let Some(f) = self.perturb_request(now) {
            return Err(f);
        }
        // A delayed notify still registered at the database (the request
        // arrived; only the acknowledgement was late), but the client
        // must treat the operation start as failed and may not radiate.
        let channel = notify.channel;
        self.db.notify_use(notify);
        match self.perturb_response(now) {
            Some(f) => Err(f),
            None => {
                self.last_use = Some(channel);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paws::{DeviceDescriptor, GeoLocation};
    use crate::plan::ChannelPlan;
    use cellfi_types::geo::Point;

    fn req(now: Instant) -> AvailSpectrumReq {
        AvailSpectrumReq {
            device: DeviceDescriptor::master_with_clients("ap", 4),
            location: GeoLocation::gps(Point::new(100_000.0, 0.0)),
            request_time_us: now.as_micros(),
        }
    }

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(SpectrumDatabase::new(ChannelPlan::Eu, vec![]), plan)
    }

    #[test]
    fn no_fault_plan_is_transparent() {
        let mut inj = injector(FaultPlan::none());
        let direct = SpectrumDatabase::new(ChannelPlan::Eu, vec![]);
        let now = Instant::from_secs(5);
        let via = inj
            .avail_spectrum(&req(now), now)
            .expect("no faults planned");
        assert_eq!(via, SpectrumDatabase::avail_spectrum(&direct, &req(now)));
        assert!(inj.drain_faults().is_empty());
    }

    #[test]
    fn outage_window_is_unreachable() {
        let mut plan = FaultPlan::none();
        plan.outages
            .push((Instant::from_secs(10), Instant::from_secs(20)));
        let mut inj = injector(plan);
        let at = |s| Instant::from_secs(s);
        assert!(inj.avail_spectrum(&req(at(9)), at(9)).is_ok());
        assert_eq!(
            inj.avail_spectrum(&req(at(10)), at(10)),
            Err(PawsFailure::Unreachable)
        );
        assert_eq!(
            inj.avail_spectrum(&req(at(19)), at(19)),
            Err(PawsFailure::Unreachable)
        );
        assert!(inj.avail_spectrum(&req(at(20)), at(20)).is_ok());
        let kinds: Vec<FaultKind> = inj.drain_faults().into_iter().map(|(_, k)| k).collect();
        assert_eq!(kinds, vec![FaultKind::Outage, FaultKind::Outage]);
    }

    #[test]
    fn request_loss_is_a_timeout() {
        let mut plan = FaultPlan::none();
        plan.request_loss = 1.0;
        let mut inj = injector(plan);
        let now = Instant::from_secs(1);
        assert_eq!(
            inj.avail_spectrum(&req(now), now),
            Err(PawsFailure::PawsTimeout {
                waited: PAWS_CLIENT_TIMEOUT
            })
        );
    }

    #[test]
    fn transient_error_is_a_protocol_failure() {
        let mut plan = FaultPlan::none();
        plan.transient_error = 1.0;
        let mut inj = injector(plan);
        let now = Instant::from_secs(1);
        match inj.avail_spectrum(&req(now), now) {
            Err(PawsFailure::Protocol(e)) => assert!(e.detail.contains("injected")),
            other => panic!("expected protocol failure, got {other:?}"),
        }
    }

    #[test]
    fn truncation_keeps_a_prefix_of_grants() {
        let mut plan = FaultPlan::none();
        plan.truncated_grants = 1.0;
        let mut inj = injector(plan);
        let now = Instant::from_secs(1);
        let full = SpectrumDatabase::new(ChannelPlan::Eu, vec![])
            .avail_spectrum(&req(now))
            .grants;
        let got = inj
            .avail_spectrum(&req(now), now)
            .expect("truncation still answers")
            .grants;
        assert!(!got.is_empty());
        assert!(got.len() < full.len());
        assert_eq!(got[..], full[..got.len()]);
    }

    #[test]
    fn delayed_response_times_out_but_registers_notify() {
        let mut plan = FaultPlan::none();
        plan.response_delay = 1.0;
        let mut inj = injector(plan);
        let now = Instant::from_secs(3);
        let n = SpectrumUseNotify {
            device: DeviceDescriptor::master_with_clients("ap", 4),
            channel: ChannelId::new(38),
            eirp_dbm: 30.0,
        };
        assert!(matches!(
            inj.notify_use(n, now),
            Err(PawsFailure::PawsTimeout { .. })
        ));
        // The request reached the database even though the ack was late.
        assert_eq!(inj.database().notification_count(), 1);
    }

    #[test]
    fn scheduled_revocation_withdraws_last_used_channel() {
        let mut plan = FaultPlan::none();
        plan.revocations.push((Instant::from_secs(30), None));
        let mut inj = injector(plan);
        let now = Instant::from_secs(1);
        let ch = ChannelId::new(38);
        inj.notify_use(
            SpectrumUseNotify {
                device: DeviceDescriptor::master_with_clients("ap", 4),
                channel: ch,
                eirp_dbm: 30.0,
            },
            now,
        )
        .expect("no faults planned");
        let loc = Point::new(100_000.0, 0.0);
        assert!(inj.database().is_available(ch, loc, Instant::from_secs(29)));
        inj.advance_to(Instant::from_secs(30));
        assert!(!inj.database().is_available(ch, loc, Instant::from_secs(31)));
        // Reinstated after the hold.
        assert!(inj
            .database()
            .is_available(ch, loc, Instant::from_secs(331)));
        let kinds: Vec<FaultKind> = inj.drain_faults().into_iter().map(|(_, k)| k).collect();
        assert_eq!(kinds, vec![FaultKind::Revocation]);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let plan = FaultPlan {
                request_loss: 0.3,
                response_delay: 0.2,
                transient_error: 0.2,
                truncated_grants: 0.3,
                seed: 42,
                ..FaultPlan::none()
            };
            let mut inj = injector(plan);
            let mut outcomes = Vec::new();
            for s in 0..50u64 {
                let now = Instant::from_secs(s);
                outcomes.push(inj.avail_spectrum(&req(now), now).map(|r| r.grants.len()));
            }
            (outcomes, inj.drain_faults())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn intensity_zero_plans_nothing() {
        let plan = FaultPlan::at_intensity(7, 0.0, Instant::from_secs(600));
        assert_eq!(plan, FaultPlan::none_with_seed(7));
    }

    #[test]
    fn intensity_scales_schedule_density() {
        let low = FaultPlan::at_intensity(7, 0.25, Instant::from_secs(600));
        let high = FaultPlan::at_intensity(7, 1.0, Instant::from_secs(600));
        assert!(low.outages.len() <= high.outages.len());
        assert!(high.request_loss > low.request_loss);
        assert!(!high.outages.is_empty());
        assert!(high.outages.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
