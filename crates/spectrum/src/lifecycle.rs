//! The resilient lease lifecycle.
//!
//! [`crate::client::DatabaseClient`] enforces the regulatory mechanics
//! of one lease; this module wraps it in the policy that keeps an AP
//! *compliant and on the air while the world misbehaves*: proactive
//! renewal at a configurable fraction of the lease lifetime,
//! deterministic retry with exponentially backed-off, seeded-jitter
//! delays (simulation clock only — no wall clock, no ambient entropy),
//! and a graceful-degradation ladder when faults pile up:
//!
//! 1. **retry** the PAWS exchange under backoff while the current lease
//!    is still valid;
//! 2. **fall back** to the next-best granted channel from the
//!    network-listen ranking in [`crate::selection`] when the channel
//!    itself is withdrawn;
//! 3. **reduce EIRP** to the surviving grant's cap when full power is
//!    no longer authorized;
//! 4. **vacate** with non-negative margin against
//!    [`ETSI_VACATE_DEADLINE`] when nothing survives.
//!
//! The ladder's safety rule makes the compliance property provable
//! under *arbitrary* fault schedules: the AP transmits only within
//! [`ETSI_VACATE_DEADLINE`] minus the configured margin of its last
//! successful availability confirmation. A channel withdrawn the
//! instant after a confirmation is therefore radiated on for strictly
//! less than the ETSI minute, no matter what the database does next.

use crate::client::{ClientState, DatabaseClient, OperationError, ETSI_VACATE_DEADLINE};
use crate::faults::PawsTransport;
use crate::paws::GeoLocation;
use crate::plan::ChannelPlan;
use crate::selection::{ChannelSelector, ListenObservation};
use cellfi_types::time::{Duration, Instant};
use cellfi_types::ChannelId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Phase of the resilient lifecycle. Regulatory *permission* to radiate
/// is always [`LeaseLifecycle::may_transmit`] (delegating to the
/// underlying client); the phase describes the policy posture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeasePhase {
    /// No lease; acquiring (or waiting for the next attempt).
    Idle,
    /// Operating normally under a valid lease at full requested EIRP.
    Operating,
    /// A renewal attempt is in flight (transient within one step).
    Renewing,
    /// The last exchange failed; waiting out an exponential backoff
    /// while the current lease, if any, keeps running.
    Backoff,
    /// Operating in a degraded configuration: a fallback channel
    /// and/or reduced EIRP.
    Degraded,
    /// Vacated; off the air until reacquisition succeeds.
    Vacated,
}

/// Which rung of the degradation ladder fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeStep {
    /// Switched to the next-best granted channel after losing the one
    /// in use.
    ChannelFallback,
    /// Operating below the requested EIRP because the surviving grant's
    /// cap is lower.
    EirpReduction,
    /// Vacated preemptively: the availability confirmation went stale
    /// (database unreachable) and the conservative ETSI window ran out.
    PreemptiveVacate,
}

impl DegradeStep {
    /// Stable numeric code for trace events.
    pub fn code(self) -> u32 {
        match self {
            DegradeStep::ChannelFallback => 0,
            DegradeStep::EirpReduction => 1,
            DegradeStep::PreemptiveVacate => 2,
        }
    }
}

/// One observable lifecycle transition, for traces and metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifecycleEvent {
    /// A lease was acquired and operation started.
    Acquired {
        /// Channel now in use.
        channel: ChannelId,
        /// Lease expiry.
        expires: Instant,
        /// Authorized EIRP in use, dBm.
        eirp_dbm: f64,
    },
    /// The lease on the operating channel was renewed/confirmed.
    Renewed {
        /// Channel confirmed.
        channel: ChannelId,
        /// New lease expiry.
        expires: Instant,
    },
    /// An exchange failed; retrying after a backed-off delay.
    BackedOff {
        /// Consecutive failures so far.
        attempt: u32,
        /// When the next attempt is scheduled.
        resume_at: Instant,
    },
    /// A degradation-ladder rung fired.
    Degraded {
        /// The rung.
        step: DegradeStep,
        /// The channel the AP is on after the rung (the vacated channel
        /// for [`DegradeStep::PreemptiveVacate`]).
        channel: ChannelId,
    },
    /// Recovered from backoff/degradation to normal operation.
    Recovered {
        /// Channel operating on after recovery.
        channel: ChannelId,
    },
    /// Stopped transmitting on a channel.
    Vacated {
        /// The vacated channel.
        channel: ChannelId,
        /// Margin left before the applicable deadline. Saturated at
        /// zero; a missed deadline also increments
        /// [`LifecycleStats::missed_deadlines`].
        margin: Duration,
    },
}

/// Tuning of the resilient lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleConfig {
    /// EIRP the AP wants to operate at, dBm.
    pub eirp_dbm: f64,
    /// Steady-state re-confirmation cadence. Must be comfortably under
    /// [`ETSI_VACATE_DEADLINE`] so a withdrawal is noticed with margin.
    pub poll: Duration,
    /// Renew proactively once this fraction of the lease lifetime has
    /// elapsed (also bounded by `poll`).
    pub renew_fraction: f64,
    /// First retry delay after a failure.
    pub backoff_base: Duration,
    /// Retry delay cap.
    pub backoff_max: Duration,
    /// Jitter applied to each backoff delay, as a fraction (±).
    pub jitter_frac: f64,
    /// Stop this long before any vacate deadline.
    pub vacate_margin: Duration,
}

impl LifecycleConfig {
    /// Defaults mirroring the paper's AP behaviour (it polled every few
    /// seconds and stopped 2 s after noticing the withdrawal).
    pub fn paper_default(eirp_dbm: f64) -> LifecycleConfig {
        LifecycleConfig {
            eirp_dbm,
            poll: Duration::from_secs(15),
            renew_fraction: 0.5,
            backoff_base: Duration::from_secs(2),
            backoff_max: Duration::from_secs(30),
            jitter_frac: 0.25,
            vacate_margin: Duration::from_secs(2),
        }
    }
}

/// Counters the lifecycle accumulates for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleStats {
    /// Successful renewals/confirmations while operating.
    pub renewals: u64,
    /// Times the AP stopped transmitting on a channel.
    pub vacates: u64,
    /// Degradation-ladder rungs fired.
    pub degrades: u64,
    /// Recoveries back to normal operation.
    pub recoveries: u64,
    /// Failed exchanges that scheduled a backed-off retry.
    pub backoffs: u64,
    /// Vacates that happened *after* their deadline (compliance
    /// violations; must stay zero).
    pub missed_deadlines: u64,
    /// Smallest vacate margin observed, µs (`u64::MAX` until the first
    /// vacate).
    pub min_vacate_margin_us: u64,
}

impl LifecycleStats {
    fn new() -> LifecycleStats {
        LifecycleStats {
            min_vacate_margin_us: u64::MAX,
            ..LifecycleStats::default()
        }
    }
}

/// The resilient lease lifecycle of one AP: a [`DatabaseClient`] plus
/// renewal, backoff and degradation policy. Drive it with
/// [`LeaseLifecycle::step`] once per simulation tick.
#[derive(Debug, Clone)]
pub struct LeaseLifecycle {
    client: DatabaseClient,
    selector: ChannelSelector,
    config: LifecycleConfig,
    phase: LeasePhase,
    rng: StdRng,
    /// PAWS INIT completed.
    initialized: bool,
    /// Consecutive failed exchanges.
    attempt: u32,
    /// Next instant the lifecycle will touch the transport.
    next_action: Instant,
    /// Last time the operating channel was confirmed available by a
    /// successful exchange — anchored at the *response computation*
    /// time, so a cached (replayed) answer ages the window correctly.
    last_confirmed: Instant,
    /// Regulatory vacate deadline the confidence window is built from
    /// (ETSI minute by default; profiles may differ).
    vacate_deadline: Duration,
    /// EIRP currently notified/authorized, dBm.
    eirp_dbm: f64,
    /// Pending observable transitions, drained by the harness.
    events: Vec<(Instant, LifecycleEvent)>,
    stats: LifecycleStats,
}

impl LeaseLifecycle {
    /// A lifecycle for an AP at `location` answering for `clients`
    /// devices, selecting channels over `plan`. `seed` drives only the
    /// backoff jitter — the simulation clock drives everything else.
    pub fn new(
        serial: impl Into<String>,
        clients: u32,
        location: GeoLocation,
        plan: ChannelPlan,
        config: LifecycleConfig,
        seed: u64,
    ) -> LeaseLifecycle {
        LeaseLifecycle {
            client: DatabaseClient::new(serial, clients, location),
            selector: ChannelSelector::new(plan),
            config,
            phase: LeasePhase::Idle,
            rng: StdRng::seed_from_u64(seed),
            initialized: false,
            attempt: 0,
            next_action: Instant::ZERO,
            last_confirmed: Instant::ZERO,
            vacate_deadline: ETSI_VACATE_DEADLINE,
            eirp_dbm: config.eirp_dbm,
            events: Vec::new(),
            stats: LifecycleStats::new(),
        }
    }

    /// Adopt a regulatory rule profile: the vacate deadline the safety
    /// rule and the underlying client enforce comes from `profile`
    /// instead of the ETSI default. EIRP and cadence stay with
    /// [`LifecycleConfig`]; the profile governs only regulatory timing
    /// here.
    pub fn with_profile(mut self, profile: &crate::profile::RuleProfile) -> LeaseLifecycle {
        self.vacate_deadline = profile.vacate_deadline;
        self.client = self.client.with_vacate_deadline(profile.vacate_deadline);
        self
    }

    /// Current policy phase.
    pub fn phase(&self) -> LeasePhase {
        self.phase
    }

    /// The underlying regulatory client.
    pub fn client(&self) -> &DatabaseClient {
        &self.client
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> LifecycleStats {
        self.stats
    }

    /// The channel currently operated on, if any.
    pub fn current_channel(&self) -> Option<ChannelId> {
        match self.client.state() {
            ClientState::Operating { channel, .. } => Some(channel),
            _ => None,
        }
    }

    /// EIRP currently in use, dBm (meaningful while operating).
    pub fn eirp_dbm(&self) -> f64 {
        self.eirp_dbm
    }

    /// Regulatory permission to radiate at `now`.
    pub fn may_transmit(&self, now: Instant) -> bool {
        self.client.may_transmit(now)
    }

    /// Drain the observable transitions emitted since the last call.
    /// The buffer keeps its capacity, so a lifecycle stepped every tick
    /// does not allocate a new one each time it emits.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, (Instant, LifecycleEvent)> {
        self.events.drain(..)
    }

    /// The conservative stop deadline: the last availability
    /// confirmation plus the profile's vacate window (the ETSI minute
    /// by default). Transmitting past this point would risk radiating
    /// longer than the window after an unobserved withdrawal, so the
    /// ladder vacates before it. The anchor is the response's
    /// *computation* time ([`DatabaseClient::last_response_time`]), so
    /// an availability cache replaying an old answer cannot stretch
    /// the window.
    fn confidence_deadline(&self) -> Instant {
        self.last_confirmed + self.vacate_deadline
    }

    /// The anchor for the confidence window after a successful
    /// exchange: when the database computed the answer (equals `now`
    /// against a live database, older through a cache).
    fn confirmation_anchor(&self, now: Instant) -> Instant {
        self.client.last_response_time().unwrap_or(now)
    }

    /// Advance the lifecycle at `now`: expiry checks every tick, and
    /// transport work (renewal, retries, reacquisition) when due.
    /// `listen` is the AP's current network-listen survey, used to rank
    /// fallback channels.
    pub fn step<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        listen: &[ListenObservation],
        now: Instant,
    ) {
        // In-lease expiry between polls.
        self.client.tick(now);
        if let ClientState::Vacating { channel, deadline } = self.client.state() {
            // The lease is gone (expiry, or a withdrawal noticed by a
            // refresh outside this step). Stop immediately — margin is
            // whatever is left of the ETSI window.
            self.record_vacate(channel, deadline, now);
            self.phase = LeasePhase::Vacated;
            self.next_action = now; // try to reacquire right away
        }
        // Ladder rung 4 (safety rule): operating with a stale
        // availability confirmation → preemptive vacate with margin.
        if let ClientState::Operating { channel, .. } = self.client.state() {
            let vacate_by = self.confidence_deadline() - self.config.vacate_margin;
            if now >= vacate_by {
                self.stats.degrades += 1;
                self.events.push((
                    now,
                    LifecycleEvent::Degraded {
                        step: DegradeStep::PreemptiveVacate,
                        channel,
                    },
                ));
                self.record_vacate(channel, self.confidence_deadline(), now);
                self.phase = LeasePhase::Vacated;
                self.next_action = now;
            }
        }
        if now < self.next_action {
            return;
        }
        match self.client.state() {
            ClientState::Idle => self.try_acquire(transport, listen, now),
            ClientState::Operating { .. } => self.try_renew(transport, listen, now),
            // Vacating is resolved above; nothing to do mid-step.
            ClientState::Vacating { .. } => {}
        }
    }

    /// [`Self::step`] bracketed by the `lease_step` profiler span, for
    /// harnesses that carry an observability bundle.
    pub fn step_profiled<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        listen: &[ListenObservation],
        now: Instant,
        profiler: &mut cellfi_obs::Profiler,
    ) {
        profiler.begin(cellfi_obs::SpanId::LeaseStep);
        self.step(transport, listen, now);
        profiler.end(cellfi_obs::SpanId::LeaseStep);
    }

    /// Stop transmitting on `channel`, recording the margin against
    /// `deadline` (saturated at zero; misses are counted).
    fn record_vacate(&mut self, channel: ChannelId, deadline: Instant, now: Instant) {
        let margin = if now <= deadline {
            deadline - now
        } else {
            self.stats.missed_deadlines += 1;
            Duration::ZERO
        };
        self.stats.vacates += 1;
        self.stats.min_vacate_margin_us = self.stats.min_vacate_margin_us.min(margin.as_micros());
        self.client.confirm_stopped();
        self.events
            .push((now, LifecycleEvent::Vacated { channel, margin }));
    }

    /// A failed exchange: schedule the next attempt with exponential
    /// backoff and seeded jitter.
    fn back_off(&mut self, now: Instant) {
        self.attempt = self.attempt.saturating_add(1);
        let shift = (self.attempt - 1).min(16);
        let base_us = self
            .config
            .backoff_base
            .as_micros()
            .saturating_mul(1u64 << shift)
            .min(self.config.backoff_max.as_micros());
        // Jitter in [1 - j, 1 + j], drawn from the seeded stream.
        let j = self.config.jitter_frac;
        let factor = 1.0 + j * (2.0 * self.rng.gen::<f64>() - 1.0);
        let delay = Duration::from_micros((base_us as f64 * factor) as u64);
        self.next_action = now + delay;
        self.phase = LeasePhase::Backoff;
        self.stats.backoffs += 1;
        self.events.push((
            now,
            LifecycleEvent::BackedOff {
                attempt: self.attempt,
                resume_at: self.next_action,
            },
        ));
    }

    /// Schedule the next steady-state confirmation while operating.
    fn schedule_confirmation(&mut self, now: Instant, expires: Instant) {
        let lease_left = if expires > now {
            expires - now
        } else {
            Duration::ZERO
        };
        let renew_in = Duration::from_micros(
            (lease_left.as_micros() as f64 * self.config.renew_fraction) as u64,
        );
        self.next_action = now + renew_in.min(self.config.poll);
    }

    /// Acquire a lease from scratch: INIT if needed, query, rank, and
    /// start operation on the best granted channel.
    fn try_acquire<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        listen: &[ListenObservation],
        now: Instant,
    ) {
        if !self.initialized {
            match self.client.init(transport, now) {
                Ok(_) => self.initialized = true,
                Err(_) => {
                    self.back_off(now);
                    return;
                }
            }
        }
        match self.client.refresh(transport, now) {
            Ok(_) => {}
            Err(_) => {
                self.back_off(now);
                return;
            }
        }
        self.attempt = 0;
        let grants = self.client.grants();
        let Some(choice) = self.selector.choose(grants, grants, listen, now) else {
            // Transport fine, nothing granted here: poll again later.
            self.phase = if self.phase == LeasePhase::Vacated {
                LeasePhase::Vacated
            } else {
                LeasePhase::Idle
            };
            self.next_action = now + self.config.poll;
            return;
        };
        let eirp = self.config.eirp_dbm.min(choice.max_eirp_dbm);
        match self
            .client
            .start_operation(transport, choice.channel, eirp, now)
        {
            Ok(()) => {
                self.eirp_dbm = eirp;
                self.last_confirmed = self.confirmation_anchor(now);
                self.events.push((
                    now,
                    LifecycleEvent::Acquired {
                        channel: choice.channel,
                        expires: choice.expires,
                        eirp_dbm: eirp,
                    },
                ));
                if eirp < self.config.eirp_dbm {
                    // Ladder rung 3: the surviving grant caps us below
                    // the requested power.
                    self.stats.degrades += 1;
                    self.phase = LeasePhase::Degraded;
                    self.events.push((
                        now,
                        LifecycleEvent::Degraded {
                            step: DegradeStep::EirpReduction,
                            channel: choice.channel,
                        },
                    ));
                } else {
                    self.phase = LeasePhase::Operating;
                }
                self.schedule_confirmation(now, choice.expires);
            }
            Err(OperationError::NotifyFailed(_)) => self.back_off(now),
            Err(_) => {
                // Grant vanished between ranking and start (e.g. truncated
                // list): poll again rather than spin.
                self.phase = LeasePhase::Idle;
                self.next_action = now + self.config.poll;
            }
        }
    }

    /// Confirm/renew the lease on the operating channel, falling down
    /// the ladder when the channel was withdrawn.
    fn try_renew<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        listen: &[ListenObservation],
        now: Instant,
    ) {
        let was = self.phase;
        self.phase = LeasePhase::Renewing;
        match self.client.refresh(transport, now) {
            Err(_) => {
                // Lease still valid; keep operating under backoff. The
                // confidence deadline bounds how long this can go on.
                self.back_off(now);
            }
            Ok(ClientState::Operating { channel, expires }) => {
                self.last_confirmed = self.confirmation_anchor(now);
                self.attempt = 0;
                self.stats.renewals += 1;
                self.events
                    .push((now, LifecycleEvent::Renewed { channel, expires }));
                let recovered = self.try_upgrade(transport, listen, channel, now);
                let channel = self.current_channel().unwrap_or(channel);
                if recovered || was == LeasePhase::Backoff {
                    if self.phase_is_degraded() {
                        self.phase = LeasePhase::Degraded;
                    } else {
                        if was != LeasePhase::Operating {
                            self.stats.recoveries += 1;
                            self.events
                                .push((now, LifecycleEvent::Recovered { channel }));
                        }
                        self.phase = LeasePhase::Operating;
                    }
                } else if was == LeasePhase::Degraded {
                    self.phase = LeasePhase::Degraded;
                } else {
                    self.phase = LeasePhase::Operating;
                }
                if let ClientState::Operating { expires, .. } = self.client.state() {
                    self.schedule_confirmation(now, expires);
                }
            }
            Ok(ClientState::Vacating { channel, deadline }) => {
                // Ladder rung 2: the channel was withdrawn. Stop on it
                // now (full margin) and fall back to the next-best
                // granted channel from the listen ranking.
                self.record_vacate(channel, deadline, now);
                self.fall_back(transport, listen, channel, now);
            }
            Ok(ClientState::Idle) => {
                // Unreachable in practice: refresh never moves
                // Operating → Idle. Re-enter acquisition.
                self.phase = LeasePhase::Idle;
                self.next_action = now;
            }
        }
    }

    /// Whether the current operating point is still degraded (below the
    /// requested EIRP).
    fn phase_is_degraded(&self) -> bool {
        self.eirp_dbm < self.config.eirp_dbm
    }

    /// While renewed and degraded: try to climb back up the ladder —
    /// switch to the selector's top choice (e.g. the original channel
    /// after reinstatement) or restore full EIRP on the current one.
    /// Returns whether an upgrade happened.
    fn try_upgrade<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        listen: &[ListenObservation],
        current: ChannelId,
        now: Instant,
    ) -> bool {
        if self.phase != LeasePhase::Renewing && !self.phase_is_degraded() {
            return false;
        }
        let grants = self.client.grants();
        let Some(choice) = self.selector.choose(grants, grants, listen, now) else {
            return false;
        };
        let want_eirp = self.config.eirp_dbm.min(choice.max_eirp_dbm);
        let better_channel = choice.channel != current && self.was_fallback();
        let better_power = choice.channel == current && want_eirp > self.eirp_dbm;
        if !better_channel && !better_power {
            return false;
        }
        match self
            .client
            .start_operation(transport, choice.channel, want_eirp, now)
        {
            Ok(()) => {
                self.eirp_dbm = want_eirp;
                true
            }
            // Upgrade is opportunistic: failure leaves the current
            // (still valid) configuration in place.
            Err(_) => false,
        }
    }

    /// Whether the AP is on a fallback channel (degraded for a reason
    /// other than EIRP).
    fn was_fallback(&self) -> bool {
        self.phase == LeasePhase::Degraded || self.phase == LeasePhase::Renewing
    }

    /// Ladder rung 2/3: choose the next-best granted channel (the
    /// withdrawn one is no longer granted) and move there, reducing
    /// EIRP to its cap if need be; rung 4 (vacated, off the air) when
    /// nothing survives.
    fn fall_back<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        listen: &[ListenObservation],
        lost: ChannelId,
        now: Instant,
    ) {
        let grants = self.client.grants();
        let fallback = self
            .selector
            .choose(grants, grants, listen, now)
            .filter(|c| c.channel != lost);
        let Some(choice) = fallback else {
            self.phase = LeasePhase::Vacated;
            self.next_action = now + self.config.poll;
            return;
        };
        let eirp = self.config.eirp_dbm.min(choice.max_eirp_dbm);
        match self
            .client
            .start_operation(transport, choice.channel, eirp, now)
        {
            Ok(()) => {
                self.eirp_dbm = eirp;
                self.last_confirmed = self.confirmation_anchor(now);
                self.attempt = 0;
                self.stats.degrades += 1;
                self.phase = LeasePhase::Degraded;
                self.events.push((
                    now,
                    LifecycleEvent::Degraded {
                        step: DegradeStep::ChannelFallback,
                        channel: choice.channel,
                    },
                ));
                if eirp < self.config.eirp_dbm {
                    self.stats.degrades += 1;
                    self.events.push((
                        now,
                        LifecycleEvent::Degraded {
                            step: DegradeStep::EirpReduction,
                            channel: choice.channel,
                        },
                    ));
                }
                self.schedule_confirmation(now, choice.expires);
            }
            Err(OperationError::NotifyFailed(_)) => {
                // Can't notify the switch: off the air, retry later.
                self.phase = LeasePhase::Vacated;
                self.back_off(now);
            }
            Err(_) => {
                self.phase = LeasePhase::Vacated;
                self.next_action = now + self.config.poll;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SpectrumDatabase;
    use crate::faults::{FaultInjector, FaultPlan};
    use crate::selection::OccupantKind;
    use cellfi_types::geo::Point;
    use cellfi_types::units::Dbm;

    const TICK: Duration = Duration::from_secs(1);

    fn lifecycle(eirp: f64) -> LeaseLifecycle {
        LeaseLifecycle::new(
            "cellfi-ap-001",
            8,
            GeoLocation::gps(Point::new(100_000.0, 0.0)),
            ChannelPlan::Eu,
            LifecycleConfig::paper_default(eirp),
            7,
        )
    }

    fn run(
        lc: &mut LeaseLifecycle,
        inj: &mut FaultInjector,
        from: Instant,
        until: Instant,
    ) -> Vec<(Instant, LifecycleEvent)> {
        let mut events = Vec::new();
        let mut t = from;
        while t < until {
            inj.advance_to(t);
            lc.step(inj, &[], t);
            events.extend(lc.drain_events());
            t += TICK;
        }
        events
    }

    #[test]
    fn happy_path_acquires_and_renews() {
        let mut lc = lifecycle(30.0);
        let mut inj = FaultInjector::new(
            SpectrumDatabase::new(ChannelPlan::Eu, vec![]),
            FaultPlan::none(),
        );
        let events = run(&mut lc, &mut inj, Instant::ZERO, Instant::from_secs(120));
        assert_eq!(lc.phase(), LeasePhase::Operating);
        assert!(lc.may_transmit(Instant::from_secs(120)));
        assert!(matches!(events[0].1, LifecycleEvent::Acquired { .. }));
        // 15 s poll over 2 minutes: several confirmations.
        assert!(lc.stats().renewals >= 5, "{:?}", lc.stats());
        assert_eq!(lc.stats().vacates, 0);
        assert_eq!(lc.stats().missed_deadlines, 0);
    }

    #[test]
    fn outage_longer_than_window_forces_preemptive_vacate_then_recovery() {
        let mut lc = lifecycle(30.0);
        let mut plan = FaultPlan::none();
        // Unreachable from t=30 s for 120 s: the confidence window (58 s)
        // runs out mid-outage.
        plan.outages
            .push((Instant::from_secs(30), Instant::from_secs(150)));
        let mut inj = FaultInjector::new(SpectrumDatabase::new(ChannelPlan::Eu, vec![]), plan);
        let events = run(&mut lc, &mut inj, Instant::ZERO, Instant::from_secs(200));
        let vacated: Vec<_> = events
            .iter()
            .filter_map(|(t, e)| match e {
                LifecycleEvent::Vacated { margin, .. } => Some((*t, *margin)),
                _ => None,
            })
            .collect();
        assert_eq!(vacated.len(), 1, "{events:?}");
        let (at, margin) = vacated[0];
        // Vacated before the confidence deadline (last confirm ≤ 30 s,
        // so stop by ~88 s), with non-negative margin.
        assert!(at < Instant::from_secs(95), "vacated at {at:?}");
        assert!(margin >= Duration::from_secs(1), "margin {margin:?}");
        assert_eq!(lc.stats().missed_deadlines, 0);
        assert!(lc.stats().backoffs > 0, "retries under outage");
        // After the outage ends the AP reacquires.
        assert!(lc.may_transmit(Instant::from_secs(200)));
        assert!(events
            .iter()
            .any(|(t, e)| *t >= Instant::from_secs(150)
                && matches!(e, LifecycleEvent::Acquired { .. })));
    }

    #[test]
    fn revocation_falls_back_to_next_best_channel() {
        let mut lc = lifecycle(30.0);
        let mut plan = FaultPlan::none();
        plan.revocations.push((Instant::from_secs(40), None));
        plan.revocation_hold = Duration::from_secs(100);
        let mut inj = FaultInjector::new(SpectrumDatabase::new(ChannelPlan::Eu, vec![]), plan);
        let events = run(&mut lc, &mut inj, Instant::ZERO, Instant::from_secs(70));
        let first = match events[0].1 {
            LifecycleEvent::Acquired { channel, .. } => channel,
            ref other => panic!("expected Acquired first, got {other:?}"),
        };
        // The withdrawn channel was vacated with essentially the whole
        // ETSI minute of margin, and a different channel took over.
        let vacated: Vec<_> = events
            .iter()
            .filter_map(|(_, e)| match e {
                LifecycleEvent::Vacated { channel, margin } => Some((*channel, *margin)),
                _ => None,
            })
            .collect();
        assert_eq!(vacated.len(), 1, "{events:?}");
        assert_eq!(vacated[0].0, first);
        assert!(vacated[0].1 >= Duration::from_secs(59));
        assert!(events.iter().any(|(_, e)| matches!(
            e,
            LifecycleEvent::Degraded {
                step: DegradeStep::ChannelFallback,
                ..
            }
        )));
        let now_ch = lc.current_channel().expect("operating on the fallback");
        assert_ne!(now_ch, first);
        assert!(lc.may_transmit(Instant::from_secs(69)));
    }

    #[test]
    fn fallback_prefers_listen_ranking() {
        let mut lc = lifecycle(30.0);
        let mut plan = FaultPlan::none();
        plan.revocations.push((Instant::from_secs(30), None));
        let mut inj = FaultInjector::new(SpectrumDatabase::new(ChannelPlan::Eu, vec![]), plan);
        // Mark every channel foreign-occupied except 47 (idle, quiet).
        let listen: Vec<ListenObservation> = ChannelPlan::Eu
            .channels()
            .iter()
            .map(|ch| ListenObservation {
                channel: ch.id,
                energy: if ch.id.0 == 47 {
                    Dbm(-98.0)
                } else {
                    Dbm(-62.0)
                },
                occupant: if ch.id.0 == 47 {
                    OccupantKind::Idle
                } else {
                    OccupantKind::Foreign
                },
            })
            .collect();
        let mut t = Instant::ZERO;
        while t < Instant::from_secs(60) {
            inj.advance_to(t);
            lc.step(&mut inj, &listen, t);
            t += TICK;
        }
        // 47 ranked best both at bootstrap and after revocation of 47
        // itself — after the revocation the fallback is a foreign
        // channel (the least bad), proving the ranking is consulted.
        let _ = lc.drain_events();
        assert!(lc.may_transmit(Instant::from_secs(59)));
    }

    #[test]
    fn eirp_reduced_to_grant_cap_and_restored_is_degraded() {
        // Database caps at 36 dBm; asking for 40 forces rung 3.
        let mut lc = lifecycle(40.0);
        let mut inj = FaultInjector::new(
            SpectrumDatabase::new(ChannelPlan::Eu, vec![]),
            FaultPlan::none(),
        );
        let events = run(&mut lc, &mut inj, Instant::ZERO, Instant::from_secs(10));
        assert!(events.iter().any(|(_, e)| matches!(
            e,
            LifecycleEvent::Degraded {
                step: DegradeStep::EirpReduction,
                ..
            }
        )));
        assert_eq!(lc.phase(), LeasePhase::Degraded);
        assert!((lc.eirp_dbm() - 36.0).abs() < 1e-9);
        assert!(lc.may_transmit(Instant::from_secs(9)));
    }

    #[test]
    fn transient_faults_back_off_and_recover_without_losing_the_lease() {
        let mut lc = lifecycle(30.0);
        // 35% of exchanges fail one way or another.
        let plan = FaultPlan {
            request_loss: 0.2,
            transient_error: 0.15,
            seed: 11,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(SpectrumDatabase::new(ChannelPlan::Eu, vec![]), plan);
        let events = run(&mut lc, &mut inj, Instant::ZERO, Instant::from_secs(600));
        assert!(lc.stats().backoffs > 0, "some exchanges must have failed");
        assert_eq!(lc.stats().missed_deadlines, 0);
        // Backoffs resolved into recoveries or plain renewals; the AP
        // ends the run on the air.
        assert!(lc.may_transmit(Instant::from_secs(600)));
        let backoffs = events
            .iter()
            .filter(|(_, e)| matches!(e, LifecycleEvent::BackedOff { .. }))
            .count() as u64;
        assert_eq!(backoffs, lc.stats().backoffs);
    }

    #[test]
    fn backoff_delays_grow_and_jitter_is_seeded() {
        let resumes = |seed: u64| {
            let mut lc = LeaseLifecycle::new(
                "ap",
                1,
                GeoLocation::gps(Point::new(100_000.0, 0.0)),
                ChannelPlan::Eu,
                LifecycleConfig::paper_default(30.0),
                seed,
            );
            // Total outage: every acquisition attempt fails.
            let plan = FaultPlan {
                outages: vec![(Instant::ZERO, Instant::from_secs(10_000))],
                ..FaultPlan::none()
            };
            let mut inj = FaultInjector::new(SpectrumDatabase::new(ChannelPlan::Eu, vec![]), plan);
            let events = run(&mut lc, &mut inj, Instant::ZERO, Instant::from_secs(300));
            events
                .into_iter()
                .filter_map(|(t, e)| match e {
                    LifecycleEvent::BackedOff { resume_at, .. } => {
                        Some(resume_at.as_micros() - t.as_micros())
                    }
                    _ => None,
                })
                .collect::<Vec<u64>>()
        };
        let a = resumes(1);
        let b = resumes(1);
        let c = resumes(2);
        assert_eq!(a, b, "same seed, same jitter");
        assert_ne!(a, c, "different seed, different jitter");
        // Delays grow toward the cap (2 s base, 30 s cap, ±25% jitter).
        assert!(a.len() >= 4);
        assert!(a[0] < 3_000_000, "first delay near the base: {a:?}");
        let max = *a.iter().max().expect("non-empty backoff sequence");
        assert!(max > 15_000_000, "later delays approach the cap: {a:?}");
        assert!(max <= 37_500_000, "cap plus jitter bounds delays: {a:?}");
    }

    #[test]
    fn no_transmission_without_confirmed_availability() {
        // The safety rule, checked densely: at every tick where the AP
        // may transmit, ground-truth availability was confirmed within
        // the last 58 s.
        let mut lc = lifecycle(30.0);
        let plan = FaultPlan::at_intensity(3, 0.8, Instant::from_secs(600));
        let mut inj = FaultInjector::new(SpectrumDatabase::new(ChannelPlan::Eu, vec![]), plan);
        let loc = Point::new(100_000.0, 0.0);
        let mut unavailable_since: Option<Instant> = None;
        let mut t = Instant::ZERO;
        while t < Instant::from_secs(600) {
            inj.advance_to(t);
            lc.step(&mut inj, &[], t);
            if let Some(ch) = lc.current_channel() {
                if lc.may_transmit(t) {
                    if inj.database().is_available(ch, loc, t) {
                        unavailable_since = None;
                    } else if let Some(since) = unavailable_since {
                        assert!(
                            t.duration_since(since) <= ETSI_VACATE_DEADLINE,
                            "transmitting on {ch} unavailable since {since:?} at {t:?}"
                        );
                    } else {
                        unavailable_since = Some(t);
                    }
                }
            } else {
                unavailable_since = None;
            }
            t += TICK;
        }
        assert_eq!(lc.stats().missed_deadlines, 0);
    }
}
