//! The access-point-side database client.
//!
//! Owns the lease lifecycle of Fig 6: query → grant → operate → lose the
//! channel → **stop transmitting within the ETSI minute** → re-query →
//! reacquire. "No TVWS client is allowed to transmit in a channel without
//! having a valid lease from a spectrum database and has to stop once a
//! lease has expired" (§4.2); ETSI EN 301 598 "mandate\[s\] that
//! transmissions should stop within one minute after the channel ceases
//! to be available" (§6.2).

use crate::faults::{PawsFailure, PawsTransport};
use crate::paws::{
    AvailSpectrumReq, DeviceDescriptor, GeoLocation, InitReq, InitResp, SpectrumGrant,
    SpectrumUseNotify,
};
use cellfi_obs::trace::{Event, Tracer};
use cellfi_types::time::{Duration, Instant};
use cellfi_types::ChannelId;

/// The ETSI EN 301 598 vacate deadline.
pub const ETSI_VACATE_DEADLINE: Duration = Duration::from_secs(60);

/// Why [`DatabaseClient::start_operation`] refused to begin transmitting.
///
/// Every case means "do not radiate" — the first two are *regulatory*
/// refusals by the client itself, the third a failed mandatory
/// `SPECTRUM_USE_NOTIFY` (ETSI requires the notification before
/// operation, so a lost or timed-out notify also blocks the radio). A
/// compliant AP treats all of them as outcomes, not bugs, which is why
/// the API returns them instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum OperationError {
    /// No currently-valid grant covers the requested channel.
    NoValidGrant {
        /// The channel the caller asked to operate on.
        channel: ChannelId,
    },
    /// Requested EIRP exceeds the grant's cap.
    EirpExceedsGrant {
        /// The EIRP the caller asked for, dBm.
        requested_dbm: f64,
        /// The grant's maximum permitted EIRP, dBm.
        cap_dbm: f64,
    },
    /// The mandatory use notification did not complete.
    NotifyFailed(PawsFailure),
}

impl std::fmt::Display for OperationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            OperationError::NoValidGrant { channel } => {
                write!(f, "no valid grant for {channel}")
            }
            OperationError::EirpExceedsGrant {
                requested_dbm,
                cap_dbm,
            } => write!(
                f,
                "EIRP {requested_dbm} dBm exceeds grant cap {cap_dbm} dBm"
            ),
            OperationError::NotifyFailed(ref failure) => {
                write!(f, "SPECTRUM_USE_NOTIFY failed: {failure}")
            }
        }
    }
}

impl std::error::Error for OperationError {}

/// Lease state of the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientState {
    /// No channel in use; transmission forbidden.
    Idle,
    /// Operating on a channel under a valid grant.
    Operating {
        /// The channel in use.
        channel: ChannelId,
        /// Grant expiry.
        expires: Instant,
    },
    /// The channel was lost (withdrawn or expired); transmission must
    /// stop by `deadline` and the radio is being shut down.
    Vacating {
        /// The channel being vacated.
        channel: ChannelId,
        /// Hard stop deadline (loss time + 60 s).
        deadline: Instant,
    },
}

/// The CellFi TVWS database client (one per access point, answering for
/// the AP and all of its mobile clients, §4.2).
#[derive(Debug, Clone)]
pub struct DatabaseClient {
    device: DeviceDescriptor,
    location: GeoLocation,
    /// Re-query cadence (ETSI: at most the database's max polling).
    poll_interval: Duration,
    last_query: Option<Instant>,
    /// Grants from the last query.
    grants: Vec<SpectrumGrant>,
    state: ClientState,
    /// Regulatory vacate deadline (ETSI: 60 s; FCC-style profiles may
    /// differ). Defaults to [`ETSI_VACATE_DEADLINE`].
    vacate_deadline: Duration,
    /// `response_time_us` of the last successful availability answer —
    /// when a cache replays an old response this is *older* than the
    /// query time, and the regulatory confidence window must anchor
    /// here, not at the query.
    last_response: Option<Instant>,
}

impl DatabaseClient {
    /// New client for an AP at `location` with `clients` mobile devices.
    pub fn new(serial: impl Into<String>, clients: u32, location: GeoLocation) -> DatabaseClient {
        DatabaseClient {
            device: DeviceDescriptor::master_with_clients(serial, clients),
            location,
            poll_interval: Duration::from_secs(60),
            last_query: None,
            grants: Vec::new(),
            state: ClientState::Idle,
            vacate_deadline: ETSI_VACATE_DEADLINE,
            last_response: None,
        }
    }

    /// Override the regulatory vacate deadline (regulatory profiles;
    /// see [`crate::profile::RuleProfile`]).
    pub fn with_vacate_deadline(mut self, deadline: Duration) -> DatabaseClient {
        self.vacate_deadline = deadline;
        self
    }

    /// Current lease state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Grants from the most recent query.
    pub fn grants(&self) -> &[SpectrumGrant] {
        &self.grants
    }

    /// When the database computed the most recent availability answer.
    /// Equal to the query time when talking to a live database; older
    /// when an availability cache replayed a stored response.
    pub fn last_response_time(&self) -> Option<Instant> {
        self.last_response
    }

    /// Perform the PAWS `INIT` handshake: the database's capabilities
    /// bound the client's polling cadence (a client may not cache an
    /// availability answer longer than `max_polling_secs`). A transport
    /// failure leaves the client's cadence unchanged — it retries later.
    pub fn init<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        now: Instant,
    ) -> Result<InitResp, PawsFailure> {
        let resp = transport.init(
            &InitReq {
                device: self.device.clone(),
                location: self.location,
            },
            now,
        )?;
        self.poll_interval = self
            .poll_interval
            .min(Duration::from_secs(resp.max_polling_secs));
        Ok(resp)
    }

    /// Whether a (re-)query is due.
    pub fn query_due(&self, now: Instant) -> bool {
        match self.last_query {
            None => true,
            Some(t) => now.duration_since(t) >= self.poll_interval,
        }
    }

    /// Query the database. Updates grants and, if the channel currently
    /// in use is no longer granted, transitions to `Vacating` with the
    /// ETSI deadline. Returns the new state.
    ///
    /// A transport failure ([`PawsFailure`]) leaves the client entirely
    /// unchanged — grants, query clock and lease state are all as
    /// before, so a lost response can never wedge the lifecycle: the
    /// caller backs off and retries while the existing lease (if any)
    /// keeps running toward its own expiry.
    pub fn refresh<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        now: Instant,
    ) -> Result<ClientState, PawsFailure> {
        let req = AvailSpectrumReq {
            device: self.device.clone(),
            location: self.location,
            request_time_us: now.as_micros(),
        };
        let resp = transport.avail_spectrum(&req, now)?;
        self.grants = resp.grants;
        self.last_query = Some(now);
        // A replayed (cached) response carries its original computation
        // time; clamp to `now` so a clock oddity can't date it forward.
        self.last_response = Some(Instant::from_micros(
            resp.response_time_us.min(now.as_micros()),
        ));
        self.state = match self.state {
            ClientState::Operating { channel, .. } => {
                match self.grants.iter().find(|g| g.channel == channel) {
                    Some(g) => ClientState::Operating {
                        channel,
                        expires: Instant::from_micros(g.expires_us),
                    },
                    None => ClientState::Vacating {
                        channel,
                        deadline: now + self.vacate_deadline,
                    },
                }
            }
            other => other,
        };
        Ok(self.state)
    }

    /// Begin operating on `channel`. Requires a currently-valid grant
    /// whose EIRP cap covers `eirp_dbm`; on success sends the mandatory
    /// `SPECTRUM_USE_NOTIFY` and enters [`ClientState::Operating`]. On
    /// failure the client state is unchanged and nothing is notified —
    /// the AP simply may not radiate.
    pub fn start_operation<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        channel: ChannelId,
        eirp_dbm: f64,
        now: Instant,
    ) -> Result<(), OperationError> {
        let grant = self
            .grants
            .iter()
            .find(|g| g.channel == channel && g.valid_at(now))
            .ok_or(OperationError::NoValidGrant { channel })?;
        if eirp_dbm > grant.max_eirp_dbm {
            return Err(OperationError::EirpExceedsGrant {
                requested_dbm: eirp_dbm,
                cap_dbm: grant.max_eirp_dbm,
            });
        }
        let expires = Instant::from_micros(grant.expires_us);
        transport
            .notify_use(
                SpectrumUseNotify {
                    device: self.device.clone(),
                    channel,
                    eirp_dbm,
                },
                now,
            )
            .map_err(OperationError::NotifyFailed)?;
        self.state = ClientState::Operating { channel, expires };
        Ok(())
    }

    /// The radio has actually been turned off; lease released.
    pub fn confirm_stopped(&mut self) {
        self.state = ClientState::Idle;
    }

    /// [`DatabaseClient::refresh`] that also emits the lease-lifecycle
    /// trace events: a renewal while operating, or the start of a vacate
    /// with its ETSI deadline. A transport failure emits nothing (the
    /// harness traces injected faults separately).
    pub fn refresh_traced<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        now: Instant,
        tracer: &mut Tracer,
    ) -> Result<ClientState, PawsFailure> {
        let before = self.state;
        let after = self.refresh(transport, now)?;
        match (before, after) {
            (ClientState::Operating { .. }, ClientState::Operating { channel, expires }) => {
                tracer.emit(
                    now,
                    Event::PawsRenew {
                        channel: channel.0,
                        expires_us: expires.as_micros(),
                    },
                );
            }
            (ClientState::Operating { .. }, ClientState::Vacating { channel, deadline }) => {
                tracer.emit(
                    now,
                    Event::PawsVacate {
                        channel: channel.0,
                        deadline_us: deadline.as_micros(),
                    },
                );
            }
            _ => {}
        }
        Ok(after)
    }

    /// [`DatabaseClient::start_operation`] that also emits the
    /// [`Event::PawsGrant`] trace event on success.
    pub fn start_operation_traced<T: PawsTransport>(
        &mut self,
        transport: &mut T,
        channel: ChannelId,
        eirp_dbm: f64,
        now: Instant,
        tracer: &mut Tracer,
    ) -> Result<(), OperationError> {
        self.start_operation(transport, channel, eirp_dbm, now)?;
        if let ClientState::Operating { expires, .. } = self.state {
            tracer.emit(
                now,
                Event::PawsGrant {
                    channel: channel.0,
                    expires_us: expires.as_micros(),
                },
            );
        }
        Ok(())
    }

    /// [`DatabaseClient::confirm_stopped`] that also emits
    /// [`Event::PawsVacated`] with the margin left before the ETSI
    /// deadline (zero margin means the deadline was missed — a
    /// compliance violation worth alerting on).
    pub fn confirm_stopped_traced(&mut self, now: Instant, tracer: &mut Tracer) {
        if let ClientState::Vacating { channel, deadline } = self.state {
            let margin_us = deadline.as_micros().saturating_sub(now.as_micros());
            tracer.emit(
                now,
                Event::PawsVacated {
                    channel: channel.0,
                    margin_us,
                },
            );
        }
        self.confirm_stopped();
    }

    /// TVWS compliance predicate: may the AP radiate at `now`?
    ///
    /// `Operating` with an unexpired grant: yes. `Vacating`: only until
    /// the ETSI deadline (the stack is expected to stop far sooner — the
    /// paper's AP stopped 2 s after the DB change). Expired grant: no.
    ///
    /// Boundary semantics are **exclusive** everywhere, matching
    /// [`SpectrumGrant::valid_at`] and the database's withdrawal
    /// windows: at exactly `expires` the lease is already over and at
    /// exactly `deadline` the vacate window is already over. A
    /// zero-duration grant (`expires ==` grant time) therefore never
    /// permits transmission.
    pub fn may_transmit(&self, now: Instant) -> bool {
        match self.state {
            ClientState::Idle => false,
            ClientState::Operating { expires, .. } => now < expires,
            ClientState::Vacating { deadline, .. } => now < deadline,
        }
    }

    /// An in-lease expiry check the AP runs each tick: transitions
    /// `Operating` → `Vacating` when the lease runs out between polls.
    pub fn tick(&mut self, now: Instant) -> ClientState {
        if let ClientState::Operating { channel, expires } = self.state {
            if now >= expires {
                self.state = ClientState::Vacating {
                    channel,
                    deadline: expires + self.vacate_deadline,
                };
            }
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SpectrumDatabase;
    use crate::faults::{FaultInjector, FaultPlan, PAWS_CLIENT_TIMEOUT};
    use crate::plan::ChannelPlan;
    use cellfi_types::geo::Point;

    fn setup() -> (SpectrumDatabase, DatabaseClient) {
        let db = SpectrumDatabase::new(ChannelPlan::Eu, vec![]);
        let loc = GeoLocation::gps(Point::new(0.0, 0.0));
        let client = DatabaseClient::new("cellfi-ap-001", 10, loc);
        (db, client)
    }

    #[test]
    fn idle_client_may_not_transmit() {
        let (_, c) = setup();
        assert!(!c.may_transmit(Instant::ZERO));
        assert!(c.query_due(Instant::ZERO));
    }

    #[test]
    fn grant_then_operate() {
        let (mut db, mut c) = setup();
        c.refresh(&mut db, Instant::from_secs(1)).unwrap();
        assert!(!c.grants().is_empty());
        let ch = c.grants()[0].channel;
        c.start_operation(&mut db, ch, 36.0, Instant::from_secs(1))
            .expect("granted channel accepts operation");
        assert!(c.may_transmit(Instant::from_secs(2)));
        assert_eq!(db.notification_count(), 1);
    }

    #[test]
    fn overpowered_operation_rejected() {
        let (mut db, mut c) = setup();
        c.refresh(&mut db, Instant::ZERO).unwrap();
        let ch = c.grants()[0].channel;
        let err = c.start_operation(&mut db, ch, 40.0, Instant::ZERO);
        assert!(
            matches!(err, Err(OperationError::EirpExceedsGrant { .. })),
            "{err:?}"
        );
        // Refusal is a compliance outcome, not a crash: state unchanged,
        // nothing notified to the database.
        assert_eq!(c.state(), ClientState::Idle);
        assert_eq!(db.notification_count(), 0);
        assert!(!c.may_transmit(Instant::ZERO));
    }

    #[test]
    fn operation_without_grant_rejected() {
        let (mut db, mut c) = setup();
        c.refresh(&mut db, Instant::ZERO).unwrap();
        let bogus = ChannelId::new(9_999);
        let err = c.start_operation(&mut db, bogus, 36.0, Instant::ZERO);
        assert_eq!(err, Err(OperationError::NoValidGrant { channel: bogus }));
        assert_eq!(c.state(), ClientState::Idle);
    }

    #[test]
    fn withdrawal_starts_vacate_with_etsi_deadline() {
        // The Fig 6 sequence, compliance side.
        let (mut db, mut c) = setup();
        c.refresh(&mut db, Instant::from_secs(0)).unwrap();
        let ch = c.grants()[0].channel;
        c.start_operation(&mut db, ch, 36.0, Instant::ZERO)
            .expect("granted channel accepts operation");
        db.withdraw_channel(ch, None);
        let t = Instant::from_secs(57);
        let state = c.refresh(&mut db, t).unwrap();
        match state {
            ClientState::Vacating { channel, deadline } => {
                assert_eq!(channel, ch);
                assert_eq!(deadline, t + ETSI_VACATE_DEADLINE);
            }
            other => panic!("expected Vacating, got {other:?}"),
        }
        // Transmission legal until the deadline, illegal after.
        assert!(c.may_transmit(Instant::from_secs(116)));
        assert!(!c.may_transmit(Instant::from_secs(117)));
        c.confirm_stopped();
        assert!(!c.may_transmit(Instant::from_secs(58)));
    }

    #[test]
    fn lease_expiry_between_polls_caught_by_tick() {
        let (mut db, mut c) = setup();
        db = db.with_lease_validity(Duration::from_secs(30));
        c.refresh(&mut db, Instant::ZERO).unwrap();
        let ch = c.grants()[0].channel;
        c.start_operation(&mut db, ch, 36.0, Instant::ZERO)
            .expect("granted channel accepts operation");
        assert!(c.may_transmit(Instant::from_secs(29)));
        // Grant expires at t=30 with no poll in between.
        let state = c.tick(Instant::from_secs(30));
        assert!(matches!(state, ClientState::Vacating { .. }));
        assert!(!c.may_transmit(Instant::from_secs(91)));
    }

    #[test]
    fn refresh_extends_operating_lease() {
        let (mut db, mut c) = setup();
        c.refresh(&mut db, Instant::ZERO).unwrap();
        let ch = c.grants()[0].channel;
        c.start_operation(&mut db, ch, 36.0, Instant::ZERO)
            .expect("granted channel accepts operation");
        let before = match c.state() {
            ClientState::Operating { expires, .. } => expires,
            _ => unreachable!(),
        };
        c.refresh(&mut db, Instant::from_secs(3600)).unwrap();
        let after = match c.state() {
            ClientState::Operating { expires, .. } => expires,
            _ => panic!("should still be operating"),
        };
        assert!(after > before);
    }

    #[test]
    fn init_handshake_bounds_polling() {
        let (mut db, mut c) = setup();
        let resp = c.init(&mut db, Instant::ZERO).unwrap();
        assert_eq!(resp.ruleset, "ETSI-EN-301-598-1.1.1");
        // A 30 s database cadence must tighten the client's 60 s default.
        let mut strict = SpectrumDatabase::new(ChannelPlan::Eu, vec![]).with_max_polling(30);
        c.init(&mut strict, Instant::ZERO).unwrap();
        c.refresh(&mut strict, Instant::ZERO).unwrap();
        assert!(c.query_due(Instant::from_secs(31)));
    }

    #[test]
    fn traced_lifecycle_emits_grant_vacate_and_margin() {
        let (mut db, mut c) = setup();
        let mut tr = Tracer::new(true);
        c.refresh_traced(&mut db, Instant::ZERO, &mut tr).unwrap();
        assert!(tr.is_empty(), "idle refresh is not a lifecycle transition");
        let ch = c.grants()[0].channel;
        c.start_operation_traced(&mut db, ch, 36.0, Instant::ZERO, &mut tr)
            .expect("granted channel accepts operation");
        db.withdraw_channel(ch, None);
        c.refresh_traced(&mut db, Instant::from_secs(10), &mut tr)
            .unwrap();
        // Stop 2 s after noticing, like the paper's AP: 48 s of margin.
        c.confirm_stopped_traced(Instant::from_secs(12), &mut tr);
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3, "{jsonl}");
        assert!(lines[0].contains("paws_grant"), "{}", lines[0]);
        assert!(lines[1].contains("paws_vacate"), "{}", lines[1]);
        assert!(
            lines[1].contains(&format!("\"deadline_us\":{}", 70_000_000u64)),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"margin_us\":58000000"), "{}", lines[2]);
    }

    #[test]
    fn poll_cadence() {
        let (mut db, mut c) = setup();
        c.refresh(&mut db, Instant::from_secs(10)).unwrap();
        assert!(!c.query_due(Instant::from_secs(30)));
        assert!(c.query_due(Instant::from_secs(70)));
    }

    #[test]
    fn expiry_boundary_is_exclusive_on_both_sides() {
        // Satellite: pin `expires == now` semantics. The client and the
        // grant agree: the expiry instant itself is outside the lease.
        let (mut db, mut c) = setup();
        db = db.with_lease_validity(Duration::from_secs(100));
        c.refresh(&mut db, Instant::ZERO).unwrap();
        let ch = c.grants()[0].channel;
        assert!(c.grants()[0].valid_at(Instant::from_micros(99_999_999)));
        assert!(!c.grants()[0].valid_at(Instant::from_secs(100)));
        c.start_operation(&mut db, ch, 36.0, Instant::ZERO)
            .expect("granted channel accepts operation");
        assert!(c.may_transmit(Instant::from_micros(99_999_999)));
        assert!(!c.may_transmit(Instant::from_secs(100)));
    }

    #[test]
    fn zero_duration_grant_refused_without_underflow() {
        // Satellite: a grant that expires the instant it is issued must
        // refuse operation (valid_at is exclusive) rather than start a
        // lease of negative length.
        let (mut db, mut c) = setup();
        db = db.with_lease_validity(Duration::ZERO);
        let t = Instant::from_secs(5);
        c.refresh(&mut db, t).unwrap();
        assert!(!c.grants().is_empty(), "grants are issued, just expired");
        let ch = c.grants()[0].channel;
        let err = c.start_operation(&mut db, ch, 36.0, t);
        assert_eq!(err, Err(OperationError::NoValidGrant { channel: ch }));
        assert_eq!(c.state(), ClientState::Idle);
        assert!(!c.may_transmit(t));
    }

    #[test]
    fn transport_failure_leaves_client_unwedged() {
        // Satellite: a lost response can never wedge the lifecycle —
        // grants and lease state are untouched and the query stays due.
        let (db, mut c) = setup();
        let mut good = FaultInjector::new(db.clone(), FaultPlan::none());
        c.refresh(&mut good, Instant::ZERO).unwrap();
        let ch = c.grants()[0].channel;
        c.start_operation(&mut good, ch, 36.0, Instant::ZERO)
            .expect("granted channel accepts operation");
        let grants_before = c.grants().to_vec();
        let state_before = c.state();
        let mut lossy = FaultInjector::new(
            db,
            FaultPlan {
                request_loss: 1.0,
                ..FaultPlan::none()
            },
        );
        let t = Instant::from_secs(120);
        let err = c.refresh(&mut lossy, t);
        assert_eq!(
            err,
            Err(PawsFailure::PawsTimeout {
                waited: PAWS_CLIENT_TIMEOUT
            })
        );
        assert_eq!(c.grants(), &grants_before[..]);
        assert_eq!(c.state(), state_before);
        assert!(c.query_due(t), "failed refresh must not reset the clock");
    }

    #[test]
    fn profile_vacate_deadline_overrides_the_etsi_minute() {
        let (mut db, c) = setup();
        let mut c = c.with_vacate_deadline(Duration::from_secs(120));
        db = db.with_lease_validity(Duration::from_secs(30));
        c.refresh(&mut db, Instant::ZERO).unwrap();
        let ch = c.grants()[0].channel;
        c.start_operation(&mut db, ch, 36.0, Instant::ZERO)
            .expect("granted channel accepts operation");
        let state = c.tick(Instant::from_secs(30));
        match state {
            ClientState::Vacating { deadline, .. } => {
                assert_eq!(deadline, Instant::from_secs(150));
            }
            other => panic!("expected Vacating, got {other:?}"),
        }
    }

    #[test]
    fn refresh_records_the_response_timestamp() {
        let (mut db, mut c) = setup();
        assert_eq!(c.last_response_time(), None);
        let t = Instant::from_secs(7);
        c.refresh(&mut db, t).unwrap();
        assert_eq!(c.last_response_time(), Some(t));
    }

    #[test]
    fn failed_notify_blocks_operation() {
        let (db, mut c) = setup();
        let mut inj = FaultInjector::new(db, FaultPlan::none());
        c.refresh(&mut inj, Instant::ZERO).unwrap();
        let ch = c.grants()[0].channel;
        // All requests lost from here on: the mandatory notify fails, so
        // the client may not radiate even though the grant is valid.
        inj = FaultInjector::new(
            inj.database().clone(),
            FaultPlan {
                request_loss: 1.0,
                ..FaultPlan::none()
            },
        );
        let err = c.start_operation(&mut inj, ch, 36.0, Instant::ZERO);
        assert!(
            matches!(err, Err(OperationError::NotifyFailed(_))),
            "{err:?}"
        );
        assert_eq!(c.state(), ClientState::Idle);
        assert!(!c.may_transmit(Instant::ZERO));
    }
}
