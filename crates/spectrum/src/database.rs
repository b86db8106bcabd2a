//! The TVWS spectrum database server.
//!
//! Plays the role of the certified Nominet database the paper tested
//! against (§6.1, §6.2): evaluates incumbent protection at the query
//! location/time, answers with per-channel grants (max EIRP + lease
//! expiry), and supports operator-side withdrawal of a channel — the
//! lever the Fig 6 experiment pulls ("at 57 sec channel is removed from
//! the DB for 5 min").
//!
//! The database protects *incumbents only*: "the TV white space database
//! is used only to protect incumbents ... and not to coordinate spectrum
//! among secondary, TV white space devices" (§4.2). Coordination between
//! CellFi cells is deliberately not its job.
//!
//! A query is answered from bit masks, not channel collections: the
//! availability at one point is a `u64` whose bit `i` is the plan's
//! channel in slot `i` (`ChannelPlan::slot`), built in one pass over
//! the withdrawals and one over the incumbents. A PAWS request ANDs the
//! masks of its five probe points and emits the grants from the set
//! bits, lowest channel first. [`SpectrumDatabase::is_available`] stays
//! the per-channel predicate every mask bit equals.

use crate::incumbent::Incumbent;
use crate::paws::{
    AvailSpectrumReq, AvailSpectrumResp, InitReq, InitResp, SpectrumGrant, SpectrumUseNotify,
};
use crate::plan::{ChannelPlan, MAX_PLAN_CHANNELS};
use cellfi_types::geo::Point;
use cellfi_types::time::{Duration, Instant};
use cellfi_types::ChannelId;
use std::collections::BTreeMap;

/// Availability of one channel at a location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelAvailability {
    /// The channel.
    pub channel: ChannelId,
    /// Maximum EIRP permitted (ETSI power classes; 36 dBm for a fixed
    /// master with the paper's antenna).
    pub max_eirp_dbm: f64,
    /// Grant expiry.
    pub expires: Instant,
}

/// The database server.
#[derive(Debug, Clone)]
pub struct SpectrumDatabase {
    plan: ChannelPlan,
    incumbents: Vec<Incumbent>,
    /// Channels withdrawn by the operator until the given instant
    /// (`None` = indefinitely).
    withdrawn: BTreeMap<ChannelId, Option<Instant>>,
    /// Default lease validity handed out with each grant.
    lease_validity: Duration,
    /// Max EIRP for fixed master devices (ETSI class).
    max_eirp_dbm: f64,
    /// Longest time a client may cache an availability answer.
    max_polling_secs: u64,
    /// Ruleset identifier advertised in `INIT_RESP`.
    ruleset_id: &'static str,
    /// Use notifications received so far.
    notification_count: u64,
    /// The most recent use notification. Only the latest is kept: a
    /// fleet sends hundreds of thousands, and a full log would dominate
    /// its memory.
    last_notification: Option<SpectrumUseNotify>,
}

impl SpectrumDatabase {
    /// A database over `plan` with the given incumbents. Lease validity
    /// defaults to 2 hours — the paper observes "the granularity of
    /// channel availability is expected to be in hours and days" (§6.2).
    pub fn new(plan: ChannelPlan, incumbents: Vec<Incumbent>) -> SpectrumDatabase {
        SpectrumDatabase {
            plan,
            incumbents,
            withdrawn: BTreeMap::new(),
            lease_validity: Duration::from_secs(2 * 3600),
            max_eirp_dbm: 36.0,
            max_polling_secs: 900,
            ruleset_id: "ETSI-EN-301-598-1.1.1",
            notification_count: 0,
            last_notification: None,
        }
    }

    /// Override the maximum client polling interval (seconds).
    pub fn with_max_polling(mut self, secs: u64) -> SpectrumDatabase {
        self.max_polling_secs = secs;
        self
    }

    /// Adopt a regulatory rule profile wholesale: lease validity, EIRP
    /// cap, polling cadence and the advertised ruleset identifier all
    /// come from `profile`. The historical defaults equal
    /// [`RuleProfile::etsi`](crate::profile::RuleProfile::etsi), so
    /// `with_profile(&RuleProfile::etsi())` is a no-op.
    pub fn with_profile(mut self, profile: &crate::profile::RuleProfile) -> SpectrumDatabase {
        self.lease_validity = profile.lease_validity;
        self.max_eirp_dbm = profile.max_eirp_dbm;
        self.max_polling_secs = profile.max_polling_secs;
        self.ruleset_id = profile.ruleset_id;
        self
    }

    /// Serve a PAWS `INIT_REQ`.
    pub fn init(&self, _req: &InitReq) -> InitResp {
        InitResp {
            max_polling_secs: self.max_polling_secs,
            ruleset: self.ruleset_id.to_owned(),
        }
    }

    /// Override the lease validity.
    pub fn with_lease_validity(mut self, validity: Duration) -> SpectrumDatabase {
        self.lease_validity = validity;
        self
    }

    /// The channel plan served.
    pub fn plan(&self) -> ChannelPlan {
        self.plan
    }

    /// Operator withdraws `channel` until `until` (`None` = forever).
    /// Models the Fig 6 "channel removed from the DB" event.
    pub fn withdraw_channel(&mut self, channel: ChannelId, until: Option<Instant>) {
        self.withdrawn.insert(channel, until);
    }

    /// Operator reinstates a withdrawn channel immediately.
    pub fn reinstate_channel(&mut self, channel: ChannelId) {
        self.withdrawn.remove(&channel);
    }

    /// Register a new incumbent at runtime (e.g. a mic event being
    /// licensed for tonight).
    pub fn add_incumbent(&mut self, incumbent: Incumbent) {
        self.incumbents.push(incumbent);
    }

    fn channel_withdrawn(&self, channel: ChannelId, now: Instant) -> bool {
        self.withdrawn
            .get(&channel)
            .is_some_and(|&until| withdrawal_active(until, now))
    }

    /// Whether `channel` is available to a secondary at `location`/`now`.
    pub fn is_available(&self, channel: ChannelId, location: Point, now: Instant) -> bool {
        self.plan.channel(channel.0).is_some()
            && !self.channel_withdrawn(channel, now)
            && !self
                .incumbents
                .iter()
                .any(|i| i.channel() == channel && i.blocks(location, now))
    }

    /// All channels available at `location`/`now`, ascending by number.
    pub fn available_channels(&self, location: Point, now: Instant) -> Vec<ChannelAvailability> {
        let expires = now + self.lease_validity;
        self.plan
            .channels()
            .iter()
            .filter(|ch| self.is_available(ch.id, location, now))
            .map(|ch| ChannelAvailability {
                channel: ch.id,
                max_eirp_dbm: self.max_eirp_dbm,
                expires,
            })
            .collect()
    }

    /// Availability of every plan channel at `location`/`now` as a mask:
    /// bit `i` is set iff the channel in slot `i` is available, i.e. iff
    /// [`SpectrumDatabase::is_available`] holds for it.
    fn available_mask(&self, location: Point, now: Instant) -> u64 {
        let mut mask = u64::MAX >> (MAX_PLAN_CHANNELS - self.plan.len());
        for (&channel, &until) in &self.withdrawn {
            if let Some(slot) = self.plan.slot(channel) {
                if withdrawal_active(until, now) {
                    mask &= !(1 << slot);
                }
            }
        }
        for incumbent in &self.incumbents {
            if let Some(slot) = self.plan.slot(incumbent.channel()) {
                if incumbent.blocks(location, now) {
                    mask &= !(1 << slot);
                }
            }
        }
        mask
    }

    /// Serve a PAWS `AVAIL_SPECTRUM_REQ`. The location's uncertainty is
    /// honoured conservatively: a channel is granted only if available at
    /// the reported point *and* at the four cardinal extremes of the
    /// uncertainty circle.
    pub fn avail_spectrum(&self, req: &AvailSpectrumReq) -> AvailSpectrumResp {
        let now = Instant::from_micros(req.request_time_us);
        let centre = req.location.point();
        let u = req.location.uncertainty;
        let probes = [
            centre,
            Point::new(centre.x + u, centre.y),
            Point::new(centre.x - u, centre.y),
            Point::new(centre.x, centre.y + u),
            Point::new(centre.x, centre.y - u),
        ];
        let mut granted = probes
            .iter()
            .fold(u64::MAX, |mask, &p| mask & self.available_mask(p, now));
        let (lo, _) = self.plan.channel_range();
        let expires_us = (now + self.lease_validity).as_micros();
        let mut grants = Vec::with_capacity(granted.count_ones() as usize);
        while granted != 0 {
            grants.push(SpectrumGrant {
                channel: ChannelId::new(lo + granted.trailing_zeros()),
                max_eirp_dbm: self.max_eirp_dbm,
                expires_us,
            });
            granted &= granted - 1;
        }
        AvailSpectrumResp {
            grants,
            response_time_us: now.as_micros(),
        }
    }

    /// Accept a `SPECTRUM_USE_NOTIFY`: counted, and kept as the latest.
    pub fn notify_use(&mut self, notify: SpectrumUseNotify) {
        self.notification_count += 1;
        self.last_notification = Some(notify);
    }

    /// Use notifications received so far.
    pub fn notification_count(&self) -> u64 {
        self.notification_count
    }

    /// The most recent use notification, if any.
    pub fn last_notification(&self) -> Option<&SpectrumUseNotify> {
        self.last_notification.as_ref()
    }
}

/// Whether a withdrawal lasting until `until` (`None` = indefinitely)
/// is in force at `now`. The end is exclusive: the channel is available
/// again at `until`.
fn withdrawal_active(until: Option<Instant>, now: Instant) -> bool {
    until.is_none_or(|until| now < until)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paws::{DeviceDescriptor, GeoLocation};
    use crate::profile::RuleProfile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The per-probe channel-set `avail_spectrum` the masks replaced:
    /// five available-channel lists, intersected as `BTreeSet`s. Kept as
    /// the reference the mask path is checked against.
    fn reference_avail_spectrum(
        db: &SpectrumDatabase,
        req: &AvailSpectrumReq,
    ) -> AvailSpectrumResp {
        let now = Instant::from_micros(req.request_time_us);
        let centre = req.location.point();
        let u = req.location.uncertainty;
        let probes = [
            centre,
            Point::new(centre.x + u, centre.y),
            Point::new(centre.x - u, centre.y),
            Point::new(centre.x, centre.y + u),
            Point::new(centre.x, centre.y - u),
        ];
        let mut granted: BTreeSet<ChannelId> = db
            .available_channels(centre, now)
            .iter()
            .map(|a| a.channel)
            .collect();
        for p in &probes[1..] {
            let here: BTreeSet<ChannelId> = db
                .available_channels(*p, now)
                .iter()
                .map(|a| a.channel)
                .collect();
            granted = granted.intersection(&here).copied().collect();
        }
        let expires = now + db.lease_validity;
        AvailSpectrumResp {
            grants: granted
                .into_iter()
                .map(|channel| SpectrumGrant {
                    channel,
                    max_eirp_dbm: db.max_eirp_dbm,
                    expires_us: expires.as_micros(),
                })
                .collect(),
            response_time_us: now.as_micros(),
        }
    }

    /// A database and a request drawn from `seed`, built to sit on the
    /// edges the masks must get right: incumbents whose protection
    /// radius ends exactly at (or 1 m either side of) one probe point,
    /// mic events and withdrawals that start or end at the query
    /// instant or 1 µs either side, channels just outside the plan, and
    /// uncertainty from 0 to 10 km. Every coordinate is a whole number
    /// of metres, so each distance is exact.
    fn edge_scenario(seed: u64) -> (SpectrumDatabase, AvailSpectrumReq) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = if rng.gen_bool(0.5) {
            ChannelPlan::Eu
        } else {
            ChannelPlan::Us
        };
        let (lo, hi) = plan.channel_range();
        let now_us = rng.gen_range(10_000_000u64..20_000_000);
        let near_now = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => now_us - 1,
            1 => now_us,
            2 => now_us + 1,
            _ => rng.gen_range(0..2 * now_us),
        };
        let centre = Point::new(
            f64::from(rng.gen_range(-20_000i32..20_000)),
            f64::from(rng.gen_range(-20_000i32..20_000)),
        );
        let u = if rng.gen_bool(0.2) {
            0.0
        } else {
            f64::from(rng.gen_range(0u32..=10_000))
        };
        let probes = [
            centre,
            Point::new(centre.x + u, centre.y),
            Point::new(centre.x - u, centre.y),
            Point::new(centre.x, centre.y + u),
            Point::new(centre.x, centre.y - u),
        ];
        let mut incumbents = Vec::new();
        for _ in 0..rng.gen_range(0..12) {
            let channel = ChannelId::new(rng.gen_range(lo - 2..=hi + 2));
            let radius = rng.gen_range(0u32..5_000);
            let reach = f64::from(radius) + f64::from(rng.gen_range(-1i32..=1));
            let probe = probes[rng.gen_range(0..probes.len())];
            let location = match rng.gen_range(0..5) {
                0 => Point::new(probe.x + reach, probe.y),
                1 => Point::new(probe.x - reach, probe.y),
                2 => Point::new(probe.x, probe.y + reach),
                3 => Point::new(probe.x, probe.y - reach),
                _ => Point::new(
                    centre.x + f64::from(rng.gen_range(-15_000i32..15_000)),
                    centre.y + f64::from(rng.gen_range(-15_000i32..15_000)),
                ),
            };
            let protected_radius = f64::from(radius);
            incumbents.push(if rng.gen_bool(0.5) {
                Incumbent::TvStation {
                    channel,
                    location,
                    protected_radius,
                }
            } else {
                let events = (0..rng.gen_range(1..3))
                    .map(|_| {
                        let (a, b) = (near_now(&mut rng), near_now(&mut rng));
                        (
                            Instant::from_micros(a.min(b)),
                            Instant::from_micros(a.max(b)),
                        )
                    })
                    .collect();
                Incumbent::WirelessMic {
                    channel,
                    location,
                    protected_radius,
                    events,
                }
            });
        }
        let mut db = SpectrumDatabase::new(plan, incumbents);
        if rng.gen_bool(0.5) {
            db = db.with_profile(&RuleProfile::fcc());
        }
        for _ in 0..rng.gen_range(0..6) {
            let channel = ChannelId::new(rng.gen_range(lo - 2..=hi + 2));
            let until = if rng.gen_bool(0.25) {
                None
            } else {
                Some(Instant::from_micros(near_now(&mut rng)))
            };
            db.withdraw_channel(channel, until);
        }
        let req = AvailSpectrumReq {
            device: DeviceDescriptor::master_with_clients("prop-ap", 4),
            location: GeoLocation {
                x: centre.x,
                y: centre.y,
                uncertainty: u,
            },
            request_time_us: now_us,
        };
        (db, req)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The mask path grants exactly what the per-probe channel sets
        /// granted, at the edge instant and 1 µs either side of it.
        #[test]
        fn avail_spectrum_matches_the_channel_set_reference(seed in any::<u64>()) {
            let (db, req) = edge_scenario(seed);
            for request_time_us in [req.request_time_us - 1, req.request_time_us, req.request_time_us + 1] {
                let req = AvailSpectrumReq { request_time_us, ..req.clone() };
                prop_assert_eq!(db.avail_spectrum(&req), reference_avail_spectrum(&db, &req));
            }
        }
    }

    fn db() -> SpectrumDatabase {
        let incumbents = vec![
            Incumbent::TvStation {
                channel: ChannelId::new(30),
                location: Point::new(0.0, 0.0),
                protected_radius: 5_000.0,
            },
            Incumbent::WirelessMic {
                channel: ChannelId::new(40),
                location: Point::new(0.0, 0.0),
                protected_radius: 2_000.0,
                events: vec![(Instant::from_secs(100), Instant::from_secs(400))],
            },
        ];
        SpectrumDatabase::new(ChannelPlan::Eu, incumbents)
    }

    #[test]
    fn tv_channel_blocked_near_transmitter() {
        let d = db();
        let near = Point::new(1_000.0, 0.0);
        assert!(!d.is_available(ChannelId::new(30), near, Instant::ZERO));
        let far = Point::new(50_000.0, 0.0);
        assert!(d.is_available(ChannelId::new(30), far, Instant::ZERO));
    }

    #[test]
    fn mic_channel_blocked_only_during_event() {
        let d = db();
        let p = Point::new(500.0, 0.0);
        let ch = ChannelId::new(40);
        assert!(d.is_available(ch, p, Instant::from_secs(50)));
        assert!(!d.is_available(ch, p, Instant::from_secs(150)));
        assert!(d.is_available(ch, p, Instant::from_secs(450)));
    }

    #[test]
    fn available_list_excludes_blocked() {
        let d = db();
        let p = Point::new(1_000.0, 0.0);
        let avail = d.available_channels(p, Instant::from_secs(150));
        let ids: Vec<u32> = avail.iter().map(|a| a.channel.0).collect();
        assert!(!ids.contains(&30));
        assert!(!ids.contains(&40));
        assert_eq!(ids.len(), ChannelPlan::Eu.len() - 2);
    }

    #[test]
    fn withdrawal_and_reinstatement() {
        // The Fig 6 script: withdraw for 5 minutes, availability follows.
        let mut d = db();
        let ch = ChannelId::new(38);
        let p = Point::new(100_000.0, 0.0);
        assert!(d.is_available(ch, p, Instant::from_secs(56)));
        d.withdraw_channel(ch, Some(Instant::from_secs(57 + 300)));
        assert!(!d.is_available(ch, p, Instant::from_secs(60)));
        assert!(d.is_available(ch, p, Instant::from_secs(360)));
        d.withdraw_channel(ch, None);
        assert!(!d.is_available(ch, p, Instant::from_secs(10_000)));
        d.reinstate_channel(ch);
        assert!(d.is_available(ch, p, Instant::from_secs(10_000)));
    }

    #[test]
    fn withdrawal_ends_exclusively_at_its_instant() {
        let mut d = db();
        let ch = ChannelId::new(38);
        let until = Instant::from_secs(357);
        d.withdraw_channel(ch, Some(until));
        let granted = |d: &SpectrumDatabase, at: Instant| {
            let req = AvailSpectrumReq {
                device: DeviceDescriptor::master_with_clients("ap", 1),
                location: GeoLocation::gps(Point::new(100_000.0, 0.0)),
                request_time_us: at.as_micros(),
            };
            d.avail_spectrum(&req)
                .grants
                .iter()
                .any(|g| g.channel == ch)
        };
        let before = until - Duration::from_micros(1);
        assert!(!granted(&d, before));
        assert!(granted(&d, until), "available again at the end instant");
    }

    #[test]
    fn grants_carry_lease_expiry() {
        let d = db().with_lease_validity(Duration::from_secs(600));
        let p = Point::new(100_000.0, 0.0);
        let avail = d.available_channels(p, Instant::from_secs(100));
        assert!(avail.iter().all(|a| a.expires == Instant::from_secs(700)));
        assert!(avail.iter().all(|a| (a.max_eirp_dbm - 36.0).abs() < 1e-9));
    }

    #[test]
    fn paws_request_respects_uncertainty() {
        // AP far from the TV contour but with uncertainty that reaches
        // into it: channel 30 must not be granted.
        let d = db();
        let req = AvailSpectrumReq {
            device: DeviceDescriptor::master_with_clients("ap", 5),
            location: GeoLocation {
                x: 5_500.0,
                y: 0.0,
                uncertainty: 1_000.0,
            },
            request_time_us: 0,
        };
        let resp = d.avail_spectrum(&req);
        assert!(resp.grants.iter().all(|g| g.channel != ChannelId::new(30)));
        // A pinpoint query at the same spot does grant channel 30.
        let pin = AvailSpectrumReq {
            location: GeoLocation {
                uncertainty: 0.0,
                ..req.location
            },
            ..req
        };
        let resp = d.avail_spectrum(&pin);
        assert!(resp.grants.iter().any(|g| g.channel == ChannelId::new(30)));
    }

    #[test]
    fn notifications_are_counted_and_the_latest_kept() {
        let mut d = db();
        assert_eq!(d.notification_count(), 0);
        assert!(d.last_notification().is_none());
        for channel in [38, 41] {
            d.notify_use(SpectrumUseNotify {
                device: DeviceDescriptor::master_with_clients("ap", 2),
                channel: ChannelId::new(channel),
                eirp_dbm: 36.0,
            });
        }
        assert_eq!(d.notification_count(), 2);
        let last = d.last_notification().expect("two notifications sent");
        assert_eq!(last.channel, ChannelId::new(41));
        assert_eq!(last.device.serial, "ap");
    }

    #[test]
    fn profile_swaps_ruleset_timing_and_eirp() {
        use crate::profile::RuleProfile;
        let d = db().with_profile(&RuleProfile::fcc());
        let req = InitReq {
            device: DeviceDescriptor::master_with_clients("ap", 1),
            location: GeoLocation::gps(Point::ORIGIN),
        };
        let init = d.init(&req);
        assert_eq!(init.ruleset, "FCC-Part15-SubpartH-2019");
        assert_eq!(init.max_polling_secs, 86_400);
        let p = Point::new(100_000.0, 0.0);
        let avail = d.available_channels(p, Instant::from_secs(0));
        assert!(avail.iter().all(|a| (a.max_eirp_dbm - 30.0).abs() < 1e-9));
        assert!(avail
            .iter()
            .all(|a| a.expires == Instant::from_secs(24 * 3600)));
        // The ETSI profile reproduces the historical defaults exactly.
        let etsi = db().with_profile(&RuleProfile::etsi());
        let init = etsi.init(&req);
        assert_eq!(init.ruleset, "ETSI-EN-301-598-1.1.1");
        assert_eq!(init.max_polling_secs, 900);
    }

    #[test]
    fn out_of_plan_channel_never_available() {
        let d = db();
        assert!(!d.is_available(ChannelId::new(99), Point::ORIGIN, Instant::ZERO));
    }

    #[test]
    fn runtime_incumbent_registration() {
        let mut d = db();
        let p = Point::new(100_000.0, 0.0);
        let ch = ChannelId::new(50);
        assert!(d.is_available(ch, p, Instant::from_secs(10)));
        d.add_incumbent(Incumbent::WirelessMic {
            channel: ch,
            location: p,
            protected_radius: 500.0,
            events: vec![(Instant::ZERO, Instant::from_secs(100))],
        });
        assert!(!d.is_available(ch, p, Instant::from_secs(10)));
    }
}
