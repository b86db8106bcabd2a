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

use crate::incumbent::Incumbent;
use crate::paws::{
    AvailSpectrumReq, AvailSpectrumResp, InitReq, InitResp, SpectrumGrant, SpectrumUseNotify,
};
use crate::plan::ChannelPlan;
use cellfi_types::geo::Point;
use cellfi_types::time::{Duration, Instant};
use cellfi_types::ChannelId;
use std::collections::{BTreeMap, BTreeSet};

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
    /// Log of use notifications received (audit trail).
    notifications: Vec<SpectrumUseNotify>,
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
            notifications: Vec::new(),
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
        match self.withdrawn.get(&channel) {
            Some(None) => true,
            Some(Some(until)) => now < *until,
            None => false,
        }
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
        let mut granted: BTreeSet<ChannelId> = self
            .available_channels(centre, now)
            .iter()
            .map(|a| a.channel)
            .collect();
        for p in &probes[1..] {
            let here: BTreeSet<ChannelId> = self
                .available_channels(*p, now)
                .iter()
                .map(|a| a.channel)
                .collect();
            granted = granted.intersection(&here).copied().collect();
        }
        let expires = now + self.lease_validity;
        AvailSpectrumResp {
            grants: granted
                .into_iter()
                .map(|channel| SpectrumGrant {
                    channel,
                    max_eirp_dbm: self.max_eirp_dbm,
                    expires_us: expires.as_micros(),
                })
                .collect(),
            response_time_us: now.as_micros(),
        }
    }

    /// Accept a `SPECTRUM_USE_NOTIFY` (logged for audit).
    pub fn notify_use(&mut self, notify: SpectrumUseNotify) {
        self.notifications.push(notify);
    }

    /// Audit trail of use notifications.
    pub fn notifications(&self) -> &[SpectrumUseNotify] {
        &self.notifications
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paws::{DeviceDescriptor, GeoLocation};

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
    fn notifications_are_logged() {
        let mut d = db();
        d.notify_use(SpectrumUseNotify {
            device: DeviceDescriptor::master_with_clients("ap", 2),
            channel: ChannelId::new(38),
            eirp_dbm: 36.0,
        });
        assert_eq!(d.notifications().len(), 1);
        assert_eq!(d.notifications()[0].channel, ChannelId::new(38));
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
