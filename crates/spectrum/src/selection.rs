//! CellFi's channel-selection component.
//!
//! Given the database's grants, the component "uses standard LTE
//! mechanisms such as network listen to find an idle channel from the
//! ones offered by the database, if such exists. If not, CellFi tries to
//! find a channel that is used by other CellFi cells (rather than other
//! non-LTE wireless technologies), as its intra-channel interference
//! mechanism allows it to gracefully share the channel between other
//! CellFi nodes" (§4.2).
//!
//! Preference order, within each class lowest observed energy first:
//! 1. idle channels;
//! 2. channels occupied by other CellFi (LTE) cells;
//! 3. channels occupied by foreign technologies — last resort only.
//!
//! The paper also has the AP "quer\[y\] for available spectrum for downlink
//! and uplink independently, and then select the best TV channel that is
//! available for both": [`ChannelSelector::choose`] takes both grant
//! lists and intersects them.
//!
//! `choose` runs once per lease renewal of every AP in a fleet, so it
//! builds no collection: it indexes the uplink grants and the listen
//! survey by channel slot (`ChannelPlan::slot`) in fixed arrays, the
//! last entry for a channel winning, and walks the downlink grants once,
//! keeping the first candidate that no later one beats strictly under
//! (class, energy by `total_cmp`, channel).

use crate::paws::SpectrumGrant;
use crate::plan::{ChannelPlan, MAX_PLAN_CHANNELS};
use cellfi_types::time::Instant;
use cellfi_types::units::{Dbm, Hertz};
use cellfi_types::ChannelId;
use std::collections::BTreeMap;

/// What network-listen heard on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OccupantKind {
    /// No secondary user detected.
    Idle,
    /// Another CellFi/LTE cell detected (PSS/SSS found).
    CellFi,
    /// Energy present but no LTE sync signals: foreign technology
    /// (e.g. 802.11af).
    Foreign,
}

/// One network-listen measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListenObservation {
    /// Channel observed.
    pub channel: ChannelId,
    /// Median received energy over the listen window.
    pub energy: Dbm,
    /// Classified occupant.
    pub occupant: OccupantKind,
}

/// The selected channel, ready to hand to the LTE stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelChoice {
    /// The TV channel.
    pub channel: ChannelId,
    /// Its centre frequency (the LTE stack derives the EARFCN from this).
    pub centre: Hertz,
    /// Granted maximum EIRP.
    pub max_eirp_dbm: f64,
    /// Grant expiry.
    pub expires: Instant,
    /// What was occupying the channel when chosen.
    pub occupant: OccupantKind,
}

/// The channel-selection component of the CellFi access point.
#[derive(Debug, Clone, Copy)]
pub struct ChannelSelector {
    plan: ChannelPlan,
}

impl ChannelSelector {
    /// Selector over a channel plan.
    pub fn new(plan: ChannelPlan) -> ChannelSelector {
        ChannelSelector { plan }
    }

    /// Choose the best channel granted for **both** directions.
    ///
    /// `downlink`/`uplink` are the database's grant lists from the two
    /// independent queries; `listen` is the network-listen survey. A
    /// channel missing from `listen` is assumed idle at the noise floor.
    /// When a channel appears more than once in `uplink` or `listen`,
    /// its last entry counts; among equally good downlink grants the
    /// first wins.
    pub fn choose(
        &self,
        downlink: &[SpectrumGrant],
        uplink: &[SpectrumGrant],
        listen: &[ListenObservation],
        now: Instant,
    ) -> Option<ChannelChoice> {
        let mut ul: [Option<&SpectrumGrant>; MAX_PLAN_CHANNELS] = [None; MAX_PLAN_CHANNELS];
        for g in uplink {
            if let Some(slot) = self.plan.slot(g.channel) {
                ul[slot] = Some(g);
            }
        }
        let mut obs: [Option<&ListenObservation>; MAX_PLAN_CHANNELS] = [None; MAX_PLAN_CHANNELS];
        for o in listen {
            if let Some(slot) = self.plan.slot(o.channel) {
                obs[slot] = Some(o);
            }
        }
        // The best candidate so far: its two grants, occupant and energy.
        let mut best: Option<(&SpectrumGrant, &SpectrumGrant, OccupantKind, f64)> = None;
        for g in downlink.iter().filter(|g| g.valid_at(now)) {
            let Some(slot) = self.plan.slot(g.channel) else {
                continue;
            };
            let Some(ul_grant) = ul[slot].filter(|u| u.valid_at(now)) else {
                continue;
            };
            let (occupant, energy) = obs[slot]
                .map_or((OccupantKind::Idle, Dbm::FLOOR.value()), |o| {
                    (o.occupant, o.energy.value())
                });
            let better = best.is_none_or(|(b, _, b_occupant, b_energy)| {
                class(occupant)
                    .cmp(&class(b_occupant))
                    .then(energy.total_cmp(&b_energy))
                    .then(g.channel.cmp(&b.channel))
                    .is_lt()
            });
            if better {
                best = Some((g, ul_grant, occupant, energy));
            }
        }
        let (g, ul_grant, occupant, _) = best?;
        Some(ChannelChoice {
            channel: g.channel,
            centre: self.plan.channel(g.channel.0)?.centre,
            max_eirp_dbm: g.max_eirp_dbm.min(ul_grant.max_eirp_dbm),
            expires: Instant::from_micros(g.expires_us.min(ul_grant.expires_us)),
            occupant,
        })
    }
}

/// Preference class of an occupant: idle first, CellFi second, foreign
/// technologies last (§4.2).
fn class(occupant: OccupantKind) -> u8 {
    match occupant {
        OccupantKind::Idle => 0,
        OccupantKind::CellFi => 1,
        OccupantKind::Foreign => 2,
    }
}

/// An aggregated selection: a run of contiguous TV channels wide enough
/// for a larger LTE carrier (§7 "Channel aggregation and power
/// optimization", left as future work in the paper and implemented here).
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateChoice {
    /// The contiguous channels, ascending.
    pub channels: Vec<ChannelId>,
    /// Centre frequency of the aggregate block.
    pub centre: Hertz,
    /// Total width of the block.
    pub width: Hertz,
    /// The binding (minimum) EIRP cap across the block.
    pub max_eirp_dbm: f64,
    /// The earliest expiry across the block.
    pub expires: Instant,
}

impl ChannelSelector {
    /// Find the best run of `n_channels` contiguous TV channels granted
    /// in **both** directions — enough spectrum for a wider LTE carrier
    /// (e.g. 2 × 6 MHz US channels fit a 10 MHz carrier). Among eligible
    /// runs, prefers the one whose worst (highest-energy, most-occupied)
    /// member is best, i.e. maximize the minimum quality.
    pub fn choose_aggregate(
        &self,
        downlink: &[SpectrumGrant],
        uplink: &[SpectrumGrant],
        listen: &[ListenObservation],
        n_channels: u32,
        now: Instant,
    ) -> Option<AggregateChoice> {
        assert!(n_channels >= 1);
        let ul: BTreeMap<ChannelId, &SpectrumGrant> =
            uplink.iter().map(|g| (g.channel, g)).collect();
        let obs: BTreeMap<ChannelId, &ListenObservation> =
            listen.iter().map(|o| (o.channel, o)).collect();
        // Channels granted in both directions, with their grants.
        let mut eligible: BTreeMap<u32, (&SpectrumGrant, &SpectrumGrant)> = BTreeMap::new();
        for g in downlink.iter().filter(|g| g.valid_at(now)) {
            if let Some(u) = ul.get(&g.channel) {
                if u.valid_at(now) && self.plan.channel(g.channel.0).is_some() {
                    eligible.insert(g.channel.0, (g, u));
                }
            }
        }
        // Score of a single channel: lower is better (class, then energy).
        let score = |n: u32| -> (u8, f64) {
            match obs.get(&ChannelId::new(n)) {
                Some(o) => (class(o.occupant), o.energy.value()),
                None => (class(OccupantKind::Idle), Dbm::FLOOR.value()),
            }
        };
        // Scan all runs of length n_channels; maximize the minimum.
        // (class, energy) scores are totally ordered via total_cmp, so no
        // NaN energy can panic the selector — it just sorts last.
        let cmp_score = |a: &(u8, f64), b: &(u8, f64)| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1));
        let nums: Vec<u32> = eligible.keys().copied().collect();
        let mut best: Option<(Vec<u32>, (u8, f64))> = None;
        for w in nums.windows(n_channels as usize) {
            let (first, last) = (w[0], w[w.len() - 1]);
            if last - first != n_channels - 1 {
                continue; // not contiguous
            }
            let worst = w
                .iter()
                .map(|&n| score(n))
                .max_by(cmp_score)
                .expect("windows() slices are non-empty");
            if best
                .as_ref()
                .is_none_or(|(_, b)| cmp_score(&worst, b) == std::cmp::Ordering::Less)
            {
                best = Some((w.to_vec(), worst));
            }
        }
        let (run, _) = best?;
        let chans: Vec<_> = run
            .iter()
            .map(|&n| self.plan.channel(n).expect("eligible implies in plan"))
            .collect();
        let first = chans.first().expect("runs are non-empty");
        let last = chans.last().expect("runs are non-empty");
        let lo_edge = first.centre.value() - first.width.value() / 2.0;
        let hi_edge = last.centre.value() + last.width.value() / 2.0;
        let mut max_eirp = f64::INFINITY;
        let mut expires = u64::MAX;
        for &n in &run {
            let (d, u) = eligible[&n];
            max_eirp = max_eirp.min(d.max_eirp_dbm.min(u.max_eirp_dbm));
            expires = expires.min(d.expires_us.min(u.expires_us));
        }
        Some(AggregateChoice {
            channels: run.into_iter().map(ChannelId::new).collect(),
            centre: Hertz((lo_edge + hi_edge) / 2.0),
            width: Hertz(hi_edge - lo_edge),
            max_eirp_dbm: max_eirp,
            expires: Instant::from_micros(expires),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The map-and-sort `choose` the one-pass scan replaced: uplink
    /// grants and the survey collected into `BTreeMap`s, every candidate
    /// built, stably sorted, the first taken. Kept as the reference the
    /// scan is checked against.
    fn reference_choose(
        plan: ChannelPlan,
        downlink: &[SpectrumGrant],
        uplink: &[SpectrumGrant],
        listen: &[ListenObservation],
        now: Instant,
    ) -> Option<ChannelChoice> {
        let ul: BTreeMap<ChannelId, &SpectrumGrant> =
            uplink.iter().map(|g| (g.channel, g)).collect();
        let obs: BTreeMap<ChannelId, &ListenObservation> =
            listen.iter().map(|o| (o.channel, o)).collect();

        let mut candidates: Vec<ChannelChoice> = downlink
            .iter()
            .filter(|g| g.valid_at(now))
            .filter_map(|g| {
                let ul_grant = ul.get(&g.channel)?;
                if !ul_grant.valid_at(now) {
                    return None;
                }
                let ch = plan.channel(g.channel.0)?;
                let occupant = obs
                    .get(&g.channel)
                    .map(|o| o.occupant)
                    .unwrap_or(OccupantKind::Idle);
                Some(ChannelChoice {
                    channel: g.channel,
                    centre: ch.centre,
                    max_eirp_dbm: g.max_eirp_dbm.min(ul_grant.max_eirp_dbm),
                    expires: Instant::from_micros(g.expires_us.min(ul_grant.expires_us)),
                    occupant,
                })
            })
            .collect();

        candidates.sort_by(|a, b| {
            let class = |c: &ChannelChoice| match c.occupant {
                OccupantKind::Idle => 0u8,
                OccupantKind::CellFi => 1,
                OccupantKind::Foreign => 2,
            };
            let energy = |c: &ChannelChoice| {
                obs.get(&c.channel)
                    .map(|o| o.energy)
                    .unwrap_or(Dbm::FLOOR)
                    .value()
            };
            class(a)
                .cmp(&class(b))
                .then(energy(a).total_cmp(&energy(b)))
                .then(a.channel.cmp(&b.channel))
        });
        candidates.into_iter().next()
    }

    /// Selector inputs drawn from `seed`: channels from a narrow window
    /// at either end of the plan (so duplicates are common and some lie
    /// outside it), grants that expire 1 µs before, at or after `now`,
    /// uplink lists that differ from the downlink list in membership,
    /// caps and order, and surveys with duplicate channels, tied, NaN
    /// and infinite energies and every occupant kind.
    #[allow(clippy::type_complexity)]
    fn selector_scenario(
        seed: u64,
    ) -> (
        ChannelPlan,
        Vec<SpectrumGrant>,
        Vec<SpectrumGrant>,
        Vec<ListenObservation>,
        Instant,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = if rng.gen_bool(0.5) {
            ChannelPlan::Eu
        } else {
            ChannelPlan::Us
        };
        let (lo, hi) = plan.channel_range();
        let window = if rng.gen_bool(0.5) {
            lo - 2..=lo + 5
        } else {
            hi - 5..=hi + 2
        };
        let now_us = rng.gen_range(1_000_000u64..2_000_000);
        let grant = |rng: &mut StdRng| SpectrumGrant {
            channel: ChannelId::new(rng.gen_range(window.clone())),
            max_eirp_dbm: [20.0, 23.0, 30.0, 36.0][rng.gen_range(0..4usize)],
            expires_us: match rng.gen_range(0..5) {
                0 => now_us - 1,
                1 => now_us,
                2 => now_us + 1,
                _ => now_us + rng.gen_range(2..10_000_000u64),
            },
        };
        let downlink: Vec<SpectrumGrant> =
            (0..rng.gen_range(0..10)).map(|_| grant(&mut rng)).collect();
        let mut uplink = Vec::new();
        for &g in &downlink {
            if rng.gen_bool(0.7) {
                uplink.push(if rng.gen_bool(0.3) {
                    grant(&mut rng)
                } else {
                    g
                });
            }
        }
        for _ in 0..rng.gen_range(0..4) {
            uplink.push(grant(&mut rng));
        }
        uplink.shuffle(&mut rng);
        let energies = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -95.0,
            -92.0,
            Dbm::FLOOR.value(),
        ];
        let occupants = [
            OccupantKind::Idle,
            OccupantKind::CellFi,
            OccupantKind::Foreign,
        ];
        let listen = (0..rng.gen_range(0..10))
            .map(|_| ListenObservation {
                channel: ChannelId::new(rng.gen_range(window.clone())),
                energy: Dbm(if rng.gen_bool(0.7) {
                    energies[rng.gen_range(0..energies.len())]
                } else {
                    rng.gen_range(-120.0..-40.0)
                }),
                occupant: occupants[rng.gen_range(0..occupants.len())],
            })
            .collect();
        (plan, downlink, uplink, listen, Instant::from_micros(now_us))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        /// The one-pass scan picks exactly what the map-and-sort
        /// selector picked, for split grant lists and for the one list
        /// a lifecycle passes twice.
        #[test]
        fn choose_matches_the_map_and_sort_reference(seed in any::<u64>()) {
            let (plan, downlink, uplink, listen, now) = selector_scenario(seed);
            let selector = ChannelSelector::new(plan);
            prop_assert_eq!(
                selector.choose(&downlink, &uplink, &listen, now),
                reference_choose(plan, &downlink, &uplink, &listen, now)
            );
            prop_assert_eq!(
                selector.choose(&downlink, &downlink, &listen, now),
                reference_choose(plan, &downlink, &downlink, &listen, now)
            );
        }
    }

    fn grant(ch: u32) -> SpectrumGrant {
        SpectrumGrant {
            channel: ChannelId::new(ch),
            max_eirp_dbm: 36.0,
            expires_us: Instant::from_secs(3600).as_micros(),
        }
    }

    fn obs(ch: u32, energy: f64, occupant: OccupantKind) -> ListenObservation {
        ListenObservation {
            channel: ChannelId::new(ch),
            energy: Dbm(energy),
            occupant,
        }
    }

    fn sel() -> ChannelSelector {
        ChannelSelector::new(ChannelPlan::Eu)
    }

    #[test]
    fn prefers_idle_over_occupied() {
        let dl = [grant(30), grant(31)];
        let ul = [grant(30), grant(31)];
        let listen = [
            obs(30, -60.0, OccupantKind::CellFi),
            obs(31, -95.0, OccupantKind::Idle),
        ];
        let c = sel().choose(&dl, &ul, &listen, Instant::ZERO).unwrap();
        assert_eq!(c.channel, ChannelId::new(31));
        assert_eq!(c.occupant, OccupantKind::Idle);
    }

    #[test]
    fn prefers_cellfi_over_foreign_when_no_idle() {
        // §4.2: share with other CellFi cells rather than 802.11af.
        let dl = [grant(30), grant(31)];
        let ul = [grant(30), grant(31)];
        let listen = [
            obs(30, -70.0, OccupantKind::Foreign),
            obs(31, -60.0, OccupantKind::CellFi), // stronger, still preferred
        ];
        let c = sel().choose(&dl, &ul, &listen, Instant::ZERO).unwrap();
        assert_eq!(c.channel, ChannelId::new(31));
    }

    #[test]
    fn lowest_energy_wins_within_class() {
        let dl = [grant(30), grant(31), grant(32)];
        let ul = [grant(30), grant(31), grant(32)];
        let listen = [
            obs(30, -80.0, OccupantKind::CellFi),
            obs(31, -90.0, OccupantKind::CellFi),
            obs(32, -70.0, OccupantKind::CellFi),
        ];
        let c = sel().choose(&dl, &ul, &listen, Instant::ZERO).unwrap();
        assert_eq!(c.channel, ChannelId::new(31));
    }

    #[test]
    fn requires_grant_in_both_directions() {
        let dl = [grant(30), grant(31)];
        let ul = [grant(31)];
        let c = sel().choose(&dl, &ul, &[], Instant::ZERO).unwrap();
        assert_eq!(c.channel, ChannelId::new(31));
    }

    #[test]
    fn unlistened_channel_assumed_idle() {
        let dl = [grant(30), grant(31)];
        let ul = [grant(30), grant(31)];
        let listen = [obs(30, -60.0, OccupantKind::CellFi)];
        let c = sel().choose(&dl, &ul, &listen, Instant::ZERO).unwrap();
        assert_eq!(c.channel, ChannelId::new(31));
    }

    #[test]
    fn no_grants_no_choice() {
        assert!(sel().choose(&[], &[], &[], Instant::ZERO).is_none());
        let dl = [grant(30)];
        assert!(sel().choose(&dl, &[], &[], Instant::ZERO).is_none());
    }

    #[test]
    fn expired_grants_ignored() {
        let mut g = grant(30);
        g.expires_us = 10;
        let c = sel().choose(&[g], &[g], &[], Instant::from_secs(1));
        assert!(c.is_none());
    }

    #[test]
    fn choice_carries_centre_frequency_and_caps() {
        let mut ul_grant = grant(38);
        ul_grant.max_eirp_dbm = 30.0; // tighter uplink cap wins
        let c = sel()
            .choose(&[grant(38)], &[ul_grant], &[], Instant::ZERO)
            .unwrap();
        assert!((c.centre.mhz() - 610.0).abs() < 1e-9);
        assert!((c.max_eirp_dbm - 30.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_finds_contiguous_run() {
        // Grants for 30,31,33,34,35: the only 3-run is 33-35.
        let chans = [30u32, 31, 33, 34, 35];
        let dl: Vec<_> = chans.iter().map(|&c| grant(c)).collect();
        let a = sel()
            .choose_aggregate(&dl, &dl, &[], 3, Instant::ZERO)
            .unwrap();
        assert_eq!(
            a.channels,
            vec![ChannelId::new(33), ChannelId::new(34), ChannelId::new(35)]
        );
        // EU channels are 8 MHz: 3 contiguous = 24 MHz centred on ch34.
        assert!((a.width.mhz() - 24.0).abs() < 1e-9);
        let ch34_centre = ChannelPlan::Eu.channel(34).unwrap().centre;
        assert!((a.centre.value() - ch34_centre.value()).abs() < 1e-6);
    }

    #[test]
    fn aggregate_prefers_cleanest_run() {
        let chans = [30u32, 31, 32, 40, 41, 42];
        let dl: Vec<_> = chans.iter().map(|&c| grant(c)).collect();
        // 30-32 contains a foreign occupant; 40-42 is clean.
        let listen = [obs(31, -60.0, OccupantKind::Foreign)];
        let a = sel()
            .choose_aggregate(&dl, &dl, &listen, 3, Instant::ZERO)
            .unwrap();
        assert_eq!(a.channels[0], ChannelId::new(40));
    }

    #[test]
    fn aggregate_none_when_no_run_exists() {
        let chans = [30u32, 32, 34, 36];
        let dl: Vec<_> = chans.iter().map(|&c| grant(c)).collect();
        assert!(sel()
            .choose_aggregate(&dl, &dl, &[], 2, Instant::ZERO)
            .is_none());
    }

    #[test]
    fn aggregate_carries_binding_caps() {
        let mut dl = vec![grant(30), grant(31)];
        dl[1].max_eirp_dbm = 30.0;
        let mut ul = dl.clone();
        ul[0].expires_us = 1_000;
        let a = sel()
            .choose_aggregate(&dl, &ul, &[], 2, Instant::ZERO)
            .unwrap();
        assert!((a.max_eirp_dbm - 30.0).abs() < 1e-9);
        assert_eq!(a.expires, Instant::from_micros(1_000));
    }

    #[test]
    fn aggregate_of_one_matches_eligibility() {
        let dl = [grant(38)];
        let a = sel()
            .choose_aggregate(&dl, &dl, &[], 1, Instant::ZERO)
            .unwrap();
        assert_eq!(a.channels, vec![ChannelId::new(38)]);
        assert!((a.width.mhz() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn foreign_is_last_resort_but_still_usable() {
        let dl = [grant(30)];
        let ul = [grant(30)];
        let listen = [obs(30, -55.0, OccupantKind::Foreign)];
        let c = sel().choose(&dl, &ul, &listen, Instant::ZERO).unwrap();
        assert_eq!(c.occupant, OccupantKind::Foreign);
    }
}
