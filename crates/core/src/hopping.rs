//! Distributed subchannel selection: the hopping procedure (§5.3, Fig 4).
//!
//! ```text
//! function Hopping(AP i)
//!     C_j ← S_i subchannels, picked randomly
//!     for each subchannel k:  b_ik ← exp(λ)
//!     for each phase:
//!         for each occupied subchannel k:
//!             if b_ik = 0:
//!                 k' ← subchannel with maximum utility
//!                 swap k with k'
//! ```
//!
//! [`Hopper`] owns the per-AP state: the occupied subchannel set with its
//! exponential buckets. The caller (the interference manager) supplies a
//! *utility* function — "the sum of throughput achievable (as estimated
//! from the CQI reading) by all the clients scheduled over the previous
//! subchannel in the recent past scaled by the fraction of time that
//! client was scheduled" — and the per-epoch feedback that drains
//! buckets.

use crate::bucket::Bucket;
use cellfi_types::SubchannelId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Per-client observation on one occupied subchannel over the last epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientObservation {
    /// Fraction of epoch time the client was scheduled on the subchannel.
    pub frac_scheduled: f64,
    /// Whether the client observed the subchannel as bad (interference
    /// detector verdict).
    pub bad: bool,
}

/// Epoch feedback for one occupied subchannel.
#[derive(Debug, Clone)]
pub struct SubchannelFeedback {
    /// The subchannel.
    pub subchannel: SubchannelId,
    /// Observations from clients that were scheduled on it.
    pub clients: Vec<ClientObservation>,
}

/// A hop taken during an epoch, with the utilities that drove it —
/// recorded so convergence traces can show *why* the hopper moved, not
/// just where.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// Subchannel given up.
    pub from: SubchannelId,
    /// Subchannel acquired instead.
    pub to: SubchannelId,
    /// Utility of the drained subchannel at hop time.
    pub from_utility: f64,
    /// Utility of the acquired subchannel (the maximum over unowned
    /// candidates, ties broken randomly).
    pub to_utility: f64,
}

/// The hopping state of one access point.
#[derive(Debug, Clone)]
pub struct Hopper {
    n_subchannels: u32,
    lambda: f64,
    owned: BTreeMap<SubchannelId, Bucket>,
    rng: StdRng,
    /// Cumulative hop count (convergence diagnostics, §6.3.4).
    pub total_hops: u64,
}

impl Hopper {
    /// New hopper over `n_subchannels` with bucket mean `lambda`.
    pub fn new(n_subchannels: u32, lambda: f64, seed: u64) -> Hopper {
        assert!(n_subchannels > 0, "need at least one subchannel");
        Hopper {
            n_subchannels,
            lambda,
            owned: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            total_hops: 0,
        }
    }

    /// Occupied subchannels, ascending.
    pub fn owned(&self) -> Vec<SubchannelId> {
        self.owned.keys().copied().collect()
    }

    /// Number of occupied subchannels.
    pub fn owned_count(&self) -> u32 {
        self.owned.len() as u32
    }

    /// Scheduler mask: `mask[s]` is true when subchannel `s` is occupied.
    pub fn mask(&self) -> Vec<bool> {
        let mut m = vec![false; self.n_subchannels as usize];
        for s in self.owned.keys() {
            m[s.index()] = true;
        }
        m
    }

    fn unowned(&self) -> Vec<SubchannelId> {
        (0..self.n_subchannels)
            .map(SubchannelId::new)
            .filter(|s| !self.owned.contains_key(s))
            .collect()
    }

    /// Pick the unowned subchannel with maximum utility; ties broken
    /// uniformly at random (the randomization that breaks AP symmetry).
    fn best_unowned(&mut self, utility: &dyn Fn(SubchannelId) -> f64) -> Option<SubchannelId> {
        let candidates = self.unowned();
        if candidates.is_empty() {
            return None;
        }
        let best = candidates
            .iter()
            .map(|&s| utility(s))
            .fold(f64::NEG_INFINITY, f64::max);
        let top: Vec<SubchannelId> = candidates
            .into_iter()
            .filter(|&s| utility(s) >= best - 1e-12)
            .collect();
        top.choose(&mut self.rng).copied()
    }

    /// Grow or shrink the occupied set towards `share` subchannels.
    ///
    /// Growth follows Fig 4's initialization: new subchannels are picked
    /// randomly among the unowned (weighted acquisition would need CQI
    /// history the AP does not yet have for channels it never used), each
    /// with a fresh exponential bucket. Shrink releases the
    /// lowest-utility owned subchannels first.
    pub fn adjust_to_share(&mut self, share: u32, utility: &dyn Fn(SubchannelId) -> f64) {
        let share = share.min(self.n_subchannels);
        while self.owned_count() < share {
            let mut candidates = self.unowned();
            if candidates.is_empty() {
                break;
            }
            candidates.shuffle(&mut self.rng);
            let s = candidates[0];
            let b = Bucket::draw(self.lambda, &mut self.rng);
            self.owned.insert(s, b);
        }
        while self.owned_count() > share {
            let worst = self
                .owned
                .keys()
                .copied()
                .min_by(|a, b| {
                    utility(*a)
                        .partial_cmp(&utility(*b))
                        .expect("finite utilities")
                })
                .expect("non-empty owned set");
            self.owned.remove(&worst);
        }
    }

    /// Apply one epoch of feedback: drain buckets per §5.3 and hop on
    /// empty buckets to the maximum-utility unowned subchannel. Returns
    /// the hops taken.
    pub fn apply_feedback(
        &mut self,
        feedback: &[SubchannelFeedback],
        utility: &dyn Fn(SubchannelId) -> f64,
    ) -> Vec<Hop> {
        let mut hops = Vec::new();
        for fb in feedback {
            let Some(bucket) = self.owned.get_mut(&fb.subchannel) else {
                continue; // stale feedback for a channel we already left
            };
            let mut empty = bucket.is_empty();
            for obs in &fb.clients {
                if obs.bad {
                    empty |= bucket.drain(obs.frac_scheduled.clamp(0.0, 1.0));
                }
            }
            if empty {
                self.owned.remove(&fb.subchannel);
                let to = self.best_unowned(utility).unwrap_or(fb.subchannel);
                let b = Bucket::draw(self.lambda, &mut self.rng);
                self.owned.insert(to, b);
                if to != fb.subchannel {
                    hops.push(Hop {
                        from: fb.subchannel,
                        to,
                        from_utility: utility(fb.subchannel),
                        to_utility: utility(to),
                    });
                    self.total_hops += 1;
                }
                // `to == from` means every other subchannel is owned too:
                // re-draw the bucket in place rather than shrink below the
                // computed share.
            }
        }
        hops
    }

    /// Forcibly move an owned subchannel (used by the re-use packing
    /// heuristic). Draws a fresh bucket for the destination.
    pub fn relocate(&mut self, from: SubchannelId, to: SubchannelId) {
        assert!(self.owned.contains_key(&from), "relocate of unowned {from}");
        assert!(!self.owned.contains_key(&to), "relocate onto owned {to}");
        self.owned.remove(&from);
        let b = Bucket::draw(self.lambda, &mut self.rng);
        self.owned.insert(to, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_utility(_: SubchannelId) -> f64 {
        1.0
    }

    fn hopper() -> Hopper {
        Hopper::new(13, 10.0, 42)
    }

    #[test]
    fn starts_empty() {
        let h = hopper();
        assert_eq!(h.owned_count(), 0);
        assert!(h.mask().iter().all(|&b| !b));
    }

    #[test]
    fn adjust_grows_to_share() {
        let mut h = hopper();
        h.adjust_to_share(6, &flat_utility);
        assert_eq!(h.owned_count(), 6);
        let owned = h.owned();
        let mut dedup = owned.clone();
        dedup.dedup();
        assert_eq!(owned, dedup, "no duplicates");
    }

    #[test]
    fn adjust_shrinks_lowest_utility_first() {
        let mut h = hopper();
        h.adjust_to_share(13, &flat_utility);
        // Utility is the subchannel index: shrinking to 3 must keep 10,11,12.
        let utility = |s: SubchannelId| f64::from(s.0);
        h.adjust_to_share(3, &utility);
        assert_eq!(
            h.owned(),
            vec![
                SubchannelId::new(10),
                SubchannelId::new(11),
                SubchannelId::new(12)
            ]
        );
    }

    #[test]
    fn share_clamped_to_total() {
        let mut h = hopper();
        h.adjust_to_share(99, &flat_utility);
        assert_eq!(h.owned_count(), 13);
    }

    #[test]
    fn good_observations_never_cause_hops() {
        let mut h = hopper();
        h.adjust_to_share(4, &flat_utility);
        let before = h.owned();
        for _ in 0..50 {
            let fb: Vec<SubchannelFeedback> = before
                .iter()
                .map(|&s| SubchannelFeedback {
                    subchannel: s,
                    clients: vec![ClientObservation {
                        frac_scheduled: 1.0,
                        bad: false,
                    }],
                })
                .collect();
            let hops = h.apply_feedback(&fb, &flat_utility);
            assert!(hops.is_empty());
        }
        assert_eq!(h.owned(), before);
    }

    #[test]
    fn persistent_interference_forces_hop() {
        let mut h = hopper();
        h.adjust_to_share(1, &flat_utility);
        let victim = h.owned()[0];
        let mut hopped = false;
        for _ in 0..200 {
            let current = h.owned()[0];
            let fb = vec![SubchannelFeedback {
                subchannel: current,
                clients: vec![ClientObservation {
                    frac_scheduled: 1.0,
                    bad: true,
                }],
            }];
            let hops = h.apply_feedback(&fb, &flat_utility);
            if !hops.is_empty() {
                assert_eq!(hops[0].from, current);
                assert_ne!(hops[0].to, current);
                hopped = true;
                break;
            }
        }
        assert!(hopped, "bucket never drained from {victim}");
        assert_eq!(h.owned_count(), 1, "share preserved across hop");
    }

    #[test]
    fn hop_targets_maximum_utility() {
        let mut h = Hopper::new(4, 0.5, 7);
        h.adjust_to_share(1, &|s| if s.0 == 0 { 1.0 } else { 0.0 });
        // Force ownership of subchannel 0 deterministically.
        let owned = h.owned()[0];
        if owned != SubchannelId::new(0) {
            h.relocate(owned, SubchannelId::new(0));
        }
        let utility = |s: SubchannelId| match s.0 {
            2 => 10.0,
            _ => 1.0,
        };
        // Drain until hop; target must be subchannel 2.
        loop {
            let fb = vec![SubchannelFeedback {
                subchannel: h.owned()[0],
                clients: vec![ClientObservation {
                    frac_scheduled: 1.0,
                    bad: true,
                }],
            }];
            let hops = h.apply_feedback(&fb, &utility);
            if let Some(hop) = hops.first() {
                assert_eq!(hop.to, SubchannelId::new(2));
                break;
            }
        }
    }

    #[test]
    fn drain_scales_with_scheduled_fraction() {
        // A client scheduled 10 % of the time drains slowly: with λ = 10
        // the expected survival is ~100 epochs; assert it survives 20.
        let mut h = Hopper::new(13, 10.0, 9);
        h.adjust_to_share(1, &flat_utility);
        let s = h.owned()[0];
        let mut survived = 0;
        for _ in 0..20 {
            let fb = vec![SubchannelFeedback {
                subchannel: s,
                clients: vec![ClientObservation {
                    frac_scheduled: 0.1,
                    bad: true,
                }],
            }];
            if h.apply_feedback(&fb, &flat_utility).is_empty() {
                survived += 1;
            }
        }
        assert!(survived >= 15, "survived only {survived}/20 epochs");
    }

    #[test]
    fn full_occupancy_redraws_in_place() {
        let mut h = Hopper::new(2, 1.0, 3);
        h.adjust_to_share(2, &flat_utility);
        // Both owned; interference on one cannot hop anywhere.
        let s = h.owned()[0];
        for _ in 0..100 {
            let fb = vec![SubchannelFeedback {
                subchannel: s,
                clients: vec![ClientObservation {
                    frac_scheduled: 1.0,
                    bad: true,
                }],
            }];
            let hops = h.apply_feedback(&fb, &flat_utility);
            assert!(hops.is_empty());
            assert_eq!(h.owned_count(), 2);
        }
    }

    #[test]
    fn stale_feedback_ignored() {
        let mut h = hopper();
        h.adjust_to_share(1, &flat_utility);
        let not_owned = h.unowned()[0];
        let fb = vec![SubchannelFeedback {
            subchannel: not_owned,
            clients: vec![ClientObservation {
                frac_scheduled: 1.0,
                bad: true,
            }],
        }];
        let hops = h.apply_feedback(&fb, &flat_utility);
        assert!(hops.is_empty());
        assert_eq!(h.owned_count(), 1);
    }

    #[test]
    fn relocate_moves_ownership() {
        let mut h = hopper();
        h.adjust_to_share(1, &flat_utility);
        let from = h.owned()[0];
        let to = h.unowned()[0];
        h.relocate(from, to);
        assert_eq!(h.owned(), vec![to]);
    }

    #[test]
    #[should_panic(expected = "relocate of unowned")]
    fn relocate_unowned_panics() {
        let mut h = hopper();
        h.relocate(SubchannelId::new(0), SubchannelId::new(1));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// After any sequence of share adjustments, the owned count is
            /// exactly min(last share, total) and the set has no duplicates.
            #[test]
            fn adjust_tracks_share(shares in proptest::collection::vec(0u32..20, 1..12)) {
                let mut h = Hopper::new(13, 10.0, 3);
                for &sh in &shares {
                    h.adjust_to_share(sh, &flat_utility);
                    prop_assert_eq!(h.owned_count(), sh.min(13));
                    let owned = h.owned();
                    let mut dedup = owned.clone();
                    dedup.dedup();
                    prop_assert_eq!(owned.len(), dedup.len());
                    prop_assert!(owned.iter().all(|s| s.0 < 13));
                }
            }

            /// Feedback never changes the owned count (hops swap, redraws
            /// keep), and hop destinations are always previously unowned.
            #[test]
            fn feedback_preserves_share(
                share in 1u32..13,
                rounds in 1usize..30,
                bad_bits in proptest::collection::vec(any::<bool>(), 30),
            ) {
                let mut h = Hopper::new(13, 2.0, 9);
                h.adjust_to_share(share, &flat_utility);
                for r in 0..rounds {
                    let before = h.owned();
                    let fb: Vec<SubchannelFeedback> = before
                        .iter()
                        .map(|&s| SubchannelFeedback {
                            subchannel: s,
                            clients: vec![ClientObservation {
                                frac_scheduled: 1.0,
                                bad: bad_bits[r % bad_bits.len()],
                            }],
                        })
                        .collect();
                    let hops = h.apply_feedback(&fb, &flat_utility);
                    prop_assert_eq!(h.owned_count(), share.min(13));
                    let after = h.owned();
                    for hop in hops {
                        prop_assert!(before.contains(&hop.from));
                        prop_assert!(hop.from != hop.to, "self-hop recorded");
                        // A destination may have been vacated by an earlier
                        // hop in the same epoch; what must hold is that it
                        // is owned afterwards.
                        prop_assert!(after.contains(&hop.to));
                    }
                }
            }
        }
    }

    #[test]
    fn mask_matches_owned() {
        let mut h = hopper();
        h.adjust_to_share(5, &flat_utility);
        let mask = h.mask();
        for s in 0..13u32 {
            assert_eq!(mask[s as usize], h.owned().contains(&SubchannelId::new(s)));
        }
    }
}
