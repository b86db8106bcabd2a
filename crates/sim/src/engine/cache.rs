//! Steady-state caches over the MAC's transmitter sets.
//!
//! Two observations make the subframe loop mostly redundant in steady
//! state. First, with a saturated PF scheduler and a converged hopping
//! allocation, each subchannel's transmitter set cycles through a tiny
//! number of distinct values (the TDD pattern alternates one downlink
//! set with the empty uplink set). [`TxSetTracker`] interns those sets
//! into small integer ids per subchannel, so every downstream cache can
//! key on a `u64` compare instead of cloning and comparing `Vec<usize>`
//! sets. Second, each subchannel column of the CQI measurement is a
//! pure function of `(gain generation, association generation, the
//! column's set id)` — [`CqiMemo`] keeps each column's two most recent
//! keys and plans every scan column by column ([`ColumnPlan`]): keep
//! what `ue_cqi` already holds, copy a remembered column back, or
//! compute a new one. Interference hits are not remembered: a kept or
//! copied column is re-tested against the interference cache the first
//! time its slot is used in an epoch. Within an epoch the interference
//! flags only go from false to true, so later scans in the same epoch
//! skip the test; the epoch boundary clears the marks with the flags.
//!
//! [`InterferenceCache`] holds its per-UE totals `[ue][subchannel]`:
//! a refresh splits over UE rows, and every reader walks one contiguous
//! row per UE.

use crate::slab::Slab2;
use crate::topology::NeighborTable;
use cellfi_lte::amc::Cqi;

/// Interns per-subchannel transmitter sets into `u64` ids and maintains
/// a per-subchannel cell-membership bitmask.
///
/// Id 0 is reserved for the empty set; every distinct non-empty set
/// observed on a subchannel gets the next id from a shared counter. Each
/// subchannel remembers its two most recently seen sets (enough for the
/// TDD steady state: one downlink set alternating with uplink silence,
/// plus one spare for epoch transitions), so a steady-state observe is
/// pure comparison — zero allocation.
#[derive(Debug)]
pub(crate) struct TxSetTracker {
    /// Current interned id per subchannel; 0 = empty set.
    ids: Vec<u64>,
    /// Per-subchannel membership bitmask: bit `ap` of row `s` is set
    /// iff `ap` transmits on subchannel `s`.
    mask: crate::slab::BitRows,
    /// Two-slot LRU of `(id, set)` per subchannel, most recent first.
    slots: Vec<[(u64, Vec<usize>); 2]>,
    /// Next fresh id.
    next_id: u64,
}

impl TxSetTracker {
    pub fn new(n_sub: usize, n_ap: usize) -> TxSetTracker {
        TxSetTracker {
            ids: vec![0; n_sub],
            mask: crate::slab::BitRows::new(n_sub, n_ap),
            slots: (0..n_sub)
                .map(|_| [(0, Vec::new()), (0, Vec::new())])
                .collect(),
            next_id: 1,
        }
    }

    /// Bring ids and masks in line with `tx` (the per-subchannel
    /// transmitter sets just installed as `tx_last`). Sets already seen
    /// on their subchannel re-use their id without allocating.
    // cellfi-lint: hot
    pub fn observe(&mut self, tx: &[Vec<usize>]) {
        for (s, set) in tx.iter().enumerate() {
            let id = if set.is_empty() {
                0
            } else {
                let slots = &mut self.slots[s];
                if slots[0].0 != 0 && slots[0].1 == *set {
                    slots[0].0
                } else if slots[1].0 != 0 && slots[1].1 == *set {
                    slots.swap(0, 1);
                    slots[0].0
                } else {
                    // Evict the older slot; `clone_from` reuses its
                    // capacity after warm-up.
                    slots[1].0 = self.next_id;
                    slots[1].1.clone_from(set);
                    self.next_id += 1;
                    slots.swap(0, 1);
                    slots[0].0
                }
            };
            if self.ids[s] != id {
                self.ids[s] = id;
                self.mask.clear_row(s);
                for &ap in set {
                    self.mask.set(s, ap);
                }
            }
        }
    }

    /// Current id per subchannel (0 = empty set).
    // cellfi-lint: hot
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Whether `ap` is in subchannel `s`'s current transmitter set.
    // cellfi-lint: hot
    #[inline]
    pub fn is_member(&self, s: usize, ap: usize) -> bool {
        self.mask.get(s, ap)
    }
}

/// One memo slot of one subchannel column.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnSlot {
    /// `(gain_gen, assoc_gen, set id)` the slot's column was computed for.
    key: (u64, u64, u64),
    /// The scan that last used the slot; 0 = never filled. The older of
    /// a column's two slots is the one a miss evicts.
    stamp: u64,
    /// Whether the column's interference hits went through the epoch
    /// flags this epoch. The flags only go from false to true within an
    /// epoch, so a second pass would set nothing and emit nothing.
    applied: bool,
}

/// What one CQI scan does with each subchannel column, as bitmasks over
/// subchannels (bit `s` = column `s`). Every column is in exactly one
/// of *keep* (no bit set: `ue_cqi` already mirrors the column), *copy
/// from slot k* (`copy[k]`) or *compute* (`compute`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ColumnPlan {
    /// Columns restored from slot `k`'s table.
    pub copy: [u64; 2],
    /// Columns measured afresh.
    pub compute: u64,
    /// Computed columns that also fill slot `k`'s table (none with the
    /// fast path off).
    pub store: [u64; 2],
    /// Kept or copied columns whose hits have not yet gone through the
    /// epoch flags this epoch: the scan re-tests them.
    pub retest: u64,
}

impl ColumnPlan {
    /// Columns whose `ue_cqi` values this scan rewrites.
    pub fn changed(&self) -> u64 {
        self.copy[0] | self.copy[1] | self.compute
    }
}

/// Every bit set in `mask`, ascending.
// cellfi-lint: hot
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let s = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(s)
    })
}

/// Per-subchannel memo of CQI columns, keyed by
/// `(gain_gen, assoc_gen, set id)`.
///
/// Column `s` of a scan (every UE's CQI on `s`, and which `(ue, s)`
/// meet the interference condition) reads only the gains (versioned by
/// `gain_gen`), each UE's serving link (`assoc_gen`), the interference
/// column of `s` and the membership of `s`'s transmitter set, so it is
/// a pure function of that key; [`TxSetTracker`] never gives two sets
/// the same id. Each column keeps its two most recent keys — the TDD
/// steady state alternates one downlink set with uplink silence — in
/// two slots whose CQIs live in two `[ue][subchannel]` tables, and
/// `live[s]` records which slot `ue_cqi`'s column `s` currently
/// mirrors. [`Self::plan`] turns a scan's keys into a [`ColumnPlan`],
/// so a scan touches only the columns whose set changed. Interference
/// hits are not stored: the scan re-tests a kept or copied column
/// against the interference cache, which the same key brought to the
/// same totals, the first time the slot is used in an epoch. Anything
/// time-varying (queue depths, outage timers, epoch flags) is never
/// memoized.
#[derive(Debug)]
pub(crate) struct CqiMemo {
    slots: Vec<[ColumnSlot; 2]>,
    /// Slot `k`'s CQIs, `[ue][subchannel]` like `ue_cqi`.
    tables: [Vec<Cqi>; 2],
    /// The slot `ue_cqi`'s column `s` mirrors, if any.
    live: Vec<Option<usize>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl CqiMemo {
    pub fn new(n_sub: usize, n_ue: usize) -> CqiMemo {
        assert!(n_sub <= 64, "column plans are 64-bit masks");
        CqiMemo {
            slots: vec![[ColumnSlot::default(); 2]; n_sub],
            tables: [
                vec![Cqi::OUT_OF_RANGE; n_ue * n_sub],
                vec![Cqi::OUT_OF_RANGE; n_ue * n_sub],
            ],
            live: vec![None; n_sub],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Plan one scan over the columns keyed `(gain_gen, assoc_gen,
    /// ids[s])`: a column whose key is the live slot's is kept, one
    /// whose key is in the other slot is copied, and a miss is computed
    /// into the least recently used slot. Every slot the scan uses ends
    /// up applied this epoch: a computed column goes through the flags
    /// live, a kept or copied one is re-tested (`retest`) unless its
    /// slot already was. With `fast_path` off every column is computed
    /// and nothing is stored or probed.
    // cellfi-lint: hot
    pub fn plan(
        &mut self,
        gain_gen: u64,
        assoc_gen: u64,
        ids: &[u64],
        fast_path: bool,
    ) -> ColumnPlan {
        let mut plan = ColumnPlan::default();
        if !fast_path {
            plan.compute = (0..ids.len()).fold(0, |mask, s| mask | 1 << s);
            self.live.fill(None);
            return plan;
        }
        self.clock += 1;
        for (s, &id) in ids.iter().enumerate() {
            let key = (gain_gen, assoc_gen, id);
            let bit = 1u64 << s;
            let slots = &mut self.slots[s];
            let k = match slots.iter().position(|c| c.stamp != 0 && c.key == key) {
                Some(k) => {
                    self.hits += 1;
                    if self.live[s] != Some(k) {
                        plan.copy[k] |= bit;
                    }
                    if !slots[k].applied {
                        plan.retest |= bit;
                    }
                    k
                }
                None => {
                    self.misses += 1;
                    let k = usize::from(slots[1].stamp < slots[0].stamp);
                    slots[k].key = key;
                    plan.compute |= bit;
                    plan.store[k] |= bit;
                    k
                }
            };
            slots[k].stamp = self.clock;
            slots[k].applied = true;
            self.live[s] = Some(k);
        }
        plan
    }

    /// Both slot tables, `[ue][subchannel]`, for a scan to copy from and
    /// store into.
    // cellfi-lint: hot
    pub fn tables_mut(&mut self) -> [&mut [Cqi]; 2] {
        let [t0, t1] = &mut self.tables;
        [t0, t1]
    }

    /// Lifetime `(hits, misses)` of [`Self::plan`]'s column probes, one
    /// per column per scan with the fast path on — the replay rate
    /// observability surfaces next to the interference cache's probe
    /// stats.
    pub fn probe_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The epoch interference flags were just cleared: every slot's hits
    /// must go through them again before a scan may skip them.
    pub fn clear_applied(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.applied = false;
        }
    }
}

/// Memoized per-subchannel interference accumulation.
///
/// The engine's hottest loop sums, for every (UE, subchannel) pair, the
/// received power from every concurrently transmitting cell. With a
/// saturated PF scheduler the transmitter set of a subchannel is stable
/// for long stretches, and the gains only change when the fading block
/// rolls — so each subchannel's column of per-UE totals (one entry in
/// every UE's row) is keyed by
/// `(gain generation, interned transmitter-set id)` and recomputed only
/// when that key changes. Set ids come from [`TxSetTracker`], so a
/// no-change refresh is a handful of integer compares: zero allocation,
/// zero set cloning. The empty set (id 0) short-circuits in the reader,
/// which keeps a subchannel's cached downlink column valid across the
/// uplink subframes of the TDD cycle.
///
/// Totals include *every* transmitting cell — the serving cell too — so
/// the cache stays valid across handovers; callers subtract the serving
/// cell's own contribution when it is in the set.
#[derive(Debug)]
pub(crate) struct InterferenceCache {
    /// Total received power (mW) per `[ue][subchannel]` summed over the
    /// keyed transmitter set: one contiguous row per UE, which is how
    /// both readers (HARQ resolution, the CQI scan) walk it.
    total_mw: Slab2,
    /// Cache key per subchannel: `(gain generation, set id)` the column
    /// was accumulated for. Gain generations start at 1, so `(0, 0)`
    /// means "never filled".
    key: Vec<(u64, u64)>,
    /// Set id per subchannel as of the latest refresh (0 = empty set).
    current: Vec<u64>,
    /// The subchannels the latest refresh found stale, ascending
    /// (sized for every subchannel, so refreshes never reallocate).
    stale: Vec<usize>,
    /// Non-empty subchannel probes served from a valid column.
    hits: u64,
    /// Non-empty subchannel probes that had to recompute their column.
    misses: u64,
}

impl InterferenceCache {
    pub fn new(n_sub: usize, n_ue: usize) -> InterferenceCache {
        InterferenceCache {
            total_mw: Slab2::new(n_ue, n_sub, 0.0),
            key: vec![(0, 0); n_sub],
            current: vec![0; n_sub],
            stale: Vec::with_capacity(n_sub),
            hits: 0,
            misses: 0,
        }
    }

    /// Cumulative `(hits, misses)` over non-empty subchannel probes —
    /// the `cache_hit_floor` monitor's input.
    pub fn probe_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Ensure every non-empty subchannel column matches
    /// `(gain_gen, tracker id)`. Stale columns are recomputed in
    /// parallel over UE rows: each row is one UE's disjoint slice, and
    /// each worker recomputes only the row's stale subchannels. After
    /// this, `total(s, ue)` is exactly
    /// `Self::direct_total(tracker, nbr, lin_mw, ue, s)`.
    ///
    /// The accumulation walks each UE's links (ascending AP order) and
    /// adds the lanes whose AP is in the subchannel's
    /// transmitter mask — with dense tables that is the old ascending
    /// `tx[s]` sum term for term; under a cull floor, transmitters
    /// outside the UE's candidate row contribute nothing (their received
    /// power is below the floor by construction).
    pub fn refresh(
        &mut self,
        gain_gen: u64,
        tracker: &TxSetTracker,
        nbr: &NeighborTable,
        lin_mw: &Slab2,
    ) {
        let ids = tracker.ids();
        self.current.copy_from_slice(ids);
        self.stale.clear();
        for (s, &id) in ids.iter().enumerate() {
            if id == 0 {
                continue;
            }
            if self.key[s] == (gain_gen, id) {
                self.hits += 1;
            } else {
                self.misses += 1;
                self.stale.push(s);
            }
        }
        if self.stale.is_empty() || self.total_mw.rows() == 0 {
            return;
        }
        let n_sub = self.total_mw.cols();
        let stale = &self.stale;
        // A row costs one link walk per stale subchannel; below 64 UEs
        // per worker the spawn costs more than the rows.
        crate::parallel::for_each_chunk(self.total_mw.as_mut_slice(), n_sub, 64, |ue, row| {
            for &s in stale {
                row[s] = Self::direct_total(tracker, nbr, lin_mw, ue, s);
            }
        });
        for &s in &self.stale {
            self.key[s] = (gain_gen, ids[s]);
        }
    }

    /// Total received power (mW) at `ue` on subchannel `s` over the
    /// transmitter set of the latest refresh; 0 when that set is empty.
    #[inline]
    pub fn total(&self, s: usize, ue: usize) -> f64 {
        if self.current[s] == 0 {
            0.0
        } else {
            self.total_mw.at(ue, s)
        }
    }

    /// The unmemoized accumulation the cache must always agree with:
    /// total power at `ue` on subchannel `s` over the transmitters in
    /// `tracker`'s mask, read through the UE's links in ascending-AP
    /// order.
    pub fn direct_total(
        tracker: &TxSetTracker,
        nbr: &NeighborTable,
        lin_mw: &Slab2,
        ue: usize,
        s: usize,
    ) -> f64 {
        let mut total = 0.0;
        for (link, &ap) in nbr.links(ue).zip(nbr.candidates(ue)) {
            if tracker.is_member(s, ap as usize) {
                total += lin_mw.at(link, s);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_interns_and_reuses_ids() {
        let mut t = TxSetTracker::new(2, 8);
        t.observe(&[vec![0, 3], vec![]]);
        let a = t.ids()[0];
        assert!(a != 0);
        assert_eq!(t.ids()[1], 0);
        assert!(t.is_member(0, 0) && t.is_member(0, 3) && !t.is_member(0, 1));
        assert!(!t.is_member(1, 0));
        // Alternate with the empty set (the TDD pattern): same id comes
        // back and no new set is interned.
        t.observe(&[vec![], vec![]]);
        assert_eq!(t.ids()[0], 0);
        assert!(!t.is_member(0, 3));
        t.observe(&[vec![0, 3], vec![]]);
        assert_eq!(t.ids()[0], a);
        assert!(t.is_member(0, 3));
        // Had the reuse minted an id, the next new set would skip one.
        t.observe(&[vec![1], vec![]]);
        assert_eq!(t.ids()[0], a + 1);
    }

    #[test]
    fn tracker_keeps_two_sets_resident() {
        let mut t = TxSetTracker::new(1, 4);
        t.observe(&[vec![0]]);
        let a = t.ids()[0];
        t.observe(&[vec![1]]);
        let b = t.ids()[0];
        t.observe(&[vec![0]]);
        assert_eq!(t.ids()[0], a);
        t.observe(&[vec![1]]);
        assert_eq!(t.ids()[0], b);
        // A third set evicts the older one and takes the next id: the
        // LRU pair's reuse minted none.
        t.observe(&[vec![2]]);
        assert_eq!(t.ids()[0], b + 1, "LRU pair must not re-intern");
    }

    #[test]
    fn tracker_masks_wide_ap_counts() {
        let mut t = TxSetTracker::new(1, 130);
        t.observe(&[vec![5, 64, 129]]);
        assert!(t.is_member(0, 5) && t.is_member(0, 64) && t.is_member(0, 129));
        assert!(!t.is_member(0, 63) && !t.is_member(0, 128));
    }

    /// A plan that only keeps columns: nothing to copy, compute or test.
    const KEEP_ALL: ColumnPlan = ColumnPlan {
        copy: [0, 0],
        compute: 0,
        store: [0, 0],
        retest: 0,
    };

    #[test]
    fn bits_walks_a_mask_in_ascending_order() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1010_0101).collect::<Vec<_>>(), vec![0, 2, 5, 7]);
        assert_eq!(bits(1 << 63).collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn memo_plans_keep_copy_and_compute_per_column() {
        let mut m = CqiMemo::new(3, 2);
        // A cold memo computes every column into slot 0.
        let p = m.plan(1, 0, &[5, 0, 7], true);
        assert_eq!(
            (p.compute, p.store, p.copy, p.retest),
            (0b111, [0b111, 0], [0, 0], 0)
        );
        // The same keys again: `ue_cqi` already mirrors every column.
        assert_eq!(m.plan(1, 0, &[5, 0, 7], true), KEEP_ALL);
        // A new set on column 0 only: that column is computed into its
        // empty slot 1, the other two are kept.
        let p = m.plan(1, 0, &[6, 0, 7], true);
        assert_eq!((p.compute, p.store, p.copy), (0b001, [0, 0b001], [0, 0]));
        // Flipping back copies column 0 from slot 0, then from slot 1.
        let p = m.plan(1, 0, &[5, 0, 7], true);
        assert_eq!((p.compute, p.copy, p.changed()), (0, [0b001, 0], 0b001));
        let p = m.plan(1, 0, &[6, 0, 7], true);
        assert_eq!((p.compute, p.copy), (0, [0, 0b001]));
        // A new gain or association generation misses every column.
        assert_eq!(m.plan(2, 0, &[6, 0, 7], true).compute, 0b111);
        assert_eq!(m.plan(2, 1, &[6, 0, 7], true).compute, 0b111);
    }

    #[test]
    fn memo_evicts_the_least_recently_used_slot_per_column() {
        let mut m = CqiMemo::new(2, 1);
        m.plan(1, 0, &[1, 10], true); // both columns into slot 0
        m.plan(1, 0, &[2, 10], true); // column 0: set 2 into slot 1
        m.plan(1, 0, &[1, 10], true); // column 0: set 1 used again
                                      // Set 3 on column 0 evicts set 2 (slot 1), the older one; column
                                      // 1, whose slot 1 was never filled, is untouched.
        let p = m.plan(1, 0, &[3, 10], true);
        assert_eq!((p.compute, p.store), (0b01, [0, 0b01]));
        // Set 1 survived in slot 0. Set 2 is gone: it computes into slot
        // 1 again, evicting set 3, now the least recently used.
        assert_eq!(m.plan(1, 0, &[1, 10], true).copy, [0b01, 0]);
        let p = m.plan(1, 0, &[2, 10], true);
        assert_eq!((p.compute, p.store), (0b01, [0, 0b01]));
        // Column 1 has kept its key throughout.
        assert_eq!(m.plan(1, 0, &[2, 10], true), KEEP_ALL);
    }

    #[test]
    fn memo_applies_each_slot_once_per_epoch() {
        let mut m = CqiMemo::new(2, 1);
        m.plan(1, 0, &[1, 2], true);
        m.plan(1, 0, &[0, 2], true);
        // The live scan that computed a column applied its hits.
        assert_eq!(m.plan(1, 0, &[0, 2], true).retest, 0);
        // A new epoch: a kept column is re-tested once, a copied one is
        // re-tested with its copy, a computed one needs no re-test.
        m.clear_applied();
        let p = m.plan(1, 0, &[0, 2], true);
        assert_eq!((p.retest, p.copy), (0b11, [0, 0]));
        assert_eq!(m.plan(1, 0, &[0, 2], true), KEEP_ALL);
        let p = m.plan(1, 0, &[1, 2], true);
        assert_eq!((p.retest, p.copy), (0b01, [0b01, 0]));
        assert_eq!(m.plan(1, 0, &[0, 2], true).retest, 0, "slot 1 applied");
        m.clear_applied();
        let p = m.plan(1, 0, &[9, 2], true);
        assert_eq!((p.compute, p.retest), (0b01, 0b10));
    }

    #[test]
    fn memo_probes_once_per_column_and_never_with_the_fast_path_off() {
        let mut m = CqiMemo::new(4, 1);
        let ids = [1, 0, 2, 3];
        m.plan(1, 0, &ids, true);
        assert_eq!(m.probe_stats(), (0, 4));
        m.plan(1, 0, &[1, 0, 2, 4], true);
        assert_eq!(m.probe_stats(), (3, 5));
        // Off: every column computed, none stored, nothing probed.
        let p = m.plan(1, 0, &ids, false);
        assert_eq!(
            (p.compute, p.store, p.copy, p.retest),
            (0b1111, [0, 0], [0, 0], 0)
        );
        assert_eq!(m.probe_stats(), (3, 5));
        // `ue_cqi` no longer mirrors any slot, so back on, a remembered
        // key is copied rather than kept.
        let p = m.plan(1, 0, &[1, 0, 2, 5], true);
        assert_eq!((p.compute, p.copy), (0b1000, [0b0111, 0]));
        assert_eq!(m.probe_stats(), (6, 6));
    }
}
