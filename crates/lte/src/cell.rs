//! The CellFi access point's LTE cell: state, queues and scheduling.
//!
//! A [`Cell`] is the "LTE small cell SW" block of Fig 3 — everything the
//! stock stack provides: carrier configuration (from channel selection),
//! SIB broadcast, UE attachment, downlink queues and the standard
//! scheduler. The two CellFi additions (channel selection, interference
//! management) live in `cellfi-spectrum` and `cellfi-core` and drive this
//! struct only through its public, "standard" interfaces:
//! [`Cell::set_carrier`] / [`Cell::radio_off`] and
//! [`Cell::set_allowed_mask`].
//!
//! Per-UE state is a struct of arrays in attach order: the attach list,
//! the downlink queue depths and the proportional-fair averages are
//! three parallel `Vec`s, so [`Cell::schedule_downlink`] hands them to
//! [`pf_allocate`] as slices. Attaching appends a UE with an empty queue
//! and the PF default average of 1.0; detaching removes all three
//! entries together, so a UE that leaves (a handover, a radio-off)
//! starts afresh wherever it attaches next.

use crate::earfcn::Earfcn;
use crate::grid::{ChannelBandwidth, ResourceGrid};
use crate::scheduler::{pf_allocate, PF_ALPHA};
use crate::sib::SystemInformation;
use crate::tdd::TddConfig;
use cellfi_types::time::Instant;
use cellfi_types::units::Dbm;
use cellfi_types::{ApId, UeId};

/// Static configuration of one cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Identity.
    pub id: ApId,
    /// Downlink transmit power (conducted). The paper's small cell:
    /// 23–29 dBm depending on experiment.
    pub tx_power: Dbm,
    /// LTE channel bandwidth.
    pub bandwidth: ChannelBandwidth,
    /// TDD uplink/downlink configuration.
    pub tdd: TddConfig,
    /// PRACH Zadoff–Chu root planned for this cell.
    pub prach_root: u32,
}

impl CellConfig {
    /// The paper's large-scale-evaluation cell: 30 dBm, 5 MHz, TDD
    /// config 4.
    pub fn paper_default(id: ApId) -> CellConfig {
        CellConfig {
            id,
            tx_power: Dbm(30.0),
            bandwidth: ChannelBandwidth::Mhz5,
            tdd: TddConfig::paper_default(),
            prach_root: 129 + id.0 % 100,
        }
    }
}

/// Runtime state of one cell.
#[derive(Debug, Clone)]
pub struct Cell {
    config: CellConfig,
    grid: ResourceGrid,
    sib: Option<SystemInformation>,
    /// Attached UEs in attach order; the index into this list is the row
    /// of `queues`, `pf_avg` and every scheduling input.
    attached: Vec<UeId>,
    /// Downlink queue depth per attached UE, bits.
    queues: Vec<u64>,
    /// Proportional-fair average served bits per subframe per attached
    /// UE, the PF denominator (§4.3: CellFi leaves the scheduler
    /// unmodified).
    pf_avg: Vec<f64>,
    /// Interference-management mask: which subchannels may be scheduled.
    allowed: Vec<bool>,
}

impl Cell {
    /// A cell with its radio off (no carrier configured).
    pub fn new(config: CellConfig) -> Cell {
        let grid = ResourceGrid::new(config.bandwidth);
        let n = grid.num_subchannels() as usize;
        Cell {
            grid,
            config,
            sib: None,
            attached: Vec::new(),
            queues: Vec::new(),
            pf_avg: Vec::new(),
            allowed: vec![true; n],
        }
    }

    /// Configuration.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// Resource grid.
    pub fn grid(&self) -> &ResourceGrid {
        &self.grid
    }

    /// Current SIB, if the radio is on.
    pub fn sib(&self) -> Option<&SystemInformation> {
        self.sib.as_ref()
    }

    /// Whether the radio is transmitting (carrier configured). Even an
    /// idle cell with the radio on emits CRS/SIB — the Fig 7 signalling
    /// interference.
    pub fn radio_on(&self) -> bool {
        self.sib.is_some()
    }

    /// Configure the carrier after channel selection and start radiating.
    pub fn set_carrier(&mut self, carrier: Earfcn, max_ue_power: Dbm, now: Instant) {
        self.sib = Some(SystemInformation::tdd(now, carrier, max_ue_power));
    }

    /// Stop radiating (channel vacated). All UEs lose their grants — "once
    /// an access point looses a spectrum lease and stops transmitting, all
    /// of its clients will stop transmitting instantly" (§4.2).
    pub fn radio_off(&mut self) {
        self.sib = None;
        self.attached.clear();
        self.queues.clear();
        self.pf_avg.clear();
    }

    /// Attach a UE (after its RACH completes). No-op if already attached.
    pub fn attach(&mut self, ue: UeId) {
        assert!(self.radio_on(), "cannot attach to a cell with radio off");
        if !self.attached.contains(&ue) {
            self.attached.push(ue);
            self.queues.push(0);
            self.pf_avg.push(1.0);
        }
    }

    /// Detach a UE, dropping its queue and PF average.
    pub fn detach(&mut self, ue: UeId) {
        if let Some(i) = self.row(ue) {
            self.attached.remove(i);
            self.queues.remove(i);
            self.pf_avg.remove(i);
        }
    }

    /// Attach-order row of `ue`, if attached.
    fn row(&self, ue: UeId) -> Option<usize> {
        self.attached.iter().position(|&u| u == ue)
    }

    /// Attached UEs in attach order.
    pub fn attached_ues(&self) -> &[UeId] {
        &self.attached
    }

    /// Downlink queue depths (bits) in attach order: entry `i` belongs
    /// to [`Cell::attached_ues`]`[i]`.
    pub fn queue_depths(&self) -> &[u64] {
        &self.queues
    }

    /// Number of *active* clients: attached UEs with queued traffic. This
    /// is the `N_i` of the share calculation (§5.2).
    pub fn active_clients(&self) -> usize {
        self.queues.iter().filter(|&&q| q > 0).count()
    }

    /// Enqueue downlink data for a UE (bits).
    pub fn enqueue(&mut self, ue: UeId, bits: u64) {
        let i = self.row(ue).expect("enqueue only targets attached UEs");
        self.queues[i] += bits;
    }

    /// Bits queued for a UE (0 if not attached).
    pub fn queued_bits(&self, ue: UeId) -> u64 {
        self.row(ue).map_or(0, |i| self.queues[i])
    }

    /// Total queued bits. Saturating: experiment harnesses backlog every
    /// UE with a `u64::MAX / 4` sentinel, so a cell with five or more
    /// backlogged clients sums past `u64::MAX`; callers only compare the
    /// total against zero, and a saturated total cannot reach zero.
    pub fn total_queued_bits(&self) -> u64 {
        self.queues.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Install the interference-management subchannel mask.
    pub fn set_allowed_mask(&mut self, mask: Vec<bool>) {
        assert_eq!(
            mask.len(),
            self.grid.num_subchannels() as usize,
            "mask length must equal subchannel count"
        );
        self.allowed = mask;
    }

    /// The current mask.
    pub fn allowed_mask(&self) -> &[bool] {
        &self.allowed
    }

    /// Run the proportional-fair scheduler for one downlink subframe:
    /// the one place the mask, the backlogs and the PF averages meet.
    ///
    /// `rates` is row-major `[ue][subchannel]` in attach order: row `i`
    /// holds the achievable bits of [`Cell::attached_ues`]`[i]` on each
    /// subchannel this subframe, as derived from its latest CQI report by
    /// the caller (the system engine owns SINR computation).
    /// `remaining_scratch` is caller-owned working space for the
    /// backlogs. `assignment[s]` receives the attach-order row scheduled
    /// on subchannel `s`, or [`crate::scheduler::UNASSIGNED`].
    // cellfi-lint: hot
    pub fn schedule_downlink(
        &self,
        rates: &[f64],
        remaining_scratch: &mut Vec<f64>,
        assignment: &mut [u32],
    ) {
        remaining_scratch.clear();
        remaining_scratch.extend(self.queues.iter().map(|&q| q as f64));
        pf_allocate(
            &self.allowed,
            rates,
            remaining_scratch,
            &self.pf_avg,
            assignment,
        );
    }

    /// Record delivery of `bits` to `ue` (dequeues and feeds the PF
    /// average). Returns the bits actually drained (≤ queue depth).
    pub fn deliver(&mut self, ue: UeId, bits: u64) -> u64 {
        let i = self.row(ue).expect("delivery only targets attached UEs");
        let drained = bits.min(self.queues[i]);
        self.queues[i] -= drained;
        self.pf_avg[i] = (1.0 - PF_ALPHA) * self.pf_avg[i] + PF_ALPHA * drained as f64;
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earfcn::{Band, Earfcn};
    use crate::scheduler::UNASSIGNED;

    fn carrier() -> Earfcn {
        Earfcn::new(Band::Tvws, 100_500)
    }

    fn on_cell() -> Cell {
        let mut c = Cell::new(CellConfig::paper_default(ApId::new(0)));
        c.set_carrier(carrier(), Dbm(20.0), Instant::ZERO);
        c
    }

    #[test]
    fn new_cell_radio_off() {
        let c = Cell::new(CellConfig::paper_default(ApId::new(0)));
        assert!(!c.radio_on());
        assert!(c.sib().is_none());
    }

    #[test]
    fn set_carrier_broadcasts_sib() {
        let c = on_cell();
        assert!(c.radio_on());
        let sib = c.sib().unwrap();
        assert_eq!(sib.downlink, carrier());
        assert_eq!(sib.max_ue_power, Dbm(20.0));
    }

    #[test]
    fn radio_off_detaches_everyone() {
        let mut c = on_cell();
        c.attach(UeId::new(1));
        c.attach(UeId::new(2));
        c.enqueue(UeId::new(1), 999);
        c.radio_off();
        assert!(!c.radio_on());
        assert!(c.attached_ues().is_empty());
        assert_eq!(c.total_queued_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "radio off")]
    fn attach_requires_radio() {
        let mut c = Cell::new(CellConfig::paper_default(ApId::new(0)));
        c.attach(UeId::new(1));
    }

    #[test]
    fn attach_is_idempotent() {
        let mut c = on_cell();
        c.attach(UeId::new(1));
        c.attach(UeId::new(1));
        assert_eq!(c.attached_ues().len(), 1);
    }

    #[test]
    fn active_clients_counts_only_backlogged() {
        let mut c = on_cell();
        c.attach(UeId::new(1));
        c.attach(UeId::new(2));
        c.enqueue(UeId::new(1), 100);
        assert_eq!(c.active_clients(), 1);
        c.enqueue(UeId::new(2), 1);
        assert_eq!(c.active_clients(), 2);
    }

    #[test]
    fn deliver_drains_queue_and_caps_at_depth() {
        let mut c = on_cell();
        c.attach(UeId::new(1));
        c.enqueue(UeId::new(1), 100);
        assert_eq!(c.deliver(UeId::new(1), 60), 60);
        assert_eq!(c.queued_bits(UeId::new(1)), 40);
        assert_eq!(c.deliver(UeId::new(1), 60), 40);
        assert_eq!(c.queued_bits(UeId::new(1)), 0);
    }

    #[test]
    fn schedule_respects_mask() {
        let mut c = on_cell();
        c.attach(UeId::new(1));
        c.enqueue(UeId::new(1), 1_000_000);
        let n = c.grid().num_subchannels() as usize;
        let mut mask = vec![false; n];
        mask[3] = true;
        mask[7] = true;
        c.set_allowed_mask(mask);
        let rates = vec![100.0; n];
        let mut assignment = vec![0; n];
        c.schedule_downlink(&rates, &mut Vec::new(), &mut assignment);
        let used = assignment.iter().filter(|&&r| r != UNASSIGNED).count();
        assert_eq!(used, 2);
        assert!(assignment[3] == 0 && assignment[7] == 0);
    }

    #[test]
    fn default_mask_allows_everything() {
        let c = on_cell();
        assert!(c.allowed_mask().iter().all(|&b| b));
        assert_eq!(c.allowed_mask().len(), 13);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn wrong_mask_length_panics() {
        let mut c = on_cell();
        c.set_allowed_mask(vec![true; 5]);
    }

    #[test]
    fn detach_forgets_queue() {
        let mut c = on_cell();
        c.attach(UeId::new(1));
        c.enqueue(UeId::new(1), 77);
        c.detach(UeId::new(1));
        assert_eq!(c.queued_bits(UeId::new(1)), 0);
        assert!(c.attached_ues().is_empty());
    }

    /// `Cell`'s slice scheduler against the keyed oracle it replaced: a
    /// [`Scheduler`] beside keyed queues, driven through the same
    /// history of attaches, detaches (`forget`), enqueues, deliveries
    /// and radio-offs, on a 5 MHz cell (13 subchannels) and on a 20 MHz
    /// one (25).
    mod differential {
        use super::*;
        use crate::scheduler::{Scheduler, SchedulerKind, UeDemand};
        use proptest::collection;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;
        use std::collections::BTreeMap;

        /// A metro cell holds 40 UEs, a paper cell 6.
        const MAX_UES: u32 = 40;

        struct Oracle {
            attached: Vec<UeId>,
            queues: BTreeMap<UeId, u64>,
            scheduler: Scheduler,
        }

        impl Oracle {
            fn new() -> Oracle {
                Oracle {
                    attached: Vec::new(),
                    queues: BTreeMap::new(),
                    scheduler: Scheduler::new(SchedulerKind::ProportionalFair),
                }
            }

            fn attach(&mut self, ue: UeId) {
                if !self.attached.contains(&ue) {
                    self.attached.push(ue);
                    self.queues.insert(ue, 0);
                }
            }

            fn detach(&mut self, ue: UeId) {
                self.attached.retain(|&u| u != ue);
                self.queues.remove(&ue);
                self.scheduler.forget(ue);
            }

            fn radio_off(&mut self) {
                for ue in self.attached.drain(..) {
                    self.scheduler.forget(ue);
                }
                self.queues.clear();
            }

            fn enqueue(&mut self, ue: UeId, bits: u64) {
                *self.queues.get_mut(&ue).expect("attached UEs have queues") += bits;
            }

            fn deliver(&mut self, ue: UeId, bits: u64) -> u64 {
                let q = self.queues.get_mut(&ue).expect("attached UEs have queues");
                let drained = bits.min(*q);
                *q -= drained;
                self.scheduler.record_served(ue, drained as f64);
                drained
            }

            fn schedule(&mut self, mask: &[bool], rates: &[f64]) -> Vec<Option<UeId>> {
                let demands: Vec<UeDemand> = self
                    .attached
                    .iter()
                    .zip(rates.chunks_exact(mask.len()))
                    .map(|(&ue, row)| UeDemand {
                        ue,
                        backlog_bits: self.queues[&ue],
                        rate_per_subchannel: row.to_vec(),
                    })
                    .collect();
                self.scheduler.allocate(mask, &demands).assignment
            }
        }

        /// One step of a cell's history. UEs already attached are
        /// addressed by `pick % attached`, so most steps touch one.
        #[derive(Debug, Clone)]
        enum Op {
            Attach(u32),
            Detach(usize),
            Enqueue(usize, u64),
            Deliver(usize, u64),
            RadioOff,
            /// Schedule both, compare, then deliver each served UE's
            /// granted bits where `acks` says its block decoded, the
            /// way the engine does.
            Subframe {
                mask: Vec<bool>,
                rates: Vec<f64>,
                acks: Vec<bool>,
            },
        }

        /// Rates come from a small discrete set with 0 and NaN, so PF
        /// ties and undecodable subchannels are common.
        const RATES: [f64; 5] = [0.0, 100.0, 250.0, 500.0, f64::NAN];
        const BACKLOGS: [u64; 6] = [0, 1, 300, 2_000, 50_000, u64::MAX / 4];
        /// Deliveries, half of them empty: the PF average decays on an
        /// ACK that drains nothing, and below 1.0 only the metric's
        /// `max(1.0)` floor keeps such a UE tied with a fresh one.
        const DELIVERIES: [u64; 6] = [0, 0, 0, 100, 2_000, 60_000];

        /// Masks of three shapes, a third each: sparse (0–2 allowed
        /// subchannels, as CellFi leaves the cells of a dense drop),
        /// full (as every metro cell holds between IM epochs), and a
        /// coin flip per subchannel.
        fn arb_mask(n_sub: usize) -> impl Strategy<Value = Vec<bool>> {
            (
                0u8..3,
                collection::vec(0..n_sub, 0..3),
                collection::vec(any::<bool>(), n_sub),
            )
                .prop_map(move |(shape, on, coins)| match shape {
                    0 => {
                        let mut mask = vec![false; n_sub];
                        for s in on {
                            mask[s] = true;
                        }
                        mask
                    }
                    1 => vec![true; n_sub],
                    _ => coins,
                })
        }

        /// One step of the history of a cell with `n_sub` subchannels.
        fn arb_op(n_sub: usize) -> impl Strategy<Value = Op> {
            let n = MAX_UES as usize;
            (
                (0u8..24, 0..MAX_UES, 0..BACKLOGS.len(), 0..DELIVERIES.len()),
                (
                    arb_mask(n_sub),
                    collection::vec(0..RATES.len(), n * n_sub),
                    collection::vec(any::<bool>(), n),
                ),
            )
                .prop_map(|((kind, u, b, d), (mask, rates, acks))| match kind {
                    0..=2 => Op::Attach(u),
                    3 => Op::Detach(u as usize),
                    4..=6 => Op::Enqueue(u as usize, BACKLOGS[b]),
                    7..=10 => Op::Deliver(u as usize, DELIVERIES[d]),
                    11 => Op::RadioOff,
                    _ => Op::Subframe {
                        mask,
                        rates: rates.iter().map(|&i| RATES[i]).collect(),
                        acks,
                    },
                })
        }

        /// 0–40 attached UEs with their initial backlogs.
        fn arb_start() -> impl Strategy<Value = Vec<u64>> {
            collection::vec(0..BACKLOGS.len(), 0..MAX_UES as usize + 1)
                .prop_map(|ix| ix.iter().map(|&i| BACKLOGS[i]).collect())
        }

        /// Drive `cell` and the keyed oracle through `start`'s backlogs
        /// and then `ops`, comparing every schedule, drain and queue.
        fn check_history(
            mut cell: Cell,
            start: Vec<u64>,
            ops: Vec<Op>,
        ) -> Result<(), TestCaseError> {
            let n_sub = cell.grid().num_subchannels() as usize;
            let mut oracle = Oracle::new();
            for (u, &backlog) in start.iter().enumerate() {
                let ue = UeId::new(u as u32);
                cell.attach(ue);
                cell.enqueue(ue, backlog);
                oracle.attach(ue);
                oracle.enqueue(ue, backlog);
            }
            let mut remaining = Vec::new();
            let mut assignment = vec![UNASSIGNED; n_sub];
            for op in ops {
                let picked = |pick: usize| {
                    let n = oracle.attached.len();
                    (n > 0).then(|| oracle.attached[pick % n])
                };
                match op {
                    Op::Attach(u) => {
                        cell.attach(UeId::new(u));
                        oracle.attach(UeId::new(u));
                    }
                    Op::Detach(pick) => {
                        if let Some(ue) = picked(pick) {
                            cell.detach(ue);
                            oracle.detach(ue);
                        }
                    }
                    Op::Enqueue(pick, bits) => {
                        if let Some(ue) = picked(pick) {
                            cell.enqueue(ue, bits);
                            oracle.enqueue(ue, bits);
                        }
                    }
                    Op::Deliver(pick, bits) => {
                        if let Some(ue) = picked(pick) {
                            let drained = cell.deliver(ue, bits);
                            prop_assert_eq!(drained, oracle.deliver(ue, bits));
                        }
                    }
                    Op::RadioOff => {
                        cell.radio_off();
                        oracle.radio_off();
                        cell.set_carrier(carrier(), Dbm(20.0), Instant::ZERO);
                    }
                    Op::Subframe { mask, rates, acks } => {
                        cell.set_allowed_mask(mask.clone());
                        let rates = &rates[..cell.attached_ues().len() * n_sub];
                        cell.schedule_downlink(rates, &mut remaining, &mut assignment);
                        let expected = oracle.schedule(&mask, rates);
                        let attached = cell.attached_ues().to_vec();
                        let got: Vec<Option<UeId>> = assignment
                            .iter()
                            .map(|&r| (r != UNASSIGNED).then(|| attached[r as usize]))
                            .collect();
                        prop_assert_eq!(&got, &expected);
                        let rows = attached.iter().zip(rates.chunks_exact(n_sub));
                        for (i, (&ue, row)) in rows.enumerate() {
                            let bits: f64 = assignment
                                .iter()
                                .zip(row)
                                .filter(|&(&r, _)| r as usize == i)
                                .map(|(_, &rate)| rate)
                                .sum();
                            if bits > 0.0 && acks[i] {
                                prop_assert_eq!(
                                    cell.deliver(ue, bits as u64),
                                    oracle.deliver(ue, bits as u64)
                                );
                            }
                        }
                    }
                }
                prop_assert_eq!(cell.attached_ues(), &oracle.attached[..]);
                for &ue in &oracle.attached {
                    prop_assert_eq!(cell.queued_bits(ue), oracle.queues[&ue]);
                }
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn slice_scheduler_matches_keyed_oracle(
                start in arb_start(),
                ops in collection::vec(arb_op(13), 0..60),
            ) {
                check_history(on_cell(), start, ops)?;
            }

            /// The same on a 20 MHz cell, whose 25 subchannels the
            /// kernel scores one by one.
            #[test]
            fn slice_scheduler_matches_keyed_oracle_on_20_mhz(
                start in arb_start(),
                ops in collection::vec(arb_op(25), 0..60),
            ) {
                let mut cell = Cell::new(CellConfig {
                    bandwidth: ChannelBandwidth::Mhz20,
                    ..CellConfig::paper_default(ApId::new(0))
                });
                cell.set_carrier(carrier(), Dbm(20.0), Instant::ZERO);
                check_history(cell, start, ops)?;
            }
        }
    }
}
