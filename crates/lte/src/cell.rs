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

use crate::earfcn::Earfcn;
use crate::grid::{ChannelBandwidth, ResourceGrid};
use crate::scheduler::{Allocation, Scheduler, SchedulerKind, UeDemand};
use crate::sib::SystemInformation;
use crate::tdd::TddConfig;
use cellfi_types::time::Instant;
use cellfi_types::units::Dbm;
use cellfi_types::{ApId, UeId};
use std::collections::BTreeMap;

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
    /// The standard proportional-fair scheduler (§4.3: CellFi leaves it
    /// unmodified).
    scheduler: Scheduler,
    sib: Option<SystemInformation>,
    attached: Vec<UeId>,
    /// Downlink queue per UE, bits. BTreeMap for deterministic iteration.
    queues: BTreeMap<UeId, u64>,
    /// Interference-management mask: which subchannels may be scheduled.
    allowed: Vec<bool>,
}

impl Cell {
    /// A cell with its radio off (no carrier configured).
    pub fn new(config: CellConfig) -> Cell {
        let grid = ResourceGrid::new(config.bandwidth);
        let n = grid.num_subchannels() as usize;
        Cell {
            scheduler: Scheduler::new(SchedulerKind::ProportionalFair),
            grid,
            config,
            sib: None,
            attached: Vec::new(),
            queues: BTreeMap::new(),
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
        for ue in self.attached.drain(..) {
            self.scheduler.forget(ue);
        }
        self.queues.clear();
    }

    /// Attach a UE (after its RACH completes). No-op if already attached.
    pub fn attach(&mut self, ue: UeId) {
        assert!(self.radio_on(), "cannot attach to a cell with radio off");
        if !self.attached.contains(&ue) {
            self.attached.push(ue);
            self.queues.entry(ue).or_insert(0);
        }
    }

    /// Detach a UE.
    pub fn detach(&mut self, ue: UeId) {
        self.attached.retain(|&u| u != ue);
        self.queues.remove(&ue);
        self.scheduler.forget(ue);
    }

    /// Attached UEs in attach order.
    pub fn attached_ues(&self) -> &[UeId] {
        &self.attached
    }

    /// Number of *active* clients: attached UEs with queued traffic. This
    /// is the `N_i` of the share calculation (§5.2).
    pub fn active_clients(&self) -> usize {
        self.attached
            .iter()
            .filter(|u| self.queues.get(u).copied().unwrap_or(0) > 0)
            .count()
    }

    /// Enqueue downlink data for a UE (bits).
    pub fn enqueue(&mut self, ue: UeId, bits: u64) {
        assert!(self.attached.contains(&ue), "enqueue for unattached {ue}");
        *self.queues.get_mut(&ue).expect("attached UEs have queues") += bits;
    }

    /// Bits queued for a UE.
    pub fn queued_bits(&self, ue: UeId) -> u64 {
        self.queues.get(&ue).copied().unwrap_or(0)
    }

    /// Total queued bits. Saturating: experiment harnesses backlog every
    /// UE with a `u64::MAX / 4` sentinel, so a cell with five or more
    /// backlogged clients sums past `u64::MAX`; callers only compare the
    /// total against zero, and a saturated total cannot reach zero.
    pub fn total_queued_bits(&self) -> u64 {
        self.queues.values().fold(0u64, |a, &b| a.saturating_add(b))
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

    /// Run the scheduler for one downlink subframe. `rates[i][s]` is the
    /// achievable bits for attached UE `i` (attach order) on subchannel
    /// `s` this subframe, as derived from its latest CQI report by the
    /// caller (the system engine owns SINR computation).
    pub fn schedule_downlink(&mut self, rates: &[Vec<f64>]) -> Allocation {
        assert_eq!(rates.len(), self.attached.len(), "one rate row per UE");
        let demands: Vec<UeDemand> = self
            .attached
            .iter()
            .zip(rates)
            .map(|(&ue, r)| UeDemand {
                ue,
                backlog_bits: self.queued_bits(ue),
                rate_per_subchannel: r.clone(),
            })
            .collect();
        self.scheduler.allocate(&self.allowed, &demands)
    }

    /// Record delivery of `bits` to `ue` (dequeues and feeds the PF
    /// average). Returns the bits actually drained (≤ queue depth).
    pub fn deliver(&mut self, ue: UeId, bits: u64) -> u64 {
        let q = self
            .queues
            .get_mut(&ue)
            .expect("delivery only targets attached UEs");
        let drained = bits.min(*q);
        *q -= drained;
        self.scheduler.record_served(ue, drained as f64);
        drained
    }

    /// Feed a zero-service observation for UEs not served this subframe
    /// (keeps the PF average honest).
    pub fn record_unserved(&mut self, ue: UeId) {
        self.scheduler.record_served(ue, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earfcn::{Band, Earfcn};

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
        let rates = vec![vec![100.0; n]];
        let alloc = c.schedule_downlink(&rates);
        assert_eq!(alloc.used_count(), 2);
        assert!(alloc.assignment[3].is_some() && alloc.assignment[7].is_some());
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
}
