//! MAC layer: the per-subframe LTE pipeline.
//!
//! Downlink: PF scheduling over each cell's allowed mask with
//! CQI-derived rates, transport blocks resolved against the *actual*
//! SINR through per-UE HARQ with chase combining, and control-channel
//! retention from neighbouring radios (the measured Fig 7(b) factor).
//! One pass per downlink subframe does all of it over dense slices and
//! engine-owned `*_scratch` buffers, so a steady-state subframe
//! allocates only the delivery list it returns (and, on a network large
//! enough to split, the workers' threads). Scheduling reads only shared
//! state and draws no randomness, so it fans out over contiguous runs
//! of cells; its rates come from a per-subchannel table already scaled
//! by the subframe's TDD capacity. HARQ resolution fans out over the
//! per-UE `MacRow`s, reading each UE's grants from one dense mask
//! array beside them: each granted UE's transport block is resolved on
//! its own row, drawing from the row's own RNG stream. A serial apply
//! pass then delivers in cell order, each cell's UEs in ascending id.
//! Uplink subframes are silent: downlink pauses and no cell transmits.
//! The §3.1 uplink (TCP ACKs in a sliver of the channel) is modelled by
//! `fig1`'s link-level loop, not here. Mobility (A3 handover with X2
//! data forwarding) and the RRC radio-link-failure timers live here too.
//!
//! Whether a cell may transmit at all this subframe is the IM layer's
//! call: the subframe loop asks the configured strategy's
//! `transmit_gate` (only LAA gates; every other system always allows).

use super::{im, LteEngine, N_CQI};
use crate::parallel;
use cellfi_lte::amc::{Cqi, CqiTable};
use cellfi_lte::control::signalling_retention;
use cellfi_lte::grid::{ResourceGrid, MAX_SUBCHANNELS};
use cellfi_lte::harq::{HarqEntity, HarqOutcome};
use cellfi_lte::scheduler::UNASSIGNED;
use cellfi_types::time::Duration;
use cellfi_types::units::Db;
use cellfi_types::{SubchannelId, UeId};
use rand::rngs::StdRng;

/// Information bits one subchannel of `grid` carries per subframe at
/// each CQI, `[subchannel][cqi]`: `efficiency(cqi) ·
/// data_res_per_subframe(s)`, zero at CQI 0.
pub(super) fn eff_re_table(grid: &ResourceGrid) -> Vec<[f64; N_CQI]> {
    (0..grid.num_subchannels())
        .map(|s| {
            let res = grid.data_res_per_subframe(SubchannelId::new(s));
            let mut row = [0.0; N_CQI];
            for e in CqiTable.entries() {
                row[usize::from(e.cqi.0)] = e.efficiency * res;
            }
            row
        })
        .collect()
}

/// Bits one subchannel carries this subframe at `cqi`, given its row
/// of the `eff_re` table, the TDD downlink capacity and the UE's
/// control-channel retention. Zero at CQI 0. The downlink pass reads
/// the same bits as `eff_cap[s][cqi] · retention`: Rust multiplies left
/// to right, so this is `(eff_re · dl_capacity) · retention`, and
/// `eff_re[s][0]` is 0.0.
#[inline]
fn rate(eff_re: &[f64; N_CQI], cqi: Cqi, dl_capacity: f64, retention: f64) -> f64 {
    if cqi.usable() {
        eff_re[usize::from(cqi.0)] * dl_capacity * retention
    } else {
        0.0
    }
}

/// `eff_cap[s][cqi] = eff_re[s][cqi] * dl_capacity` for every entry.
fn scale_rates(eff_re: &[[f64; N_CQI]], dl_capacity: f64, eff_cap: &mut [[f64; N_CQI]]) {
    for (cap_row, re_row) in eff_cap.iter_mut().zip(eff_re) {
        for (cap, &re) in cap_row.iter_mut().zip(re_row) {
            *cap = re * dl_capacity;
        }
    }
}

/// Fewest cells per scheduling worker: below two workers' worth the
/// pass stays on the caller's thread (the CQI scan's row threshold).
const MIN_CELLS_PER_WORKER: usize = 64;

/// One UE's MAC state. Everything a UE's transport block touches in the
/// per-UE step of [`LteEngine::downlink_pass`] is reached through its
/// own row, so that step fans out over runs of rows. The UE's grants
/// sit beside the rows, in the engine's dense `grant_mask`.
#[derive(Debug, Clone)]
pub(super) struct MacRow {
    /// This subframe's transport block, the HARQ outcome and the bits
    /// it carries: set by the per-UE step when a grant is usable,
    /// taken by the apply pass.
    block: Option<(HarqOutcome, u64)>,
    harq: HarqEntity,
    /// The UE's own RNG stream: HARQ decode draws and CellFi's sensing
    /// observations.
    pub(super) rng: StdRng,
    /// Downlink subframes this epoch in which the UE was scheduled on
    /// each subchannel (reset at every epoch boundary).
    pub(super) sched_subframes: [u32; MAX_SUBCHANNELS],
}

impl MacRow {
    pub(super) fn new(rng: StdRng) -> MacRow {
        MacRow {
            block: None,
            harq: HarqEntity::new(),
            rng,
            sched_subframes: [0; MAX_SUBCHANNELS],
        }
    }
}

/// The set bits of a subchannel mask, ascending.
fn subchannels_in(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let s = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            s
        })
    })
}

/// One scheduling worker's working space, reused across cells and
/// subframes.
#[derive(Debug, Default)]
pub(super) struct MacScratch {
    /// One cell's rate rows, row-major `[ue][subchannel]` in attach
    /// order.
    rates: Vec<f64>,
    /// The PF scheduler's remaining-backlog working space.
    remaining: Vec<f64>,
}

/// [`LteEngine::rate_bits`] of one UE on every subchannel, into `row`,
/// from its CQI row and retention, through the capacity-scaled
/// `eff_cap` table; all zero while the UE reconnects.
// cellfi-lint: hot
fn rate_row(
    eff_cap: &[[f64; N_CQI]],
    cqi: &[Cqi],
    retention: f64,
    reconnecting: bool,
    row: &mut [f64],
) {
    if reconnecting {
        row.fill(0.0);
        return;
    }
    for ((r, eff_cap), &cqi) in row.iter_mut().zip(eff_cap).zip(cqi) {
        *r = eff_cap[usize::from(cqi.0)] * retention;
    }
}

impl LteEngine {
    /// Radio-link-failure timer: this long with no decodable subchannel
    /// while backlogged and the RRC connection drops (3GPP T310-style).
    pub const RLF_TIMER_MS: u32 = 200;

    /// Reconnection time after an RRC drop: cell search on the known
    /// carrier plus random access (the paper measured 56 s for a full
    /// multi-band scan; a drop on a known serving carrier recovers much
    /// faster).
    pub const RECONNECT: Duration = Duration::from_secs(3);

    /// Fewest UE rows per worker of the downlink pass's per-UE HARQ
    /// step: below two workers' worth it stays on the caller's thread.
    /// The paper's 48 and the web workload's 60 UEs stay serial; the
    /// fig9metro district drop's 576 and metro's 100,000 split.
    pub const MIN_UES_PER_HARQ_WORKER: usize = 256;

    /// Control-plane SINR towards the strongest *other* radiating cell
    /// (drives the Fig 7 signalling-interference retention). Only
    /// candidate neighbors compete — a culled cell's control presence is
    /// below the floor by construction.
    fn control_sinr(&self, ue: usize) -> Db {
        let ap = self.scenario.assoc[ue];
        let nbr = &self.scenario.nbr;
        let mut strongest_other = f64::NEG_INFINITY;
        for (link, &c) in nbr.links(ue).zip(nbr.candidates(ue)) {
            let c = c as usize;
            if c != ap && self.cell_active(c) {
                strongest_other =
                    strongest_other.max(self.dl_mean_dbm[link] + self.power_offset_db[c]);
            }
        }
        if strongest_other.is_finite() {
            Db(
                self.dl_mean_dbm[self.serving_link(ue)] + self.power_offset_db[ap]
                    - strongest_other,
            )
        } else {
            Db(100.0) // no other radio: effectively clean
        }
    }

    pub(super) fn recompute_retention(&mut self) {
        self.retention = (0..self.scenario.n_ues())
            .map(|u| signalling_retention(self.control_sinr(u)))
            .collect();
    }

    /// Bits one subchannel can carry for a UE this subframe at its CQI.
    /// Zero while the UE is reconnecting after a radio-link failure.
    pub(super) fn rate_bits(&self, ue: usize, s: usize, dl_capacity: f64) -> f64 {
        if self.now < self.outage_until[ue] {
            return 0.0;
        }
        rate(
            &self.eff_re[s],
            self.ue_cqi.at(ue, s),
            dl_capacity,
            self.retention[ue],
        )
    }

    /// Run one subframe. Returns `(ue, bits)` deliveries.
    pub fn step_subframe(&mut self) -> Vec<(usize, u64)> {
        self.obs.profiler.begin(cellfi_obs::SpanId::Subframe);
        self.refresh_fading();
        let dl_capacity = self.tdd.dl_capacity(self.now);
        let deliveries = if dl_capacity > 0.0 {
            self.dl_subframes_this_epoch += 1;
            self.downlink_pass(dl_capacity);
            self.delivery_scratch.clone()
        } else {
            // Uplink subframe: GPS-synchronized TDD means downlink data
            // pauses everywhere. The engine offers no uplink traffic
            // (`fig1` holds the §3.1 uplink model), so every subchannel's
            // transmitter set is empty.
            for row in self.tx_last.iter_mut() {
                row.clear();
            }
            self.tracker.observe(&self.tx_last);
            Vec::new()
        };

        self.now += Duration::SUBFRAME;

        if self.now.is_multiple_of(Duration::CQI_PERIOD) {
            self.refresh_fading();
            self.measure_cqi();
        }
        if self.now.is_multiple_of(Duration::IM_EPOCH) {
            self.obs.profiler.begin(cellfi_obs::SpanId::ImEpoch);
            self.run_epoch();
            self.obs.profiler.end(cellfi_obs::SpanId::ImEpoch);
            if self.obs.detail {
                self.emit_epoch_detail();
            }
        }
        if self.obs.monitors.is_armed() {
            let facts = self.tick_facts();
            self.obs.monitors.check_tick(&facts);
        }
        self.obs.profiler.end(cellfi_obs::SpanId::Subframe);
        deliveries
    }

    /// The MAC work of one downlink subframe: gate, schedule every cell,
    /// build the transmitter sets, resolve every granted UE's transport
    /// block through HARQ, and apply the outcomes into
    /// `delivery_scratch`. It reads dense slices and writes only
    /// engine-owned buffers, so a steady-state subframe allocates
    /// nothing here beyond the workers' threads when the network is
    /// large enough to split.
    // cellfi-lint: hot
    fn downlink_pass(&mut self, dl_capacity: f64) {
        let n_sub = self.grid.num_subchannels() as usize;
        self.delivery_scratch.clear();
        if self.eff_cap_for != dl_capacity {
            scale_rates(&self.eff_re, dl_capacity, &mut self.eff_cap);
            self.eff_cap_for = dl_capacity;
        }
        // 0. The IM layer decides who may transmit this subframe
        // (LAA's listen-before-talk gates on last subframe's sensed
        // energy; every other system always allows).
        im::strategy_for(self.config.mode).transmit_gate(self);
        // 1. Schedule every gated, active, backlogged cell into its row
        // of `assignment_scratch` (UE ids; `UNASSIGNED` for every
        // subchannel of a cell that does not schedule). The step reads
        // only shared state and writes only cell `c`'s row, so cells
        // fan out over contiguous runs; each worker fills rate rows
        // into its own `mac_scratch` entry.
        self.obs.profiler.begin(cellfi_obs::SpanId::MacSchedule);
        let (gate, lease_ok, cells) = (&self.gate_scratch, &self.lease_ok, &self.cells);
        let (eff_cap, ue_cqi, retention) = (&self.eff_cap, &self.ue_cqi, &self.retention);
        let (outage_until, now) = (&self.outage_until, self.now);
        parallel::for_each_ragged_with(
            &mut self.assignment_scratch,
            n_sub,
            cells.len(),
            |c| c + 1,
            MIN_CELLS_PER_WORKER,
            &mut self.mac_scratch,
            |c, assignment, scratch| {
                let cell = &cells[c];
                // Gated, `cell_active` (lease and radio) and backlogged;
                // workers read the engine's fields, never the engine.
                if !gate[c] || !lease_ok[c] || !cell.radio_on() || cell.total_queued_bits() == 0 {
                    assignment.fill(UNASSIGNED);
                    return;
                }
                let ues = cell.attached_ues();
                scratch.rates.resize(ues.len() * n_sub, 0.0);
                for (row, ue) in scratch.rates.chunks_exact_mut(n_sub).zip(ues) {
                    let u = ue.index();
                    let reconnecting = now < outage_until[u];
                    rate_row(eff_cap, ue_cqi.row(u), retention[u], reconnecting, row);
                }
                cell.schedule_downlink(&scratch.rates, &mut scratch.remaining, assignment);
                // Attach-order rows to UE ids while the attach list is
                // in cache.
                for slot in assignment.iter_mut().filter(|slot| **slot != UNASSIGNED) {
                    *slot = ues[*slot as usize].index() as u32;
                }
            },
        );
        self.obs.profiler.end(cellfi_obs::SpanId::MacSchedule);
        let assignment_scratch = std::mem::take(&mut self.assignment_scratch);
        // 2. Per-subchannel transmitter sets, each scheduled UE's grant
        // mask in `grant_mask`, and the apply order of step 3b: cells in
        // order, each cell's UEs in ascending id (an insertion per UE,
        // since a cell grants at most n_sub UEs).
        let mut tx_scratch = std::mem::take(&mut self.tx_scratch);
        for row in tx_scratch.iter_mut() {
            row.clear();
        }
        let mut granted_scratch = std::mem::take(&mut self.granted_scratch);
        granted_scratch.clear();
        for (c, assignment) in assignment_scratch.chunks_exact(n_sub).enumerate() {
            let mut scheduled_any = false;
            let run = granted_scratch.len();
            for (s, &ue) in assignment.iter().enumerate() {
                if ue != UNASSIGNED {
                    tx_scratch[s].push(c);
                    let grants = &mut self.grant_mask[ue as usize];
                    if *grants == 0 {
                        let mut k = granted_scratch.len();
                        granted_scratch.push((c as u32, ue));
                        while k > run && granted_scratch[k - 1].1 > ue {
                            granted_scratch.swap(k - 1, k);
                            k -= 1;
                        }
                    }
                    *grants |= 1 << s;
                    scheduled_any = true;
                }
            }
            if scheduled_any {
                self.epoch_cell_sched[c] += 1;
            }
        }
        // The transmitter sets just built are exactly next subframe's
        // `tx_last`, so warming the interference cache here makes the
        // upcoming CQI scan a cache hit as well.
        self.tracker.observe(&tx_scratch);
        self.obs.profiler.begin(cellfi_obs::SpanId::SinrCache);
        self.interf.refresh(
            self.gain_gen,
            &self.tracker,
            &self.scenario.nbr,
            &self.lin_mw,
        );
        self.obs.profiler.end(cellfi_obs::SpanId::SinrCache);
        // 3a. Resolve each granted UE's transport block on its own MAC
        // row: effective SINR over its grants in ascending subchannel
        // order, the highest CQI among them, the bits they carry, then
        // one HARQ draw from the row's own RNG stream. A worker reads
        // the grants from the shared mask array, so it touches no row
        // without grants, reaches no other row, and each stream belongs
        // to one row, so which thread draws cannot change what is drawn.
        let process = (self.now.as_millis() % 8) as usize;
        let (lin_mw, interf, noise_mw) = (&self.lin_mw, &self.interf, &self.noise_mw);
        let (nbr, serving_slot) = (&self.scenario.nbr, &self.serving_slot);
        let grant_mask = &self.grant_mask;
        parallel::for_each_row(
            &mut self.mac_rows,
            Self::MIN_UES_PER_HARQ_WORKER,
            |ue, row| {
                let grants = grant_mask[ue];
                if grants == 0 {
                    return;
                }
                let serving = nbr.links(ue).start + serving_slot[ue] as usize;
                let reconnecting = now < outage_until[ue];
                let cqi_row = ue_cqi.row(ue);
                let (mut linear_sum, mut bits) = (0.0, 0.0);
                let mut cqi = Cqi::OUT_OF_RANGE;
                for s in subchannels_in(grants) {
                    // The serving cell transmits on `s` by construction;
                    // its share of the cached total is the signal itself.
                    let signal = lin_mw.at(serving, s);
                    let interference = (interf.total(s, ue) - signal).max(0.0);
                    linear_sum += signal / (interference + noise_mw[s]);
                    let sc_cqi = cqi_row[s];
                    cqi = cqi.max(sc_cqi);
                    if !reconnecting {
                        bits += eff_cap[s][usize::from(sc_cqi.0)] * retention[ue];
                    }
                }
                if !cqi.usable() {
                    return;
                }
                let mean_linear = linear_sum / f64::from(grants.count_ones());
                let eff_sinr = Db(10.0 * mean_linear.max(1e-12).log10());
                let outcome = row.harq.transmit(process, cqi, eff_sinr, &mut row.rng);
                for s in subchannels_in(grants) {
                    row.sched_subframes[s] += 1;
                }
                row.block = Some((outcome, bits as u64));
            },
        );
        // 3b. Apply the outcomes in step 2's order: queues and PF
        // averages, deliveries, events.
        for &(c, ue) in &granted_scratch {
            self.grant_mask[ue as usize] = 0;
            let Some((outcome, bits)) = self.mac_rows[ue as usize].block.take() else {
                continue;
            };
            let c = c as usize;
            match outcome {
                HarqOutcome::Ack { .. } => {
                    let drained = self.cells[c].deliver(UeId::new(ue), bits);
                    self.delivered[ue as usize] += drained;
                    if drained > 0 {
                        self.delivery_scratch.push((ue as usize, drained));
                    }
                }
                HarqOutcome::Nack => {
                    if self.obs.detail {
                        self.obs.tracer.emit(
                            self.now,
                            cellfi_obs::Event::HarqRetx {
                                ue,
                                cell: c as u32,
                                process: process as u32,
                            },
                        );
                        self.obs.metrics.inc("harq_retx", ue, 1);
                        self.epoch_retx[c] += 1;
                    }
                }
                // `HarqEntity::drops` counts the dropped block.
                HarqOutcome::Dropped => {}
            }
        }
        self.granted_scratch = granted_scratch;
        self.assignment_scratch = assignment_scratch;
        std::mem::swap(&mut self.tx_last, &mut tx_scratch);
        self.tx_scratch = tx_scratch;
    }

    /// Detail-stream epoch bookkeeping: one `sched` event per cell with
    /// the occupancy decision just taken (its allowed mask for the
    /// coming epoch), per-epoch samples into the `sched_occupancy` and
    /// `harq_retx_per_epoch` histograms, and a window snapshot of every
    /// histogram so the metrics export carries per-epoch distributions.
    fn emit_epoch_detail(&mut self) {
        for c in 0..self.cells.len() {
            let mut mask_bits = 0u32;
            let mut owned = 0u32;
            for (s, &allowed) in self.cells[c].allowed_mask().iter().enumerate() {
                if allowed {
                    mask_bits |= 1 << s;
                    owned += 1;
                }
            }
            self.obs.tracer.emit(
                self.now,
                cellfi_obs::Event::Sched {
                    cell: c as u32,
                    mask_bits,
                    owned,
                },
            );
            self.obs
                .metrics
                .observe("sched_occupancy", c as u32, f64::from(owned));
            self.obs
                .metrics
                .observe("harq_retx_per_epoch", c as u32, self.epoch_retx[c] as f64);
            self.epoch_retx[c] = 0;
        }
        self.obs.metrics.snapshot_window(self.now);
    }

    /// A3-style handover check for one client: switch to a neighbour cell
    /// whose downlink is at least `hysteresis_db` stronger than the
    /// serving cell's. Queued downlink data is forwarded over X2 (the
    /// lossless-handover behaviour CellFi inherits from LTE, §7).
    /// Returns the new serving cell if a handover happened.
    pub fn check_handover(&mut self, ue: usize, hysteresis_db: f64) -> Option<usize> {
        let serving = self.scenario.assoc[ue];
        // Only candidate neighbors are handover targets: anything culled
        // is below the floor and cannot beat the serving cell by the
        // hysteresis. Update on ties (`!is_lt`) to keep `max_by`'s
        // last-maximal-element choice.
        let mut best: Option<(usize, usize, f64)> = None;
        let first = self.scenario.nbr.links(ue).start;
        for (sl, &c) in self.scenario.nbr.candidates(ue).iter().enumerate() {
            let c = c as usize;
            if !self.cell_active(c) {
                continue;
            }
            let dbm = self.dl_mean_dbm[first + sl];
            if best.is_none_or(|(_, _, b)| !dbm.total_cmp(&b).is_lt()) {
                best = Some((c, sl, dbm));
            }
        }
        let (best, best_slot, best_dbm) = best?;
        let serving_dbm = self.dl_mean_dbm[self.serving_link(ue)];
        if best == serving || best_dbm < serving_dbm + hysteresis_db {
            return None;
        }
        let ueid = UeId::new(ue as u32);
        let pending = self.cells[serving].queued_bits(ueid);
        // Detaching drops the UE's queue and PF average at the old cell;
        // attaching starts a fresh average at the new one.
        self.cells[serving].detach(ueid);
        self.cells[best].attach(ueid);
        if pending > 0 {
            self.cells[best].enqueue(ueid, pending); // X2 data forwarding
        }
        self.scenario.assoc[ue] = best;
        self.serving_slot[ue] = best_slot as u32;
        // Fresh HARQ state towards the new cell, and a new association
        // generation: memoized CQI scans keyed on the old serving cells
        // must miss from here on.
        self.mac_rows[ue].harq = HarqEntity::new();
        self.assoc_gen += 1;
        self.handovers += 1;
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellfi_lte::grid::ChannelBandwidth;
    use cellfi_lte::tdd::SPECIAL_DL_FRACTION;

    /// The capacity-scaled table the downlink pass reads gives `rate`'s
    /// bits exactly, CQI 0 included, at both downlink capacities.
    #[test]
    fn scaled_rate_table_matches_rate_bit_for_bit() {
        let eff_re = eff_re_table(&ResourceGrid::new(ChannelBandwidth::Mhz5));
        let mut eff_cap = vec![[f64::NAN; N_CQI]; eff_re.len()];
        for cap in [1.0, SPECIAL_DL_FRACTION] {
            scale_rates(&eff_re, cap, &mut eff_cap);
            for (s, (re_row, cap_row)) in eff_re.iter().zip(&eff_cap).enumerate() {
                for q in 0..=Cqi::MAX.0 {
                    for ret in [0.0, 1e-300, 0.37, 1.0] {
                        let expect = rate(re_row, Cqi(q), cap, ret);
                        let got = cap_row[usize::from(q)] * ret;
                        assert_eq!(
                            got.to_bits(),
                            expect.to_bits(),
                            "s={s} cqi={q} cap={cap} ret={ret}"
                        );
                    }
                }
            }
        }
    }
}
