//! MAC layer: the per-subframe LTE pipeline.
//!
//! Downlink: PF scheduling over each cell's allowed mask with
//! CQI-derived rates, transport blocks resolved against the *actual*
//! SINR through per-UE HARQ with chase combining, and control-channel
//! retention from neighbouring radios (the measured Fig 7(b) factor).
//! Uplink: PF grants over the same masks with the §3.1 single-carrier
//! power concentration. Mobility (A3 handover with X2 data forwarding)
//! and the RRC radio-link-failure timers live here too.
//!
//! Whether a cell may transmit at all this subframe is the IM layer's
//! call: the subframe loop asks the configured strategy's
//! `transmit_gate` (only LAA gates; every other system always allows).

use super::{im, LteEngine};
use cellfi_lte::amc::Cqi;
use cellfi_lte::control::signalling_retention;
use cellfi_lte::harq::{HarqEntity, HarqOutcome};
use cellfi_types::time::Duration;
use cellfi_types::units::{Db, Dbm};
use cellfi_types::{SubchannelId, UeId};

impl LteEngine {
    /// Radio-link-failure timer: this long with no decodable subchannel
    /// while backlogged and the RRC connection drops (3GPP T310-style).
    pub const RLF_TIMER_MS: u32 = 200;

    /// Reconnection time after an RRC drop: cell search on the known
    /// carrier plus random access (the paper measured 56 s for a full
    /// multi-band scan; a drop on a known serving carrier recovers much
    /// faster).
    pub const RECONNECT: Duration = Duration::from_secs(3);

    /// Control-plane SINR towards the strongest *other* radiating cell
    /// (drives the Fig 7 signalling-interference retention). Only
    /// candidate neighbors compete — a culled cell's control presence is
    /// below the floor by construction.
    fn control_sinr(&self, ue: usize) -> Db {
        let ap = self.scenario.assoc[ue];
        let mut strongest_other = f64::NEG_INFINITY;
        for (sl, &c) in self.scenario.nbr.candidates(ue).iter().enumerate() {
            let c = c as usize;
            if c != ap && self.cell_active(c) {
                strongest_other =
                    strongest_other.max(self.dl_mean_dbm.at(ue, sl) + self.power_offset_db[c]);
            }
        }
        if strongest_other.is_finite() {
            Db(
                self.dl_mean_dbm.at(ue, self.serving_slot[ue] as usize) + self.power_offset_db[ap]
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
    // cellfi-lint: hot
    pub(super) fn rate_bits(&self, ue: usize, s: usize, dl_capacity: f64) -> f64 {
        if self.now < self.outage_until[ue] {
            return 0.0;
        }
        let cqi = self.ue_cqi[ue][s];
        if !cqi.usable() {
            return 0.0;
        }
        self.table.efficiency(cqi)
            * self.grid.data_res_per_subframe(SubchannelId::new(s as u32))
            * dl_capacity
            * self.retention[ue]
    }

    /// Run one subframe. Returns `(ue, bits)` deliveries.
    pub fn step_subframe(&mut self) -> Vec<(usize, u64)> {
        self.obs.profiler.begin(cellfi_obs::SpanId::Subframe);
        self.refresh_fading();
        let n_sub = self.grid.num_subchannels() as usize;
        let mut deliveries = Vec::new();
        let dl_capacity = self.tdd.dl_capacity(self.now);
        if dl_capacity > 0.0 {
            self.dl_subframes_this_epoch += 1;
            // 0. The IM layer decides who may transmit this subframe
            // (LAA's listen-before-talk gates on last subframe's sensed
            // energy; every other system always allows).
            let may_transmit: Vec<bool> = im::strategy_for(self.config.mode).transmit_gate(self);
            // 1. Schedule every cell. UE lists and rate rows live in
            // engine-owned scratch buffers, but the subframe still
            // allocates: `may_transmit`, `allocations`, and per cell the
            // demand rows `Cell::schedule_downlink` clones and the
            // vectors `Scheduler::allocate` builds.
            self.obs.profiler.begin(cellfi_obs::SpanId::MacSchedule);
            let mut allocations: Vec<Option<cellfi_lte::scheduler::Allocation>> =
                vec![None; self.cells.len()];
            let mut ues = std::mem::take(&mut self.ue_scratch);
            let mut rates = std::mem::take(&mut self.rates_scratch);
            for c in 0..self.cells.len() {
                if !may_transmit[c] {
                    continue;
                }
                if !self.cell_active(c) || self.cells[c].total_queued_bits() == 0 {
                    continue;
                }
                ues.clear();
                ues.extend_from_slice(self.cells[c].attached_ues());
                if rates.len() < ues.len() {
                    rates.resize_with(ues.len(), Vec::new);
                }
                for (row, ue) in rates.iter_mut().zip(&ues) {
                    row.clear();
                    row.extend((0..n_sub).map(|s| self.rate_bits(ue.index(), s, dl_capacity)));
                }
                allocations[c] = Some(self.cells[c].schedule_downlink(&rates[..ues.len()]));
            }
            self.ue_scratch = ues;
            self.rates_scratch = rates;
            self.obs.profiler.end(cellfi_obs::SpanId::MacSchedule);
            // 2. Per-subchannel transmitter sets (scratch-backed rows).
            let mut tx = std::mem::take(&mut self.tx_scratch);
            if tx.len() != n_sub {
                tx.resize_with(n_sub, Vec::new);
            }
            for row in tx.iter_mut() {
                row.clear();
            }
            for (c, alloc) in allocations.iter().enumerate() {
                if let Some(a) = alloc {
                    let mut scheduled_any = false;
                    for (s, assigned) in a.assignment.iter().enumerate() {
                        if assigned.is_some() {
                            tx[s].push(c);
                            scheduled_any = true;
                        }
                    }
                    if scheduled_any {
                        self.epoch_cell_sched[c] += 1;
                    }
                }
            }
            // 3. Resolve transport blocks per UE through HARQ. The
            // transmitter sets just built are exactly next subframe's
            // `tx_last`, so warming the interference cache here makes the
            // upcoming CQI scan a cache hit as well.
            self.tracker.observe(&tx);
            self.obs.profiler.begin(cellfi_obs::SpanId::SinrCache);
            self.interf.refresh(
                self.gain_gen,
                &self.tracker,
                &self.scenario.nbr,
                &self.lin_mw,
            );
            self.obs.profiler.end(cellfi_obs::SpanId::SinrCache);
            let mut pairs = std::mem::take(&mut self.pairs_scratch);
            for (c, alloc) in allocations.iter().enumerate() {
                let Some(a) = alloc else { continue };
                // Group the cell's grants by UE. A stable sort keeps
                // subchannels ascending within each UE group and UEs
                // ascending overall — the iteration order of the
                // BTreeMap this replaces (an allocation holds at most
                // n_sub pairs, well inside the sort's no-alloc
                // insertion-sort regime).
                pairs.clear();
                for (s, assigned) in a.assignment.iter().enumerate() {
                    if let Some(ue) = assigned {
                        pairs.push((ue.index() as u32, s as u32));
                    }
                }
                pairs.sort_by_key(|&(ue, _)| ue);
                let mut i = 0;
                while i < pairs.len() {
                    let ue = pairs[i].0 as usize;
                    let mut j = i + 1;
                    while j < pairs.len() && pairs[j].0 == pairs[i].0 {
                        j += 1;
                    }
                    let scs = &pairs[i..j];
                    i = j;
                    let mean_linear = scs
                        .iter()
                        .map(|&(_, s)| {
                            let s = s as usize;
                            // The serving cell `c` transmits on `s` by
                            // construction; its share of the cached total
                            // is the signal itself.
                            let signal = self.lin_mw.at(ue, self.serving_slot[ue] as usize, s);
                            let interference = (self.interf.total(s, ue) - signal).max(0.0);
                            signal / (interference + self.noise_mw[s])
                        })
                        .sum::<f64>()
                        / scs.len() as f64;
                    let eff_sinr = Db(10.0 * mean_linear.max(1e-12).log10());
                    let cqi = scs
                        .iter()
                        .map(|&(_, s)| self.ue_cqi[ue][s as usize])
                        .max()
                        .unwrap_or(Cqi::OUT_OF_RANGE);
                    if !cqi.usable() {
                        continue;
                    }
                    let bits: f64 = scs
                        .iter()
                        .map(|&(_, s)| self.rate_bits(ue, s as usize, dl_capacity))
                        .sum();
                    let process = (self.now.as_millis() % 8) as usize;
                    let outcome =
                        self.harq[ue].transmit(process, cqi, eff_sinr, &mut self.ue_rng[ue]);
                    for &(_, s) in scs {
                        self.epoch[ue].sched_subframes[s as usize] += 1;
                    }
                    match outcome {
                        HarqOutcome::Ack { .. } => {
                            let drained = self.cells[c].deliver(UeId::new(ue as u32), bits as u64);
                            self.delivered[ue] += drained;
                            if drained > 0 {
                                deliveries.push((ue, drained));
                            }
                        }
                        HarqOutcome::Nack => {
                            if self.obs.detail {
                                self.obs.tracer.emit(
                                    self.now,
                                    cellfi_obs::Event::HarqRetx {
                                        ue: ue as u32,
                                        cell: c as u32,
                                        process: process as u32,
                                    },
                                );
                                self.obs.metrics.inc("harq_retx", ue as u32, 1);
                                self.epoch_retx[c] += 1;
                            }
                        }
                        HarqOutcome::Dropped => {
                            self.harq_drops[ue] += 1;
                        }
                    }
                }
            }
            self.pairs_scratch = pairs;
            std::mem::swap(&mut self.tx_last, &mut tx);
            self.tx_scratch = tx;
        } else {
            // Uplink subframe: GPS-synchronized TDD means downlink data
            // pauses everywhere while the uplink runs. Uplink deliveries
            // accumulate in `ul_delivered_bits` (the return value carries
            // downlink deliveries only, which is what the web-workload
            // consumers track).
            let _ = self.step_uplink();
            for row in self.tx_last.iter_mut() {
                row.clear();
            }
            self.tracker.observe(&self.tx_last);
        }

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

    /// Instantaneous uplink SINR (dB) at `cell` for its UE `ue` on
    /// subchannel `s`, given all concurrently transmitting UEs and their
    /// per-subchannel powers.
    ///
    /// `tx[s]` lists `(ue, per_sc_power_offset_db)` of UEs granted
    /// subchannel `s` this subframe, where the offset is the
    /// concentration term `−10·log10(granted_subchannels)`.
    fn ul_sinr_db(&self, cell: usize, ue: usize, s: usize, tx: &[Vec<(usize, f64)>]) -> f64 {
        let sc = SubchannelId::new(s as u32);
        let fade = |u: usize| {
            self.scenario
                .env
                .fading
                .gain(
                    self.scenario.ues[u].node,
                    self.scenario.aps[cell].node,
                    sc,
                    self.now,
                )
                .value()
        };
        let mut signal = 0.0f64;
        let mut interference = 0.0f64;
        for &(u, offset) in &tx[s] {
            // An interfering UE whose path to `cell` was culled is below
            // the floor by construction; the served UE's own cell is
            // always a candidate.
            let Some(sl) = self.scenario.nbr.slot(u, cell) else {
                continue;
            };
            let p = Dbm(self.ul_mean_dbm.at(u, sl) + offset + fade(u))
                .to_milliwatts()
                .value();
            if u == ue {
                signal = p;
            } else {
                interference += p;
            }
        }
        10.0 * (signal / (interference + self.noise_mw[s])).log10()
    }

    /// Run one uplink subframe: each cell grants its allowed subchannels
    /// to backlogged UEs (PF), UEs concentrate their 20 dBm across their
    /// grants, and transport blocks resolve against UL-UL interference
    /// through per-UE uplink HARQ. GPS-synchronized TDD (§4.1) means no
    /// DL↔UL cross interference. Returns `(ue, bits)` deliveries.
    fn step_uplink(&mut self) -> Vec<(usize, u64)> {
        let n_sub = self.grid.num_subchannels() as usize;
        let mut deliveries = Vec::new();
        // 1. Grants per cell over its allowed mask.
        let mut grants: Vec<Vec<usize>> = vec![Vec::new(); self.scenario.n_ues()];
        for c in 0..self.cells.len() {
            if !self.cell_active(c) {
                continue;
            }
            let ues: Vec<UeId> = self.cells[c]
                .attached_ues()
                .iter()
                .copied()
                .filter(|u| self.ul_queue[u.index()] > 0)
                .collect();
            if ues.is_empty() {
                continue;
            }
            // Rate estimate: sounding-based genie of the clean channel,
            // assuming single-subchannel concentration (full power).
            let demands: Vec<cellfi_lte::scheduler::UeDemand> = ues
                .iter()
                .map(|&u| {
                    let rates = (0..n_sub)
                        .map(|s| {
                            let sc = SubchannelId::new(s as u32);
                            let fade = self
                                .scenario
                                .env
                                .fading
                                .gain(
                                    self.scenario.ues[u.index()].node,
                                    self.scenario.aps[c].node,
                                    sc,
                                    self.now,
                                )
                                .value();
                            // `c` is this UE's serving cell (it is
                            // attached), so the slot is the serving slot.
                            let snr = self
                                .ul_mean_dbm
                                .at(u.index(), self.serving_slot[u.index()] as usize)
                                + fade
                                - 10.0 * self.noise_mw[s].log10();
                            let cqi = self.table.cqi_for_sinr(Db(snr));
                            if cqi.usable() {
                                self.table.efficiency(cqi) * self.grid.data_res_per_subframe(sc)
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    cellfi_lte::scheduler::UeDemand {
                        ue: u,
                        backlog_bits: self.ul_queue[u.index()],
                        rate_per_subchannel: rates,
                    }
                })
                .collect();
            let allowed = self.cells[c].allowed_mask().to_vec();
            let alloc = self.ul_scheduler[c].allocate(&allowed, &demands);
            for (s, assigned) in alloc.assignment.iter().enumerate() {
                if let Some(u) = assigned {
                    grants[u.index()].push(s);
                }
            }
        }
        // 2. Concentration offsets and the transmitter sets.
        let mut tx: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_sub];
        for (u, scs) in grants.iter().enumerate() {
            if scs.is_empty() {
                continue;
            }
            let offset = -10.0 * (scs.len() as f64).log10();
            for &s in scs {
                tx[s].push((u, offset));
            }
        }
        // 3. Resolve per UE through uplink HARQ.
        for (u, ue_grants) in grants.iter().enumerate() {
            if ue_grants.is_empty() {
                continue;
            }
            let cell = self.scenario.assoc[u];
            let mean_linear = ue_grants
                .iter()
                .map(|&s| Db(self.ul_sinr_db(cell, u, s, &tx)).to_linear())
                .sum::<f64>()
                / ue_grants.len() as f64;
            let eff_sinr = Db(10.0 * mean_linear.max(1e-12).log10());
            let cqi = self.table.cqi_for_sinr(eff_sinr);
            if !cqi.usable() {
                continue;
            }
            let bits: f64 = ue_grants
                .iter()
                .map(|&s| {
                    self.table.efficiency(cqi)
                        * self.grid.data_res_per_subframe(SubchannelId::new(s as u32))
                })
                .sum();
            let process = (self.now.as_millis() % 8) as usize;
            let outcome = self.ul_harq[u].transmit(process, cqi, eff_sinr, &mut self.ue_rng[u]);
            if let HarqOutcome::Ack { .. } = outcome {
                let drained = (bits as u64).min(self.ul_queue[u]);
                self.ul_queue[u] -= drained;
                self.ul_delivered[u] += drained;
                if drained > 0 {
                    deliveries.push((u, drained));
                }
            }
        }
        deliveries
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
        for (sl, &c) in self.scenario.nbr.candidates(ue).iter().enumerate() {
            let c = c as usize;
            if !self.cell_active(c) {
                continue;
            }
            let dbm = self.dl_mean_dbm.at(ue, sl);
            if best.is_none_or(|(_, _, b)| !dbm.total_cmp(&b).is_lt()) {
                best = Some((c, sl, dbm));
            }
        }
        let (best, best_slot, best_dbm) = best?;
        let serving_dbm = self.dl_mean_dbm.at(ue, self.serving_slot[ue] as usize);
        if best == serving || best_dbm < serving_dbm + hysteresis_db {
            return None;
        }
        let ueid = UeId::new(ue as u32);
        let pending = self.cells[serving].queued_bits(ueid);
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
        self.harq[ue] = HarqEntity::new();
        self.ul_harq[ue] = HarqEntity::new();
        self.assoc_gen += 1;
        self.handovers += 1;
        Some(best)
    }
}
