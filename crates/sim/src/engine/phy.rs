//! PHY layer: propagation caches and channel measurement.
//!
//! Everything here is a pure function of the scenario geometry, the
//! fading process, and simulation time: the static mean-gain matrices
//! built at construction, the per-coherence-block refresh of the
//! instantaneous linear gain tensor, the memoized per-subchannel
//! interference accumulation, and the CQI measurement scan (which also
//! hosts the radio-link-failure monitor, because RLF is declared from
//! the same per-subchannel decodability the CQI reports measure).
//!
//! Data layout: the hot tensors are flat strided slabs
//! ([`crate::slab`]) indexed `[ue][neighbor_slot][s]` behind the
//! scenario's neighbor table ([`crate::topology::NeighborTable`]):
//! slot `sl` of UE `u` is its `sl`-th candidate AP in ascending id
//! order, so dense (uncapped) tables reproduce the old `[ue][ap][s]`
//! layout exactly while a cull floor shrinks the middle axis to the
//! near field. The gain pipeline is linear-domain end to end —
//! `static_mw[ue][slot][s]` precombines mean gain, EIRP offset and the
//! per-subchannel power split through one batched `10^(x/10)` pass
//! (rebuilt only when those inputs change), and a fading refresh is just
//! `static_mw × fading_power` over contiguous lanes. The CQI scan never
//! leaves the linear domain either: CQI comes from the bisected
//! [`cellfi_lte::amc::LinearCqiMap`] boundaries and the interference
//! test compares against a precomputed linear margin threshold, so dB
//! values are computed only for the rare interference-event trace.

use super::{LteEngine, INTERFERENCE_MARGIN};
use crate::slab::Slab2;
use crate::topology::Scenario;
use cellfi_core::ConflictGraph;
use cellfi_lte::grid::ResourceGrid;
use cellfi_obs::profile::SpanId;
use cellfi_obs::trace::{Event, EventSink};
use cellfi_types::time::{Duration, Instant};
use cellfi_types::units::{db_slab_to_mw, Dbm};
use cellfi_types::{ApId, SubchannelId, UeId};

/// The static link-budget matrices an engine precomputes at
/// construction: positions never move within a run (mobility goes
/// through [`LteEngine::move_ue`], which patches the affected row), so
/// the per-link means and the true conflict graph are computed once.
pub(crate) struct LinkMatrices {
    /// Mean downlink rx power (dBm) per `[ue][neighbor_slot]` at AP power.
    pub dl_mean_dbm: Slab2,
    /// Mean uplink rx power (dBm) per `[ue][neighbor_slot]` at full UE
    /// power.
    pub ul_mean_dbm: Slab2,
    /// Mean AP→AP rx power (dBm) per `[ap][interferer_slot]` at AP
    /// power — the LBT sensing input.
    pub ap_mean_dbm: Slab2,
    /// Per-subchannel noise floor, mW.
    pub noise_mw: Vec<f64>,
    /// True conflict graph from mean gains.
    pub conflict: ConflictGraph,
}

impl LinkMatrices {
    /// Build every static matrix for `scenario` on `grid`.
    pub fn build(scenario: &Scenario, grid: &ResourceGrid) -> Self {
        let n_sub = grid.num_subchannels() as usize;
        let n_ue = scenario.n_ues();
        let n_ap = scenario.aps.len();
        let env = &scenario.env;
        let nbr = &scenario.nbr;
        // Slot-indexed link matrices: column `sl` of row `u` is the UE's
        // `sl`-th candidate AP (ascending). With dense neighbor tables
        // the slots are exactly the global AP indices, so values and
        // layout match the old `[ue][ap]` matrices byte for byte.
        let mut dl_mean_dbm = Slab2::new(n_ue, nbr.max_neighbors, f64::NEG_INFINITY);
        let mut ul_mean_dbm = Slab2::new(n_ue, nbr.max_neighbors, f64::NEG_INFINITY);
        for u in 0..n_ue {
            for (sl, &a) in nbr.candidates(u).iter().enumerate() {
                let a = a as usize;
                dl_mean_dbm.set(
                    u,
                    sl,
                    env.mean_rx_power(&scenario.aps[a], scenario.config.ap_power, &scenario.ues[u])
                        .value(),
                );
                ul_mean_dbm.set(
                    u,
                    sl,
                    env.mean_rx_power(&scenario.ues[u], scenario.config.ue_power, &scenario.aps[a])
                        .value(),
                );
            }
        }
        let mut ap_mean_dbm = Slab2::new(n_ap, nbr.max_ap_neighbors, f64::NEG_INFINITY);
        for a in 0..n_ap {
            for (sl, &b) in nbr.interferers(a).iter().enumerate() {
                ap_mean_dbm.set(
                    a,
                    sl,
                    env.mean_rx_power(
                        &scenario.aps[b as usize],
                        scenario.config.ap_power,
                        &scenario.aps[a],
                    )
                    .value(),
                );
            }
        }
        let noise_mw: Vec<f64> = (0..n_sub)
            .map(|s| {
                env.noise
                    .floor_mw(grid.subchannel_bandwidth(SubchannelId::new(s as u32)))
                    .value()
            })
            .collect();

        // True conflict graph from mean gains (static). Candidate pairs
        // come from the interferer tables, and only clients of the two
        // endpoints can witness a conflict (the old all-UE scan returned
        // false for everyone else) — so the edge set is unchanged in
        // dense mode and near-field-restricted under a cull floor.
        let mut conflict = ConflictGraph::new(n_ap);
        let margin = INTERFERENCE_MARGIN.value();
        for i in 0..n_ap {
            for &j in nbr.interferers(i) {
                let j = j as usize;
                if j <= i {
                    continue;
                }
                let conflicts = nbr.clients(i).iter().chain(nbr.clients(j)).any(|&u| {
                    let u = u as usize;
                    let ap = scenario.assoc[u];
                    let other = if ap == i { j } else { i };
                    // A culled victim link cannot witness a conflict.
                    let (Some(ap_sl), Some(other_sl)) = (nbr.slot(u, ap), nbr.slot(u, other))
                    else {
                        return false;
                    };
                    let s_mw = Dbm(dl_mean_dbm.at(u, ap_sl)).to_milliwatts().value();
                    let i_mw = Dbm(dl_mean_dbm.at(u, other_sl)).to_milliwatts().value();
                    // Full-channel signal/interference powers against the
                    // full-channel noise floor (the per-subchannel power
                    // split cancels out of the ratio).
                    let n_mw: f64 = noise_mw.iter().sum();
                    let clean = s_mw / n_mw;
                    let with = s_mw / (i_mw + n_mw);
                    10.0 * (clean / with).log10() > margin
                });
                if conflicts {
                    conflict.add_edge(ApId::new(i as u32), ApId::new(j as u32));
                }
            }
        }

        LinkMatrices {
            dl_mean_dbm,
            ul_mean_dbm,
            ap_mean_dbm,
            noise_mw,
            conflict,
        }
    }
}

/// One radio-link-failure monitor tick for a UE, shared verbatim by the
/// live CQI scan and the memo replay so the two paths cannot drift: a
/// backlogged UE with no decodable subchannel accumulates bad time and
/// drops its RRC connection at the timer.
fn rlf_tick(
    now: Instant,
    any_usable: bool,
    queued: u64,
    outage_until: &mut Instant,
    bad_streak_ms: &mut u32,
    rrc_drops: &mut u64,
) {
    if now < *outage_until {
        return; // already reconnecting
    }
    if !any_usable && queued > 0 {
        *bad_streak_ms += Duration::CQI_PERIOD.as_millis() as u32;
        if *bad_streak_ms >= LteEngine::RLF_TIMER_MS {
            *outage_until = now + LteEngine::RECONNECT;
            *rrc_drops += 1;
            *bad_streak_ms = 0;
        }
    } else {
        *bad_streak_ms = 0;
    }
}

impl LteEngine {
    /// Rebuild the static linear-gain slab for one UE row:
    /// `static_mw[ue][slot][s] = 10^((mean + offset + split)/10)` through
    /// the batched conversion kernel, over the UE's candidate neighbor
    /// slots. `lane_db` is an `n_sub` scratch.
    pub(super) fn rebuild_static_row(&mut self, u: usize, lane_db: &mut [f64]) {
        // The static slab feeds every downstream gain cache; bump the
        // generation here so a rewritten row can never be replayed
        // through a stale interference column or memoized scan.
        self.gain_gen += 1;
        for (sl, &a) in self.scenario.nbr.candidates(u).iter().enumerate() {
            let base = self.dl_mean_dbm.at(u, sl) + self.power_offset_db[a as usize];
            for (slot, &split) in lane_db.iter_mut().zip(&self.split_db) {
                *slot = base + split;
            }
            db_slab_to_mw(lane_db, self.static_mw.lane_mut(u, sl));
        }
    }

    /// Rebuild the whole static slab (construction, EIRP offset change).
    pub(super) fn rebuild_static(&mut self) {
        let mut lane_db = vec![0.0; self.grid.num_subchannels() as usize];
        for u in 0..self.scenario.n_ues() {
            self.rebuild_static_row(u, &mut lane_db);
        }
    }

    /// Refresh the instantaneous linear gains when the fading block
    /// rolls: per lane, draw the fading power and multiply into the
    /// precombined static gains. All dB→linear math happened at static
    /// rebuild time, so the per-block work is one RNG draw and one
    /// multiply per element over contiguous lanes.
    // cellfi-lint: hot
    pub(super) fn refresh_fading(&mut self) {
        let coherence = self.scenario.env.fading.coherence();
        let block = self.now.as_micros() / coherence.as_micros();
        if block == self.fading_block {
            return;
        }
        self.fading_block = block;
        self.gain_gen += 1;
        let n_sub = self.grid.num_subchannels() as usize;
        let block_len = self.lin_mw.block_len();
        if block_len == 0 {
            return; // no UEs or no candidates: nothing to refresh
        }
        self.obs.profiler.begin(SpanId::FadingScan);
        // Per-UE blocks of the tensor are disjoint and the fading
        // process is a pure function of (nodes, subchannel, time), so
        // the refresh fans out across UE blocks. Only the valid neighbor
        // slots are refreshed; padding lanes stay zero and are never
        // read.
        let scenario = &self.scenario;
        let static_mw = &self.static_mw;
        let now = self.now;
        crate::parallel::for_each_chunk(self.lin_mw.as_mut_slice(), block_len, 8, |u, ue_block| {
            let ue_node = scenario.ues[u].node;
            let lanes = ue_block.chunks_exact_mut(n_sub).enumerate();
            for ((sl, lane), &a) in lanes.zip(scenario.nbr.candidates(u)) {
                let ap_node = scenario.aps[a as usize].node;
                scenario
                    .env
                    .fading
                    .fill_power_lane(ap_node, ue_node, now, lane);
                for (v, &st) in lane.iter_mut().zip(static_mw.lane(u, sl)) {
                    *v = st * (*v).max(1e-12);
                }
            }
        });
        self.obs.profiler.end(SpanId::FadingScan);
    }

    /// Instantaneous SINR for (ue, subchannel) given the transmitting
    /// cell set, from the cached linear gains. Production paths read the
    /// memoized [`InterferenceCache`] instead; this direct form is the
    /// reference the cache property tests compare against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(super) fn sinr_db(&self, ue: usize, s: usize, tx_cells: &[usize]) -> f64 {
        let ap = self.scenario.assoc[ue];
        let signal = self.lin_mw.at(ue, self.serving_slot[ue] as usize, s);
        let interference: f64 = tx_cells
            .iter()
            .filter(|&&c| c != ap)
            .filter_map(|&c| self.scenario.nbr.slot(ue, c))
            .map(|sl| self.lin_mw.at(ue, sl, s))
            .sum();
        10.0 * (signal / (interference + self.noise_mw[s])).log10()
    }

    /// Refresh every UE's sub-band CQI from the previous subframe's
    /// transmission pattern (mode 3-0 reports, 2 ms cadence), and run the
    /// radio-link-failure monitor: a backlogged UE that can decode no
    /// subchannel for [`LteEngine::RLF_TIMER_MS`] drops its RRC
    /// connection and spends [`LteEngine::RECONNECT`] re-attaching — the
    /// §6.3.1 "frequent disconnections" under strong data interference.
    ///
    /// The scan is a pure function of `(gain generation, association
    /// generation, per-subchannel transmitter-set ids)`; in steady state
    /// the two-slot [`super::cache::CqiMemo`] replays the remembered
    /// result (CQI values, interference events in scan order) and only
    /// the time-varying RLF bookkeeping runs live.
    // cellfi-lint: hot
    pub(super) fn measure_cqi(&mut self) {
        let n_sub = self.grid.num_subchannels() as usize;
        // Bring the per-subchannel interference columns up to date (a
        // no-op when neither the fading block nor any transmitter set
        // changed since the last accumulation).
        self.obs.profiler.begin(SpanId::SinrCache);
        self.interf.refresh(
            self.gain_gen,
            &self.tracker,
            &self.scenario.nbr,
            &self.lin_mw,
        );
        self.obs.profiler.end(SpanId::SinrCache);
        self.obs.profiler.begin(SpanId::CqiScan);

        if self.fast_path {
            if let Some(entry) = self
                .memo
                .lookup(self.gain_gen, self.assoc_gen, self.tracker.ids())
            {
                // Fast path: replay the remembered scan. CQI values are
                // restored wholesale; interference events re-apply
                // through the epoch flags in the same (ue, subchannel)
                // order the parallel scan's absorb step would emit them.
                for (row, saved) in self.ue_cqi.iter_mut().zip(entry.cqi.chunks_exact(n_sub)) {
                    row.copy_from_slice(saved);
                }
                let now = self.now;
                let tracer = &mut self.obs.tracer;
                for &(ue, s, sinr_v, clean_v) in &entry.hits {
                    let flags = &mut self.epoch[ue as usize].interfered;
                    if !flags[s as usize] {
                        flags[s as usize] = true;
                        tracer.emit(
                            now,
                            Event::CqiInterference {
                                ue,
                                subchannel: s,
                                sinr_db: sinr_v,
                                clean_db: clean_v,
                            },
                        );
                    }
                }
                // RLF depends on queue depths and outage timers, which
                // are time-varying: always run it live.
                for ue in 0..self.scenario.n_ues() {
                    let ap = self.scenario.assoc[ue];
                    let queued = self.cells[ap].queued_bits(UeId::new(ue as u32));
                    rlf_tick(
                        now,
                        entry.any_usable[ue],
                        queued,
                        &mut self.outage_until[ue],
                        &mut self.bad_streak_ms[ue],
                        &mut self.rrc_drops[ue],
                    );
                }
                self.obs.profiler.end(SpanId::CqiScan);
                return;
            }
        }

        let interf = &self.interf;
        let tracker = &self.tracker;
        let lin_mw = &self.lin_mw;
        let noise_mw = &self.noise_mw;
        let interf_thresh_mw = &self.interf_thresh_mw;
        let linmap = &self.linmap;
        let assoc = &self.scenario.assoc;
        let serving_slot = &self.serving_slot;
        let cells = &self.cells;
        let now = self.now;

        // Everything below is per-UE: CQI rows, epoch interference flags
        // and the RLF monitor touch only their own UE's state and draw no
        // randomness, so the scan fans out across UE rows.
        struct UeRow<'a> {
            cqi: &'a mut Vec<cellfi_lte::amc::Cqi>,
            epoch: &'a mut super::UeEpoch,
            bad_streak_ms: &'a mut u32,
            outage_until: &'a mut Instant,
            rrc_drops: &'a mut u64,
            any_usable: &'a mut bool,
            /// Interference hits (flag state ignored) for the memo;
            /// borrows the engine's per-UE scratch buffer so the
            /// steady-state scan allocates nothing once warm.
            hit_scratch: &'a mut Vec<(u32, u32, f64, f64)>,
            /// Per-row event buffer: rows emit concurrently, the caller
            /// absorbs the buffers back in UE index order so the merged
            /// trace is independent of worker scheduling.
            sink: EventSink,
        }
        let tracer = &mut self.obs.tracer;
        let mut row_scratch: Vec<UeRow> = self
            .ue_cqi
            .iter_mut()
            .zip(self.epoch.iter_mut())
            .zip(self.bad_streak_ms.iter_mut())
            .zip(self.outage_until.iter_mut())
            .zip(self.rrc_drops.iter_mut())
            .zip(self.any_usable_scratch.iter_mut())
            .zip(self.hit_scratch.iter_mut())
            .map(
                |(
                    (((((cqi, epoch), bad_streak_ms), outage_until), rrc_drops), any_usable),
                    hit_scratch,
                )| {
                    hit_scratch.clear();
                    UeRow {
                        cqi,
                        epoch,
                        bad_streak_ms,
                        outage_until,
                        rrc_drops,
                        any_usable,
                        hit_scratch,
                        sink: tracer.fork(),
                    }
                },
            )
            .collect();
        // Each row is only ~n_sub float ops but this scan fires every
        // CQI period (2 ms of sim time): below 64 rows per worker the
        // spawn cost dwarfs the row work, so small scenarios stay serial.
        crate::parallel::for_each_row(&mut row_scratch, 64, |ue, row| {
            let ap = assoc[ue];
            let mut any_usable = false;
            let ids = tracker.ids();
            // The serving lane lives at the UE's serving neighbor slot;
            // transmitter membership stays keyed by global AP id.
            for (s, &signal) in lin_mw
                .lane(ue, serving_slot[ue] as usize)
                .iter()
                .enumerate()
            {
                // The cached column totals every transmitter including
                // the serving cell; remove its share to get interference.
                let own = if tracker.is_member(s, ap) {
                    signal
                } else {
                    0.0
                };
                let interference = (interf.total(s, ue) - own).max(0.0);
                let cqi = linmap.cqi_for_linear(signal / (interference + noise_mw[s]));
                row.cqi[s] = cqi;
                any_usable |= cqi.usable();
                // Interference ground truth, in the linear domain:
                // `sinr < clean − margin` ⟺ `interference > noise·(10^(margin/10) − 1)`.
                // The dB values are computed only on a hit, for the
                // trace payload and the memo.
                if ids[s] != 0 && interference > interf_thresh_mw[s] {
                    let sinr_v = 10.0 * (signal / (interference + noise_mw[s])).log10();
                    let clean_v = 10.0 * (signal / noise_mw[s]).log10();
                    row.hit_scratch.push((ue as u32, s as u32, sinr_v, clean_v));
                    if !row.epoch.interfered[s] {
                        row.epoch.interfered[s] = true;
                        row.sink.emit(
                            now,
                            Event::CqiInterference {
                                ue: ue as u32,
                                subchannel: s as u32,
                                sinr_db: sinr_v,
                                clean_db: clean_v,
                            },
                        );
                    }
                }
            }
            *row.any_usable = any_usable;
            let queued = cells[ap].queued_bits(UeId::new(ue as u32));
            rlf_tick(
                now,
                any_usable,
                queued,
                row.outage_until,
                row.bad_streak_ms,
                row.rrc_drops,
            );
        });
        self.scan_hits_scratch.clear();
        for row in row_scratch {
            self.scan_hits_scratch.extend_from_slice(row.hit_scratch);
            tracer.absorb(row.sink);
        }
        if self.fast_path {
            self.memo.store(
                self.gain_gen,
                self.assoc_gen,
                self.tracker.ids(),
                &self.ue_cqi,
                &self.any_usable_scratch,
                &self.scan_hits_scratch,
            );
        }
        self.obs.profiler.end(SpanId::CqiScan);
    }

    /// Move a client to a new position, refreshing its link matrices.
    /// Fading realizations are keyed by node ids and time, so they evolve
    /// naturally; only the large-scale gains need recomputation.
    ///
    /// The candidate neighbor set is *not* rebuilt: mobility experiments
    /// run dense (no cull floor), where every AP is already a candidate.
    /// A culled scenario keeps the candidate set of the drop position.
    pub fn move_ue(&mut self, ue: usize, position: cellfi_types::geo::Point) {
        self.scenario.ues[ue].position = position;
        for (sl, &a) in self.scenario.nbr.candidates(ue).iter().enumerate() {
            let a = a as usize;
            self.dl_mean_dbm.set(
                ue,
                sl,
                self.scenario
                    .env
                    .mean_rx_power(
                        &self.scenario.aps[a],
                        self.scenario.config.ap_power,
                        &self.scenario.ues[ue],
                    )
                    .value(),
            );
            self.ul_mean_dbm.set(
                ue,
                sl,
                self.scenario
                    .env
                    .mean_rx_power(
                        &self.scenario.ues[ue],
                        self.scenario.config.ue_power,
                        &self.scenario.aps[a],
                    )
                    .value(),
            );
        }
        // Refresh the static and instantaneous gains for this UE
        // immediately (and invalidate interference columns and memoized
        // scans accumulated over the old row). The subchannel power
        // split is precomputed in `split_db` — it depends only on the
        // subchannel, never on the (ap, subchannel) pair.
        self.gain_gen += 1;
        let n_sub = self.grid.num_subchannels() as usize;
        let mut lane = vec![0.0; n_sub];
        self.rebuild_static_row(ue, &mut lane);
        let ue_node = self.scenario.ues[ue].node;
        for (sl, &a) in self.scenario.nbr.candidates(ue).iter().enumerate() {
            let ap_node = self.scenario.aps[a as usize].node;
            self.scenario
                .env
                .fading
                .fill_power_lane(ap_node, ue_node, self.now, &mut lane);
            let static_lane = self.static_mw.lane(ue, sl);
            for ((v, &p), &st) in self
                .lin_mw
                .lane_mut(ue, sl)
                .iter_mut()
                .zip(&lane)
                .zip(static_lane)
            {
                *v = st * p.max(1e-12);
            }
        }
    }
}
