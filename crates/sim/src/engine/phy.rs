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
//! ([`crate::slab`]) indexed `[link][s]`, where a link is one (UE,
//! candidate AP) pair of the scenario's neighbor table
//! ([`crate::topology::NeighborTable::links`]). A UE's links follow its
//! candidate APs in ascending id order, so dense (uncapped) tables
//! reproduce the old `[ue][ap][s]` layout exactly, while under a cull
//! floor the slabs hold only the links the cull keeps, with no padding
//! to the longest row. The gain pipeline is linear-domain end to end —
//! `static_mw[link][s]` precombines mean gain, EIRP offset and the
//! per-subchannel power split through one batched `10^(x/10)` pass
//! (rebuilt only when those inputs change), and a fading refresh is just
//! `static_mw × fading_power` over contiguous lanes. Without a fading
//! process there is one gain slab: the rebuild writes the static gains
//! straight into `lin_mw`, which no refresh touches. The CQI scan never
//! leaves the linear domain either: CQI comes from
//! [`cellfi_lte::amc::LinearCqiMap`], whose boundaries are bisected once,
//! at construction, and each lookup is a binary search over them; the
//! interference test compares against a precomputed linear margin
//! threshold, so dB values are computed only for the rare
//! interference-event trace. Per-UE state with one entry per subchannel
//! (`ue_cqi`, the epoch's interference flags) lives in `[ue][subchannel]`
//! slabs, so a run of UEs is one contiguous slice of each.
//!
//! The CQI scan is one loop over UEs that touches only the subchannel
//! columns the memo's plan names ([`super::cache::ColumnPlan`]): columns
//! copied back from a remembered slot, columns computed afresh, and
//! columns whose interference hits must be re-tested once per epoch.
//! Its per-UE state is cut into runs of consecutive UEs (`ScanRows`), so
//! a scan that computes a column can fan out while every other scan runs
//! serially without allocating.

use super::cache::{bits, ColumnPlan, InterferenceCache, TxSetTracker};
use super::{LteEngine, INTERFERENCE_MARGIN};
use crate::slab::Slab2;
use crate::topology::{NeighborTable, Scenario};
use cellfi_core::ConflictGraph;
use cellfi_lte::amc::{Cqi, LinearCqiMap};
use cellfi_lte::grid::ResourceGrid;
use cellfi_obs::profile::SpanId;
use cellfi_obs::trace::{Event, EventSink};
use cellfi_types::time::{Duration, Instant};
use cellfi_types::units::{db_slab_to_mw, Dbm};
use cellfi_types::{ApId, SubchannelId};

/// The static link-budget matrices an engine precomputes at
/// construction: positions never move within a run (mobility goes
/// through [`LteEngine::move_ue`], which patches the affected row), so
/// the per-link means and the true conflict graph are computed once.
pub(crate) struct LinkMatrices {
    /// Mean downlink rx power (dBm) per link at AP power.
    pub dl_mean_dbm: Vec<f64>,
    /// Mean uplink rx power (dBm) per link at full UE power.
    pub ul_mean_dbm: Vec<f64>,
    /// Mean AP→AP rx power (dBm) per interferer link at AP power — the
    /// LBT sensing input.
    pub ap_mean_dbm: Vec<f64>,
    /// Per-subchannel noise floor, mW.
    pub noise_mw: Vec<f64>,
    /// True conflict graph from mean gains.
    pub conflict: ConflictGraph,
}

impl LinkMatrices {
    /// Build every static matrix for `scenario` on `grid`.
    pub fn build(scenario: &Scenario, grid: &ResourceGrid) -> Self {
        let n_sub = grid.num_subchannels() as usize;
        let n_ap = scenario.aps.len();
        let env = &scenario.env;
        let nbr = &scenario.nbr;
        // Links ascend by UE, then by candidate slot (ascending AP id),
        // so pushing in that order puts every value at its link id. One
        // budget per link gives both directions' means.
        let mut dl_mean_dbm = Vec::with_capacity(nbr.n_links());
        let mut ul_mean_dbm = Vec::with_capacity(nbr.n_links());
        for (u, ue) in scenario.ues.iter().enumerate() {
            for &a in nbr.candidates(u) {
                let budget = env.link_budget(&scenario.aps[a as usize], ue);
                dl_mean_dbm.push(budget.a_to_b(scenario.config.ap_power).value());
                ul_mean_dbm.push(budget.b_to_a(scenario.config.ue_power).value());
            }
        }
        let mut ap_mean_dbm = Vec::with_capacity(nbr.n_interferer_links());
        for (a, ap) in scenario.aps.iter().enumerate() {
            for &b in nbr.interferers(a) {
                let other = &scenario.aps[b as usize];
                ap_mean_dbm.push(
                    env.mean_rx_power(other, scenario.config.ap_power, ap)
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
                    let first = nbr.links(u).start;
                    let s_mw = Dbm(dl_mean_dbm[first + ap_sl]).to_milliwatts().value();
                    let i_mw = Dbm(dl_mean_dbm[first + other_sl]).to_milliwatts().value();
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

/// One radio-link-failure monitor tick for a UE: a backlogged UE with
/// no decodable subchannel accumulates bad time and drops its RRC
/// connection at the timer.
fn rlf_tick(
    now: Instant,
    any_usable: bool,
    backlogged: bool,
    outage_until: &mut Instant,
    bad_streak_ms: &mut u32,
    rrc_drops: &mut u64,
) {
    if now < *outage_until {
        return; // already reconnecting
    }
    if !any_usable && backlogged {
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

/// Everything a CQI scan reads: its column plan and the inputs its
/// computed columns and hit tests are a function of. Shared by every
/// run of a fanned-out scan.
struct ScanInputs<'a> {
    plan: ColumnPlan,
    n_sub: usize,
    now: Instant,
    interf: &'a InterferenceCache,
    tracker: &'a TxSetTracker,
    lin_mw: &'a Slab2,
    noise_mw: &'a [f64],
    interf_thresh_mw: &'a [f64],
    linmap: &'a LinearCqiMap,
    assoc: &'a [usize],
    nbr: &'a NeighborTable,
    serving_slot: &'a [u32],
    /// Per UE: whether its serving cell holds queued bits for it.
    backlogged: &'a [bool],
}

/// The per-UE state one run of a CQI scan owns: UEs
/// `first..first + any_usable.len()`, their rows of the `[ue][subchannel]`
/// CQI and interference-flag slabs, and their rows of the memo's two
/// slot tables.
struct ScanRows<'a> {
    first: usize,
    cqi: &'a mut [Cqi],
    interfered: &'a mut [bool],
    any_usable: &'a mut [bool],
    bad_streak_ms: &'a mut [u32],
    outage_until: &'a mut [Instant],
    rrc_drops: &'a mut [u64],
    tables: [&'a mut [Cqi]; 2],
}

impl<'a> ScanRows<'a> {
    /// Cut the first `len` UEs off as one run; the rest is the second.
    fn split_at(self, len: usize, n_sub: usize) -> (ScanRows<'a>, ScanRows<'a>) {
        let (cqi, cqi_rest) = self.cqi.split_at_mut(len * n_sub);
        let (interfered, interfered_rest) = self.interfered.split_at_mut(len * n_sub);
        let (any_usable, any_usable_rest) = self.any_usable.split_at_mut(len);
        let (bad_streak_ms, bad_streak_rest) = self.bad_streak_ms.split_at_mut(len);
        let (outage_until, outage_rest) = self.outage_until.split_at_mut(len);
        let (rrc_drops, rrc_rest) = self.rrc_drops.split_at_mut(len);
        let [t0, t1] = self.tables;
        let (t0, t0_rest) = t0.split_at_mut(len * n_sub);
        let (t1, t1_rest) = t1.split_at_mut(len * n_sub);
        (
            ScanRows {
                first: self.first,
                cqi,
                interfered,
                any_usable,
                bad_streak_ms,
                outage_until,
                rrc_drops,
                tables: [t0, t1],
            },
            ScanRows {
                first: self.first + len,
                cqi: cqi_rest,
                interfered: interfered_rest,
                any_usable: any_usable_rest,
                bad_streak_ms: bad_streak_rest,
                outage_until: outage_rest,
                rrc_drops: rrc_rest,
                tables: [t0_rest, t1_rest],
            },
        )
    }

    /// Scan these UEs: per UE, copy the planned columns from slot 0,
    /// then slot 1; compute or re-test the rest in ascending subchannel
    /// order (so events keep their `(ue, subchannel)` order); recompute
    /// `any_usable` only if a column changed; then run the RLF tick. A
    /// scan that keeps every column reads no CQI row at all.
    // cellfi-lint: hot
    fn scan(&mut self, x: &ScanInputs, sink: &mut EventSink) {
        let plan = x.plan;
        let n_sub = x.n_sub;
        let ids = x.tracker.ids();
        let work = plan.compute | plan.retest;
        let [t0, t1] = &mut self.tables;
        let saved = t0.chunks_exact_mut(n_sub).zip(t1.chunks_exact_mut(n_sub));
        let flags = self.interfered.chunks_exact_mut(n_sub);
        let live = self.cqi.chunks_exact_mut(n_sub).zip(flags);
        for (i, ((saved0, saved1), (row, flags))) in saved.zip(live).enumerate() {
            let ue = self.first + i;
            if plan.changed() | work != 0 {
                copy_columns(row, saved0, plan.copy[0]);
                copy_columns(row, saved1, plan.copy[1]);
                if work != 0 {
                    let ap = x.assoc[ue];
                    // The serving lane is the UE's link at its serving
                    // neighbor slot; set membership stays keyed by AP id.
                    let serving = x.nbr.links(ue).start + x.serving_slot[ue] as usize;
                    let signals = x.lin_mw.row(serving);
                    for s in bits(work) {
                        let signal = signals[s];
                        // The cached column totals every transmitter
                        // including the serving cell; remove its share
                        // to get interference.
                        let own = if x.tracker.is_member(s, ap) {
                            signal
                        } else {
                            0.0
                        };
                        let interference = (x.interf.total(s, ue) - own).max(0.0);
                        let bit = 1u64 << s;
                        if plan.compute & bit != 0 {
                            let cqi = x
                                .linmap
                                .cqi_for_linear(signal / (interference + x.noise_mw[s]));
                            row[s] = cqi;
                            if plan.store[0] & bit != 0 {
                                saved0[s] = cqi;
                            } else if plan.store[1] & bit != 0 {
                                saved1[s] = cqi;
                            }
                        }
                        // Interference ground truth, in the linear domain:
                        // `sinr < clean − margin` ⟺
                        // `interference > noise·(10^(margin/10) − 1)`.
                        // The dB values are computed only for an event.
                        if ids[s] != 0 && interference > x.interf_thresh_mw[s] && !flags[s] {
                            flags[s] = true;
                            let noise = x.noise_mw[s];
                            sink.emit(
                                x.now,
                                Event::CqiInterference {
                                    ue: ue as u32,
                                    subchannel: s as u32,
                                    sinr_db: 10.0 * (signal / (interference + noise)).log10(),
                                    clean_db: 10.0 * (signal / noise).log10(),
                                },
                            );
                        }
                    }
                }
                if plan.changed() != 0 {
                    self.any_usable[i] = row.iter().any(|c| c.usable());
                }
            }
            rlf_tick(
                x.now,
                self.any_usable[i],
                x.backlogged[ue],
                &mut self.outage_until[i],
                &mut self.bad_streak_ms[i],
                &mut self.rrc_drops[i],
            );
        }
    }
}

/// Restore the columns in `mask` of one UE's CQI row from a slot table
/// row: one slice copy when the slot supplies every column.
// cellfi-lint: hot
fn copy_columns(row: &mut [Cqi], saved: &[Cqi], mask: u64) {
    if mask.count_ones() as usize == row.len() {
        row.copy_from_slice(saved);
    } else {
        for s in bits(mask) {
            row[s] = saved[s];
        }
    }
}

impl LteEngine {
    /// Rebuild the static linear gains of one UE's links:
    /// `static_mw[link][s] = 10^((mean + offset + split)/10)` through
    /// the batched conversion kernel. Without a fading process the
    /// instantaneous gains are the static ones, so they go straight into
    /// `lin_mw`, the slab the readers use. `lane_db` is an `n_sub`
    /// scratch.
    pub(super) fn rebuild_static_row(&mut self, u: usize, lane_db: &mut [f64]) {
        // The static gains feed every downstream gain cache; bump the
        // generation here so a rewritten row can never be replayed
        // through a stale interference column or memoized scan.
        self.gain_gen += 1;
        let fading_off = self.scenario.env.fading.is_disabled();
        let nbr = &self.scenario.nbr;
        for (link, &a) in nbr.links(u).zip(nbr.candidates(u)) {
            let base = self.dl_mean_dbm[link] + self.power_offset_db[a as usize];
            for (slot, &split) in lane_db.iter_mut().zip(&self.split_db) {
                *slot = base + split;
            }
            let lane = if fading_off {
                self.lin_mw.row_mut(link)
            } else {
                self.static_mw.row_mut(link)
            };
            db_slab_to_mw(lane_db, lane);
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
    /// multiply per element over contiguous lanes. Without a fading
    /// process nothing rolls: `lin_mw` already holds the static gains,
    /// and the generation (hence every cache keyed on it) stays put.
    // cellfi-lint: hot
    pub(super) fn refresh_fading(&mut self) {
        if self.scenario.env.fading.is_disabled() {
            return;
        }
        let coherence = self.scenario.env.fading.coherence();
        let block = self.now.as_micros() / coherence.as_micros();
        if block == self.fading_block {
            return;
        }
        self.fading_block = block;
        self.gain_gen += 1;
        let n_sub = self.grid.num_subchannels() as usize;
        if self.lin_mw.as_slice().is_empty() {
            return; // no links: nothing to refresh
        }
        self.obs.profiler.begin(SpanId::FadingScan);
        // One UE's lanes are a contiguous run of rows, disjoint from
        // every other UE's, and the fading process is a pure function
        // of (nodes, subchannel, time), so the refresh fans out across
        // whole UEs, split at their link boundaries.
        let scenario = &self.scenario;
        let nbr = &scenario.nbr;
        let static_mw = &self.static_mw;
        let now = self.now;
        crate::parallel::for_each_ragged(
            self.lin_mw.as_mut_slice(),
            n_sub,
            scenario.n_ues(),
            |u| nbr.links(u).end,
            8,
            |u, ue_lanes| {
                let ue_node = scenario.ues[u].node;
                let lanes = ue_lanes.chunks_exact_mut(n_sub).zip(nbr.links(u));
                for ((lane, link), &a) in lanes.zip(nbr.candidates(u)) {
                    let ap_node = scenario.aps[a as usize].node;
                    scenario
                        .env
                        .fading
                        .fill_power_lane(ap_node, ue_node, now, lane);
                    for (v, &st) in lane.iter_mut().zip(static_mw.row(link)) {
                        *v = st * (*v).max(1e-12);
                    }
                }
            },
        );
        self.obs.profiler.end(SpanId::FadingScan);
    }

    /// Instantaneous SINR for (ue, subchannel) given the transmitting
    /// cell set, from the cached linear gains. Production paths read the
    /// memoized [`InterferenceCache`] instead; this direct form is the
    /// reference the cache property tests compare against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(super) fn sinr_db(&self, ue: usize, s: usize, tx_cells: &[usize]) -> f64 {
        let ap = self.scenario.assoc[ue];
        let first = self.scenario.nbr.links(ue).start;
        let signal = self.lin_mw.at(self.serving_link(ue), s);
        let interference: f64 = tx_cells
            .iter()
            .filter(|&&c| c != ap)
            .filter_map(|&c| self.scenario.nbr.slot(ue, c))
            .map(|sl| self.lin_mw.at(first + sl, s))
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
    /// Each subchannel column is a pure function of `(gain generation,
    /// association generation, the column's transmitter-set id)`, so
    /// [`super::cache::CqiMemo`] plans the scan column by column: a
    /// column keeps what `ue_cqi` holds, is copied back from one of its
    /// two remembered keys, or is computed. One loop serves all three;
    /// a kept or copied column re-tests its interference hits the first
    /// time its slot is used in an epoch, and the time-varying RLF
    /// bookkeeping always runs live. A scan that computes a column fans
    /// out over runs of UEs (one event sink per run, absorbed in run
    /// order); every other scan runs on the caller's thread and
    /// allocates nothing.
    // cellfi-lint: hot
    pub(super) fn measure_cqi(&mut self) {
        let n_sub = self.grid.num_subchannels() as usize;
        let n_ue = self.scenario.n_ues();
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
        let plan = self.memo.plan(
            self.gain_gen,
            self.assoc_gen,
            self.tracker.ids(),
            self.fast_path,
        );
        // One backlog bit per UE, from one pass over the attach lists:
        // a UE on no serving attach list reads 0, as `queued_bits` does.
        let assoc = &self.scenario.assoc;
        self.backlogged_scratch.fill(false);
        for (c, cell) in self.cells.iter().enumerate() {
            for (ue, &bits) in cell.attached_ues().iter().zip(cell.queue_depths()) {
                if bits > 0 && assoc[ue.index()] == c {
                    self.backlogged_scratch[ue.index()] = true;
                }
            }
        }
        let inputs = ScanInputs {
            plan,
            n_sub,
            now: self.now,
            interf: &self.interf,
            tracker: &self.tracker,
            lin_mw: &self.lin_mw,
            noise_mw: &self.noise_mw,
            interf_thresh_mw: &self.interf_thresh_mw,
            linmap: &self.linmap,
            assoc,
            nbr: &self.scenario.nbr,
            serving_slot: &self.serving_slot,
            backlogged: &self.backlogged_scratch,
        };
        let mut rows = ScanRows {
            first: 0,
            cqi: self.ue_cqi.as_mut_slice(),
            interfered: self.interfered.as_mut_slice(),
            any_usable: &mut self.any_usable,
            bad_streak_ms: &mut self.bad_streak_ms,
            outage_until: &mut self.outage_until,
            rrc_drops: &mut self.rrc_drops,
            tables: self.memo.tables_mut(),
        };
        let tracer = &mut self.obs.tracer;
        // A computed column costs ~n_sub float ops per UE, every CQI
        // period: below 64 UEs per worker the spawn costs more than the
        // rows. Copies and re-tests never fan out.
        let workers = if plan.compute == 0 {
            1
        } else {
            crate::parallel::workers(n_ue, 64)
        };
        if workers <= 1 {
            let mut sink = tracer.fork();
            rows.scan(&inputs, &mut sink);
            tracer.absorb(sink);
        } else {
            // Runs are ascending UE ranges, so absorbing their sinks in
            // run order keeps events in (ue, subchannel) order.
            let mut run_scratch = Vec::with_capacity(workers);
            let mut rest = rows;
            for (lo, hi) in crate::parallel::chunk_bounds(n_ue, workers) {
                let (run, tail) = rest.split_at(hi - lo, n_sub);
                run_scratch.push((run, tracer.fork()));
                rest = tail;
            }
            crate::parallel::for_each_row(&mut run_scratch, 1, |_, (run, sink)| {
                run.scan(&inputs, sink);
            });
            for (_, sink) in run_scratch {
                tracer.absorb(sink);
            }
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
        let scenario = &self.scenario;
        let (env, client) = (&scenario.env, &scenario.ues[ue]);
        for (link, &a) in scenario.nbr.links(ue).zip(scenario.nbr.candidates(ue)) {
            let budget = env.link_budget(&scenario.aps[a as usize], client);
            self.dl_mean_dbm[link] = budget.a_to_b(scenario.config.ap_power).value();
            self.ul_mean_dbm[link] = budget.b_to_a(scenario.config.ue_power).value();
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
        if self.scenario.env.fading.is_disabled() {
            return; // the rebuild wrote the gains the readers use
        }
        let nbr = &self.scenario.nbr;
        let ue_node = self.scenario.ues[ue].node;
        for (link, &a) in nbr.links(ue).zip(nbr.candidates(ue)) {
            let ap_node = self.scenario.aps[a as usize].node;
            self.scenario
                .env
                .fading
                .fill_power_lane(ap_node, ue_node, self.now, &mut lane);
            let static_lane = self.static_mw.row(link);
            for ((v, &p), &st) in self
                .lin_mw
                .row_mut(link)
                .iter_mut()
                .zip(&lane)
                .zip(static_lane)
            {
                *v = st * p.max(1e-12);
            }
        }
    }
}
