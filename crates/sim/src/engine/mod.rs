//! The LTE system simulator, layered as PHY / MAC / IM.
//!
//! A 1 ms subframe loop over the cells and clients of a [`Scenario`],
//! with the interference-management layer switchable between the
//! systems the paper compares (§6.3.4). The monolithic engine of the
//! early tree is split along the paper's own architecture:
//!
//! * `phy` — the propagation substrate: static mean-gain matrices,
//!   per-coherence-block fading refresh, the memoized per-subchannel
//!   interference cache, and the CQI measurement scan.
//! * `mac` — the LTE MAC: per-subframe downlink PF scheduling + AMC +
//!   HARQ, control-channel retention, and the radio-link-failure /
//!   handover machinery. Uplink subframes are silent; `fig1` holds the
//!   uplink model.
//! * [`im`] — one module per interference-management system behind the
//!   [`im::ImStrategy`] trait: plain LTE, CellFi, the centralized
//!   oracle, LAA listen-before-talk, and X2-coordinated ICIC. The
//!   per-epoch IM decision is a trait call, so adding a sixth system is
//!   one new module, not a monolith edit.
//! * [`system`] — the [`system::SystemEngine`] abstraction that lets one
//!   harness clock loop drive the LTE engine and the Wi-Fi baseline
//!   engine identically.
//!
//! Per downlink subframe, each cell runs the standard PF scheduler over
//! its allowed subchannels using CQI-derived rates; transport blocks are
//! then resolved against the *actual* SINR (other cells' concurrent
//! transmissions on the same subchannel) through a per-UE HARQ entity
//! with chase combining. Control-channel interference from neighbouring
//! radios is applied as the measured Fig 7(b) retention factor.
//!
//! Positions are static within a run, so the engine precomputes the
//! mean-gain matrices at construction and refreshes the per-subchannel
//! fading realization once per coherence block — the simulation is exact
//! with respect to the propagation model but ~100× faster than
//! recomputing link budgets per sample.

mod cache;
pub mod im;
mod mac;
mod neighbors;
mod phy;
pub mod system;
mod tests;

pub use im::laa::{LBT_CW, LBT_MCOT_SUBFRAMES, LBT_THRESHOLD_DBM};
pub use system::{steady_state_bps, SimHarness, SystemEngine};

use crate::slab::Slab2;
use crate::topology::Scenario;
use cache::InterferenceCache;
use cache::{CqiMemo, TxSetTracker};
use cellfi_core::manager::InterferenceManager;
use cellfi_core::sensing::ImperfectSensing;
use cellfi_core::ConflictGraph;
use cellfi_lte::amc::{Cqi, LinearCqiMap};
use cellfi_lte::cell::{Cell, CellConfig};
use cellfi_lte::earfcn::{Band, Earfcn};
use cellfi_lte::grid::{ChannelBandwidth, ResourceGrid};
use cellfi_lte::scheduler::UNASSIGNED;
use cellfi_lte::tdd::TddConfig;
use cellfi_obs::Obs;
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::Instant;
use cellfi_types::units::Db;
use cellfi_types::{ApId, SubchannelId, UeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which interference-management system runs on top of the LTE stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImMode {
    /// Uncoordinated LTE: all cells use all subchannels.
    PlainLte,
    /// The paper's distributed interference management.
    CellFi,
    /// Centralized oracle with true-conflict-graph knowledge.
    Oracle,
    /// LAA/MulteFire-style listen-before-talk: a cell transmits (on the
    /// whole channel) only after sensing the medium idle, holds it for
    /// one maximum channel-occupancy time, then re-contends with a
    /// random backoff. The paper argues (§8) this "will face similar MAC
    /// inefficiencies as 802.11af" at TVWS ranges — this mode lets the
    /// claim be tested.
    Laa,
    /// Conventional coordinated LTE (§4.3): neighbouring cells exchange
    /// demands and masks over X2 and colour the channel sequentially.
    /// Single-operator only — "in CellFi, coordination is hard to enforce
    /// because multiple cellular providers are sharing the spectrum" —
    /// and every epoch costs explicit messages, which the engine counts
    /// in [`LteEngine::x2_messages`].
    X2Icic,
}

/// Number of CQI indices, 0 (out of range) through 15.
const N_CQI: usize = Cqi::MAX.0 as usize + 1;

/// Interference ground truth: a subchannel counts as interfered when
/// concurrent foreign transmissions depress SINR at least this much
/// below the clean SNR.
const INTERFERENCE_MARGIN: Db = Db(3.0);

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct LteEngineConfig {
    /// Interference-management mode.
    pub mode: ImMode,
    /// Sensing error model fed to CellFi (paper: 80 % detect, 2 % FP).
    pub sensing: ImperfectSensing,
    /// CellFi manager tuning.
    pub manager: cellfi_core::manager::ManagerConfig,
}

impl LteEngineConfig {
    /// The paper's settings for a given mode.
    pub fn paper_default(mode: ImMode) -> LteEngineConfig {
        LteEngineConfig {
            mode,
            sensing: ImperfectSensing::default(),
            manager: cellfi_core::manager::ManagerConfig::default(),
        }
    }
}

/// The system simulator.
#[derive(Debug)]
pub struct LteEngine {
    scenario: Scenario,
    config: LteEngineConfig,
    grid: ResourceGrid,
    tdd: TddConfig,
    /// Information bits one subchannel carries per subframe at each CQI,
    /// `[subchannel][cqi]`: `efficiency(cqi) · data_res_per_subframe(s)`,
    /// zero at CQI 0. `rate_bits` reads it through `mac::rate`.
    eff_re: Vec<[f64; N_CQI]>,
    /// `eff_re` scaled by the TDD downlink capacity `eff_cap_for`:
    /// `eff_cap[s][cqi] = eff_re[s][cqi] * eff_cap_for`. The downlink
    /// pass rebuilds it only when the capacity changes (the special
    /// subframe and the downlink subframe after it), and every
    /// scheduled rate and transport block reads it.
    eff_cap: Vec<[f64; N_CQI]>,
    /// The downlink capacity `eff_cap` was scaled by (0 until the first
    /// downlink subframe).
    eff_cap_for: f64,
    cells: Vec<Cell>,
    managers: Vec<InterferenceManager>,
    now: Instant,
    /// Latest CQI per UE and subchannel, `[ue][subchannel]` like the
    /// CQI memo's tables.
    ue_cqi: Slab2<Cqi>,
    /// One MAC row per UE: HARQ entity, RNG stream, the epoch's
    /// scheduled-subframe counters, and this subframe's transport block.
    mac_rows: Vec<mac::MacRow>,
    /// This downlink subframe's grants per UE, one bit per subchannel:
    /// set while the transmitter sets are built, read by HARQ
    /// resolution (a UE whose mask is 0 is skipped without touching its
    /// MAC row) and cleared by the apply pass, so it is all zero
    /// between subframes.
    grant_mask: Vec<u32>,
    delivered: Vec<u64>,
    enqueued: Vec<u64>,
    retention: Vec<f64>,
    /// Whether the epoch's CQI scans saw `(ue, subchannel)` interfered,
    /// `[ue][subchannel]` (cleared at every epoch boundary).
    interfered: Slab2<bool>,
    /// Consecutive epochs `(ue, subchannel)` went uninterfered,
    /// `[ue][subchannel]`.
    free_streak: Slab2<u32>,
    dl_subframes_this_epoch: u64,
    /// Per-cell RNG streams (LBT backoff draws).
    lbt_rng: Vec<StdRng>,
    /// Transmitting cells of the previous subframe, per subchannel.
    tx_last: Vec<Vec<usize>>,
    /// HARQ retransmissions per cell this epoch (detail-mode histogram
    /// feed, reset at every epoch boundary).
    epoch_retx: Vec<u64>,

    // ---- static link caches (positions never move within a run) ----
    // Every per-link array below is indexed by link id: link
    // `scenario.nbr.links(u).start + sl` pairs UE `u` with
    // `scenario.nbr.candidates(u)[sl]` (AP-to-AP arrays use
    // `interferer_links` the same way). They hold exactly the links the
    // cull keeps; dense scenarios (no cull floor) make slot ≡ AP id.
    /// The neighbor slot each UE's serving AP occupies (kept in lock
    /// step with `scenario.assoc` across handovers).
    serving_slot: Vec<u32>,
    /// Mean downlink rx power (dBm) per link at AP power.
    dl_mean_dbm: Vec<f64>,
    /// Uplink noise floor (dBm) over the whole channel: a UE's mean
    /// uplink SNR at a candidate AP is `ul_mean_dbm - ul_noise_dbm`
    /// (drives PRACH hearing).
    ul_noise_dbm: f64,
    /// Per-subchannel noise floor, mW.
    noise_mw: Vec<f64>,
    /// Per-subchannel interference threshold, mW: the interference power
    /// above which SINR sits at least `INTERFERENCE_MARGIN` below the
    /// clean SNR (`noise_mw[s] · (10^(margin/10) − 1)`, precomputed so
    /// the CQI scan's ground-truth test never leaves the linear domain).
    interf_thresh_mw: Vec<f64>,
    /// Per-subchannel downlink power split (dB relative to full AP
    /// power): a subchannel receives only its share of the cell's total
    /// power. A function of the resource grid alone, hoisted out of
    /// every gain rebuild.
    split_db: Vec<f64>,
    /// Static linear rx power (mW) per `[link][sc]`: mean gain + EIRP
    /// offset + power split, precombined through one batched dB→linear
    /// pass. Rebuilt only when a UE moves or an EIRP offset changes.
    /// Empty when the scenario's fading process is disabled: `lin_mw`
    /// then holds the static gains itself.
    static_mw: Slab2,
    /// Instantaneous linear rx power (mW) per `[link][sc]`, the one
    /// gain slab every reader uses: `static_mw × fading power`,
    /// refreshed per fading coherence block, or without fading the
    /// static gains, written once and never refreshed.
    lin_mw: Slab2,
    fading_block: u64,
    /// Generation counter for `lin_mw`: bumped whenever any cached gain
    /// changes (fading block roll, client move) so dependent caches can
    /// tell stale from fresh without comparing the tensor itself.
    gain_gen: u64,
    /// Generation counter for UE↔cell association (handovers): part of
    /// the CQI memo key, since the scan reads the serving cell per UE.
    assoc_gen: u64,
    /// Memoized per-subchannel interference accumulation over `lin_mw`.
    interf: InterferenceCache,
    /// Interned per-subchannel transmitter-set ids + membership masks.
    tracker: TxSetTracker,
    /// Per-subchannel memo of recent CQI columns (the steady-state fast
    /// path).
    memo: CqiMemo,
    /// Whether the steady-state CQI fast path is enabled (default on;
    /// the equivalence tests switch it off to drive the full scan).
    fast_path: bool,
    /// Linear-domain CQI mapper: the 4-bit table's boundaries, bisected
    /// once at construction; each lookup is a binary search over them.
    linmap: LinearCqiMap,
    /// Per-UE "some subchannel decodable" bit, the OR over the UE's
    /// `ue_cqi` row: a CQI scan recomputes it when it changes a column
    /// (feeds the RLF monitor).
    any_usable: Vec<bool>,
    /// Per-UE "serving cell holds queued bits" bit, refilled by every
    /// CQI scan from the cells' attach lists (feeds the RLF monitor).
    backlogged_scratch: Vec<bool>,
    /// Which cells may transmit this downlink subframe, filled in place
    /// by the IM strategy's `transmit_gate`.
    gate_scratch: Vec<bool>,
    /// LAA sensing input: which cells transmitted on any subchannel last
    /// subframe.
    active_last_scratch: Vec<bool>,
    /// The downlink allocation, `[cell][subchannel]`: the id of the UE
    /// scheduled there, or `UNASSIGNED`.
    assignment_scratch: Vec<u32>,
    /// One entry per MAC scheduling worker (rate rows and PF backlogs),
    /// grown only when the worker count grows.
    mac_scratch: Vec<mac::MacScratch>,
    /// Per-subchannel transmitter sets being built (swapped with
    /// `tx_last` at the end of each downlink subframe).
    tx_scratch: Vec<Vec<usize>>,
    /// `(cell, ue)` of every UE granted this downlink subframe: cells in
    /// order, each cell's UEs in ascending id (the apply order).
    granted_scratch: Vec<(u32, u32)>,
    /// This subframe's `(ue, bits)` deliveries.
    delivery_scratch: Vec<(usize, u64)>,
    /// True conflict graph (static; used by the oracle).
    conflict: ConflictGraph,
    /// Mean AP→AP rx power (dBm) per interferer link at AP power — the
    /// LBT sensing input.
    ap_mean_dbm: Vec<f64>,
    /// Mean uplink rx power (dBm) per link at full UE power over the
    /// whole channel: with `ul_noise_dbm`, the input of PRACH hearing
    /// and nothing else.
    ul_mean_dbm: Vec<f64>,
    /// Total X2 messages exchanged (X2Icic mode): the explicit-
    /// coordination cost CellFi's passive sensing avoids.
    pub x2_messages: u64,
    /// Handovers executed (mobility support, §7 "Mobility and roaming").
    pub handovers: u64,
    /// Consecutive milliseconds each UE has been unable to decode any
    /// subchannel while backlogged (drives RRC drops).
    bad_streak_ms: Vec<u32>,
    /// UEs in radio-link-failure outage until the given instant.
    outage_until: Vec<Instant>,
    /// RRC drops per UE — the paper's "frequent disconnections" under
    /// strong interference (§3.2, §6.3.1).
    pub rrc_drops: Vec<u64>,
    /// LAA listen-before-talk state per cell.
    lbt: Vec<LbtState>,
    /// Regulatory lease gate per cell: a cell with `lease_ok == false`
    /// neither schedules downlink nor radiates control, without tearing
    /// down its attached clients the way `Cell::radio_off` would — the
    /// chaos harness flips this as PAWS leases are lost and regained.
    lease_ok: Vec<bool>,
    /// Per-cell downlink EIRP offset (dB) relative to the scenario's AP
    /// power — the degradation ladder's "reduce EIRP to the surviving
    /// grant's cap" rung. Zero for every cell unless a fault harness
    /// says otherwise, which keeps default gains byte-identical.
    power_offset_db: Vec<f64>,
    /// Subframes this epoch in which each cell scheduled at least one
    /// UE (feeds the scheduler-starvation monitor; reset per epoch).
    epoch_cell_sched: Vec<u32>,
    /// Consecutive whole epochs each cell spent starved: active,
    /// backlogged, mask non-empty, yet scheduled nothing.
    starved_epochs: Vec<u32>,
    /// Running maximum of `starved_epochs` across cells and time.
    max_starved_epochs: u32,
    /// Worst PAWS vacate margin a fault harness reported, microseconds
    /// (negative = missed deadline); `i64::MAX` until the first vacate.
    vacate_margin_min_us: i64,
    /// Observability bundle: tick-keyed event tracer, metrics registry,
    /// and injected-clock profiler. Disabled by default (near-zero cost);
    /// enable via [`LteEngine::obs_mut`].
    obs: Obs,
}

/// Listen-before-talk contention state of one cell (LAA mode).
#[derive(Debug, Clone, Copy, Default)]
struct LbtState {
    /// Remaining subframes of the current channel-occupancy grant.
    txop_remaining: u32,
    /// Backoff counter decremented on idle subframes.
    backoff: u32,
}

impl LteEngine {
    /// Build the engine over a scenario; every client attaches to its
    /// drop AP immediately (association transients are not the object of
    /// the large-scale experiments).
    pub fn new(mut scenario: Scenario, config: LteEngineConfig, seeds: SeedSeq) -> LteEngine {
        // Defensive re-index: tests and layout helpers hand-edit
        // `aps`/`ues`/`assoc` after generation, so the engine never
        // trusts a possibly stale neighbor table.
        scenario.rebuild_index();
        // The paper's 5 MHz carrier.
        let grid = ResourceGrid::new(ChannelBandwidth::Mhz5);
        let n_sub = grid.num_subchannels() as usize;
        let tdd = TddConfig::paper_default();
        let carrier = Earfcn::new(Band::Tvws, 100_500);
        let mut cells: Vec<Cell> = (0..scenario.aps.len())
            .map(|i| {
                let mut cfg = CellConfig::paper_default(ApId::new(i as u32));
                cfg.tx_power = scenario.config.ap_power;
                let mut c = Cell::new(cfg);
                c.set_carrier(carrier, scenario.config.ue_power, Instant::ZERO);
                c
            })
            .collect();
        for (u, &ap) in scenario.assoc.iter().enumerate() {
            cells[ap].attach(UeId::new(u as u32));
        }
        let managers = (0..scenario.aps.len())
            .map(|i| {
                InterferenceManager::new(
                    n_sub as u32,
                    config.manager,
                    seeds.seed_indexed("im", i as u64),
                )
            })
            .collect();
        let n_ue = scenario.n_ues();
        let n_ap = scenario.aps.len();

        // Static mean-gain matrices and the true conflict graph, all
        // slot-indexed through the neighbor tables.
        let links = phy::LinkMatrices::build(&scenario, &grid);
        let serving_slot = neighbors::serving_slots(&scenario);
        let ul_noise_dbm = scenario
            .env
            .noise
            .floor(grid.bandwidth().bandwidth())
            .value();
        // Link-indexed gain slabs; one slab when nothing fades.
        let n_links = scenario.nbr.n_links();
        let n_static = if scenario.env.fading.is_disabled() {
            0
        } else {
            n_links
        };
        // Downlink power is split across the carrier's RBs: a subchannel
        // receives only its share of the cell's total power.
        let split_db: Vec<f64> = (0..n_sub)
            .map(|s| {
                let sc = SubchannelId::new(s as u32);
                (grid.subchannel_tx_power(scenario.config.ap_power, sc) - scenario.config.ap_power)
                    .value()
            })
            .collect();
        let eff_re = mac::eff_re_table(&grid);
        let margin_lin = INTERFERENCE_MARGIN.to_linear();
        let interf_thresh_mw: Vec<f64> = links
            .noise_mw
            .iter()
            .map(|n| n * (margin_lin - 1.0))
            .collect();

        let mut engine = LteEngine {
            grid,
            tdd,
            eff_cap: vec![[0.0; N_CQI]; n_sub],
            eff_cap_for: 0.0,
            eff_re,
            cells,
            managers,
            now: Instant::ZERO,
            ue_cqi: Slab2::new(n_ue, n_sub, Cqi::OUT_OF_RANGE),
            // One independent RNG stream per UE (HARQ decode draws,
            // sensing observations) keeps each UE's draws the same no
            // matter in which order, or on which thread, UEs are visited.
            mac_rows: (0..n_ue)
                .map(|u| {
                    mac::MacRow::new(StdRng::seed_from_u64(
                        seeds.seed_indexed("engine-ue", u as u64),
                    ))
                })
                .collect(),
            grant_mask: vec![0; n_ue],
            delivered: vec![0; n_ue],
            enqueued: vec![0; n_ue],
            retention: vec![1.0; n_ue],
            interfered: Slab2::new(n_ue, n_sub, false),
            free_streak: Slab2::new(n_ue, n_sub, 0),
            dl_subframes_this_epoch: 0,
            lbt_rng: (0..n_ap)
                .map(|a| StdRng::seed_from_u64(seeds.seed_indexed("engine-lbt", a as u64)))
                .collect(),
            tx_last: vec![Vec::new(); n_sub],
            epoch_retx: vec![0; n_ap],
            serving_slot,
            dl_mean_dbm: links.dl_mean_dbm,
            ul_noise_dbm,
            noise_mw: links.noise_mw,
            interf_thresh_mw,
            split_db,
            static_mw: Slab2::new(n_static, n_sub, 0.0),
            lin_mw: Slab2::new(n_links, n_sub, 0.0),
            fading_block: u64::MAX,
            gain_gen: 0,
            assoc_gen: 0,
            interf: InterferenceCache::new(n_sub, n_ue),
            tracker: TxSetTracker::new(n_sub, n_ap),
            memo: CqiMemo::new(n_sub, n_ue),
            fast_path: true,
            linmap: LinearCqiMap::default(),
            any_usable: vec![false; n_ue],
            backlogged_scratch: vec![false; n_ue],
            gate_scratch: vec![true; n_ap],
            active_last_scratch: vec![false; n_ap],
            assignment_scratch: vec![UNASSIGNED; n_ap * n_sub],
            mac_scratch: Vec::new(),
            tx_scratch: vec![Vec::new(); n_sub],
            granted_scratch: Vec::new(),
            delivery_scratch: Vec::new(),
            conflict: links.conflict,
            ap_mean_dbm: links.ap_mean_dbm,
            ul_mean_dbm: links.ul_mean_dbm,
            lbt: vec![LbtState::default(); n_ap],
            lease_ok: vec![true; n_ap],
            power_offset_db: vec![0.0; n_ap],
            epoch_cell_sched: vec![0; n_ap],
            starved_epochs: vec![0; n_ap],
            max_starved_epochs: 0,
            vacate_margin_min_us: i64::MAX,
            x2_messages: 0,
            handovers: 0,
            bad_streak_ms: vec![0; n_ue],
            outage_until: vec![Instant::ZERO; n_ue],
            rrc_drops: vec![0; n_ue],
            obs: Obs::disabled(),
            scenario,
            config,
        };
        engine.rebuild_static();
        engine.refresh_fading();
        engine.recompute_retention();
        engine.measure_cqi();
        engine
    }

    /// Current simulation time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The engine's observability bundle (tracer, metrics, profiler).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable observability bundle — use to enable tracing
    /// (`obs_mut().tracer = Tracer::new(true)`) or to install a profiler
    /// clock from the bench/bin layer before a run.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// The scenario under simulation.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Enqueue downlink bits for a client.
    pub fn enqueue(&mut self, ue: usize, bits: u64) {
        let ap = self.scenario.assoc[ue];
        self.cells[ap].enqueue(UeId::new(ue as u32), bits);
        self.enqueued[ue] += bits;
    }

    /// Give every client `bits` of backlog.
    pub fn backlog_all(&mut self, bits: u64) {
        for u in 0..self.scenario.n_ues() {
            self.enqueue(u, bits);
        }
    }

    /// Total delivered bits per client.
    pub fn delivered_bits(&self) -> &[u64] {
        &self.delivered
    }

    /// Bits still queued for a client.
    pub fn queued_bits(&self, ue: usize) -> u64 {
        self.cells[self.scenario.assoc[ue]].queued_bits(UeId::new(ue as u32))
    }

    /// Per-client average throughput in bps over the elapsed time.
    pub fn throughputs_bps(&self) -> Vec<f64> {
        let t = self.now.as_secs_f64().max(1e-9);
        self.delivered.iter().map(|&b| b as f64 / t).collect()
    }

    /// Total hops taken by each CellFi manager (convergence metric).
    pub fn manager_hops(&self) -> Vec<u64> {
        self.managers.iter().map(|m| m.total_hops()).collect()
    }

    /// Current scheduler mask of a cell.
    pub fn cell_mask(&self, cell: usize) -> Vec<bool> {
        self.cells[cell].allowed_mask().to_vec()
    }

    /// Set a cell's regulatory lease gate. `false` silences the cell
    /// (no downlink scheduling, no control presence) while keeping its
    /// attachments and queues intact, so regaining the lease resumes
    /// service instantly.
    pub fn set_lease_ok(&mut self, cell: usize, ok: bool) {
        if self.lease_ok[cell] != ok {
            self.lease_ok[cell] = ok;
            self.recompute_retention();
        }
    }

    /// Whether a cell currently holds a valid lease (per its gate).
    pub fn lease_ok(&self, cell: usize) -> bool {
        self.lease_ok[cell]
    }

    /// Set a cell's downlink EIRP offset in dB relative to the
    /// scenario's AP power (negative = degraded below full power).
    /// Forces a gain-tensor refresh on the next subframe so the change
    /// takes effect immediately and deterministically.
    pub fn set_power_offset_db(&mut self, cell: usize, offset_db: f64) {
        if self.power_offset_db[cell] != offset_db {
            self.power_offset_db[cell] = offset_db;
            // Fold the new offset into the static gains, then invalidate
            // the fading block so the next refresh rebuilds `lin_mw`
            // even mid-coherence-block (without fading, the rebuild
            // wrote `lin_mw` itself).
            self.rebuild_static();
            self.fading_block = u64::MAX;
            self.recompute_retention();
        }
    }

    /// A cell's current downlink EIRP offset in dB.
    pub fn power_offset_db(&self, cell: usize) -> f64 {
        self.power_offset_db[cell]
    }

    /// Whether a cell is radiating this subframe: radio up *and* lease
    /// valid. Every MAC path that asks "is this cell on the air" asks
    /// this, so the lease gate silences control and data alike.
    pub(super) fn cell_active(&self, cell: usize) -> bool {
        self.lease_ok[cell] && self.cells[cell].radio_on()
    }

    /// Mean SNR (no interference) of a client's downlink over the full
    /// channel — used by experiments for binning by link quality.
    pub fn ue_snr(&self, ue: usize) -> Db {
        let noise_total: f64 = self.noise_mw.iter().sum();
        Db(self.dl_mean_dbm[self.serving_link(ue)] - 10.0 * noise_total.log10())
    }

    /// Enable or disable the steady-state CQI fast path (on by default).
    /// Testing hook: the fast-path equivalence tests run one scenario
    /// with the memo off to drive the full scan every period.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
    }

    /// Run until `deadline`.
    pub fn run_until(&mut self, deadline: Instant) {
        while self.now < deadline {
            let _ = self.step_subframe();
        }
    }

    /// Report a completed PAWS vacate's deadline margin (µs; negative =
    /// deadline missed). Fault harnesses feed this so the
    /// `etsi_margin_us` monitor sees lease-lifecycle outcomes.
    pub fn observe_vacate_margin_us(&mut self, margin_us: i64) {
        self.vacate_margin_min_us = self.vacate_margin_min_us.min(margin_us);
    }

    /// Assemble the per-tick fact sheet the invariant monitors read.
    /// Called only when monitors are armed ([`cellfi_obs::MonitorRegistry`]).
    /// Cache probes pool the interference cache and the CQI memo, each
    /// probed once per subchannel column (the memo once per column per
    /// scan) — both must replay in steady state for the subframe loop
    /// to stay cheap.
    pub fn tick_facts(&self) -> cellfi_obs::TickFacts {
        let interf = self.interf.probe_stats();
        let memo = self.memo.probe_stats();
        cellfi_obs::TickFacts {
            tick_us: self.now.as_micros(),
            n_ues: self.scenario.n_ues() as u32,
            rlf_drops: self.rrc_drops.iter().sum(),
            max_starved_epochs: self.max_starved_epochs,
            cache_hits: interf.0 + memo.0,
            cache_misses: interf.1 + memo.1,
            min_margin_us: self.vacate_margin_min_us,
            lease_gate_breaches: 0,
        }
    }

    /// Epoch boundary: roll the per-(UE, subchannel) free streaks, run
    /// the configured interference-management strategy (one [`im`]
    /// module per system), then reset epoch accounting.
    fn run_epoch(&mut self) {
        let hits = self.interfered.as_slice();
        for (streak, &hit) in self.free_streak.as_mut_slice().iter_mut().zip(hits) {
            if hit {
                *streak = 0;
            } else {
                *streak += 1;
            }
        }
        im::strategy_for(self.config.mode).run_epoch(self);
        // Scheduler-starvation accounting: a cell that was active and
        // backlogged with a non-empty mask, over an epoch that ran
        // downlink subframes, yet scheduled nothing, starved this epoch.
        // Consecutive starved epochs feed the `sched_starvation` monitor.
        if self.dl_subframes_this_epoch > 0 {
            for c in 0..self.cells.len() {
                let eligible = self.cell_active(c)
                    && self.cells[c].total_queued_bits() > 0
                    && self.cells[c].allowed_mask().iter().any(|&a| a);
                if eligible && self.epoch_cell_sched[c] == 0 {
                    self.starved_epochs[c] += 1;
                    self.max_starved_epochs = self.max_starved_epochs.max(self.starved_epochs[c]);
                } else {
                    self.starved_epochs[c] = 0;
                }
            }
        }
        self.epoch_cell_sched.fill(0);
        self.interfered.as_mut_slice().fill(false);
        for row in self.mac_rows.iter_mut() {
            row.sched_subframes.fill(0);
        }
        self.memo.clear_applied();
        self.dl_subframes_this_epoch = 0;
        self.recompute_retention();
    }
}
