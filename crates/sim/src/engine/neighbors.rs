//! The engine's view of the scenario's neighbor table
//! ([`crate::topology::NeighborTable`]): every per-link array is laid
//! out behind its CSR candidate rows, one entry (or one subchannel
//! lane) per link, and PHY, MAC and IM walk those rows directly. A
//! link's id is its position in the CSR payload
//! (`NeighborTable::links`), so memory scales with the links the cull
//! keeps, never with `n_ue × max_neighbors`. With the cull floor off
//! the candidate rows are dense (every AP, ascending), so neighbor
//! slot ≡ global AP id and the engine reproduces the pre-culling layout
//! bit for bit. [`LinkMatrices`] lays out the per-link means at
//! construction.

use super::{LteEngine, INTERFERENCE_MARGIN};
use crate::topology::Scenario;
use cellfi_core::ConflictGraph;
use cellfi_lte::grid::ResourceGrid;
use cellfi_types::units::Dbm;
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

/// The neighbor slot each UE's serving AP occupies in its candidate row.
pub(super) fn serving_slots(scenario: &Scenario) -> Vec<u32> {
    (0..scenario.n_ues())
        .map(|u| {
            scenario
                .nbr
                .slot(u, scenario.assoc[u])
                .expect("serving AP is never culled") as u32
        })
        .collect()
}

impl LteEngine {
    /// The link id of UE `ue` and its serving AP.
    #[inline]
    pub(super) fn serving_link(&self, ue: usize) -> usize {
        self.scenario.nbr.links(ue).start + self.serving_slot[ue] as usize
    }

    /// Emit one [`Cull`](cellfi_obs::Event::Cull) trace event per
    /// client summarising the spatial index's decision: how many
    /// candidate APs the received-power floor kept and how many it
    /// culled. A dense scenario (floor off) emits nothing, so the
    /// classic traces are untouched; traced culled runs get an
    /// auditable record of every near-field set.
    pub fn emit_cull_events(&mut self) {
        if !self.obs.tracer.is_enabled() || self.scenario.nbr.cull_radius_m.is_none() {
            return;
        }
        let n_ap = self.scenario.aps.len() as u32;
        let now = self.now;
        for u in 0..self.scenario.n_ues() {
            let kept = self.scenario.nbr.candidates(u).len() as u32;
            self.obs.tracer.emit(
                now,
                cellfi_obs::Event::Cull {
                    ue: u as u32,
                    kept,
                    culled: n_ap - kept,
                },
            );
        }
    }

    /// Rebuild the spatial index and re-derive the serving slots from
    /// the current scenario placement, under the `spatial_build`
    /// profiler span. The bench harness drives it to cost the spatial
    /// layer explicitly, so it rebuilds even when the tables are fresh
    /// (construction keeps fresh ones). It never rebuilds the arrays
    /// laid out behind the neighbor rows, so it must preserve
    /// placement: only the construction-time positions reproduce the
    /// link ids those arrays use.
    ///
    /// # Panics
    ///
    /// When the rebuilt candidate or interferer rows differ from the
    /// ones the arrays were laid out behind (e.g. after `move_ue` carried
    /// a UE out of its near field), checked in every build profile.
    pub fn rebuild_spatial(&mut self) {
        self.obs.profiler.begin(cellfi_obs::SpanId::SpatialBuild);
        let laid_out = std::mem::take(&mut self.scenario.nbr);
        self.scenario.rebuild_index();
        assert!(
            self.scenario.nbr.same_links(&laid_out),
            "rebuild_spatial must reproduce the rows every per-link array \
             was laid out behind: link ids never move under an engine"
        );
        self.scenario.nbr.forget_placement();
        self.serving_slot = serving_slots(&self.scenario);
        self.obs.profiler.end(cellfi_obs::SpanId::SpatialBuild);
    }
}
