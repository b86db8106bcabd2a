//! The engine's view of the scenario's neighbor table
//! ([`crate::topology::NeighborTable`]): every per-link array is laid
//! out behind its CSR candidate rows, one entry (or one subchannel
//! lane) per link, and PHY, MAC and IM walk those rows directly. A
//! link's id is its position in the CSR payload
//! (`NeighborTable::links`), so memory scales with the links the cull
//! keeps, never with `n_ue × max_neighbors`. With the cull floor off
//! the candidate rows are dense (every AP, ascending), so neighbor
//! slot ≡ global AP id and the engine reproduces the pre-culling layout
//! bit for bit.

use super::LteEngine;
use crate::topology::Scenario;

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
    /// layer explicitly. It never rebuilds the arrays laid out behind the
    /// neighbor rows, so it must preserve placement: only the
    /// construction-time positions reproduce the link ids those arrays
    /// use.
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
        self.serving_slot = serving_slots(&self.scenario);
        self.obs.profiler.end(cellfi_obs::SpanId::SpatialBuild);
    }
}
