//! The engine's view of the scenario's neighbor table
//! ([`crate::topology::NeighborTable`]): every `[ue][slot]` slab is laid
//! out behind its CSR candidate rows, and PHY, MAC and IM walk those
//! rows directly. With the cull floor off the candidate rows are dense
//! (every AP, ascending), so neighbor slot ≡ global AP id and the
//! engine reproduces the pre-culling layout bit for bit; a floor
//! shrinks the middle slab axis to the near field.

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
    /// layer explicitly. It never rebuilds the slabs laid out behind the
    /// neighbor rows, so it must preserve placement: only the
    /// construction-time positions reproduce the rows those slabs use.
    pub fn rebuild_spatial(&mut self) {
        self.obs.profiler.begin(cellfi_obs::SpanId::SpatialBuild);
        let max_neighbors = self.scenario.nbr.max_neighbors;
        self.scenario.rebuild_index();
        debug_assert_eq!(
            self.scenario.nbr.max_neighbors, max_neighbors,
            "placement changed under us"
        );
        self.serving_slot = serving_slots(&self.scenario);
        self.obs.profiler.end(cellfi_obs::SpanId::SpatialBuild);
    }
}
