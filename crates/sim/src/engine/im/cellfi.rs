//! The paper's distributed interference management.
//!
//! Each cell runs its [`cellfi_core::manager::InterferenceManager`]
//! once per epoch, fed by
//! PRACH-overheard client counts (§5.1/§5.2) and the epoch's (imperfect)
//! CQI-drop interference detections (§5.3). No cell-to-cell messages:
//! the whole protocol rides on what an AP can hear.

use super::ImStrategy;
use crate::engine::LteEngine;
use cellfi_core::manager::{ClientEpochStats, EpochInput};
use cellfi_lte::prach;
use cellfi_obs::trace::Event;
use cellfi_types::units::Db;
use cellfi_types::UeId;

/// The distributed strategy behind [`crate::engine::ImMode::CellFi`].
pub struct CellFi;

impl ImStrategy for CellFi {
    fn run_epoch(&self, e: &mut LteEngine) {
        let n_sub = e.grid.num_subchannels() as usize;
        let dl = e.dl_subframes_this_epoch.max(1) as f64;
        let now = e.now;
        for c in 0..e.cells.len() {
            let (own, heard) = e.heard_active(c);
            if e.obs.tracer.is_enabled() {
                // Re-walk the sensing rule to attribute each
                // foreign detection (the counting pass above
                // stays allocation- and branch-lean for
                // untraced runs). Collected up front: emitting
                // needs the tracer mutably while the listener
                // rows borrow the scenario.
                let pairs: Vec<(u32, u32)> = {
                    let (ues, slots) = e.scenario.nbr.listeners(c);
                    ues.iter().copied().zip(slots.iter().copied()).collect()
                };
                for (ue, sl) in pairs {
                    let ue = ue as usize;
                    if e.queued_bits(ue) == 0 || e.scenario.assoc[ue] == c {
                        continue;
                    }
                    let link = e.scenario.nbr.links(ue).start + sl as usize;
                    let snr_db = e.ul_mean_dbm[link] - e.ul_noise_dbm;
                    if prach::heard(Db(snr_db)) {
                        e.obs.tracer.emit(
                            now,
                            Event::PrachHeard {
                                cell: c as u32,
                                ue: ue as u32,
                                snr_db,
                            },
                        );
                    }
                }
            }
            let attached: Vec<UeId> = e.cells[c].attached_ues().to_vec();
            let mask = e.cells[c].allowed_mask().to_vec();
            let clients: Vec<ClientEpochStats> = attached
                .iter()
                .map(|ueid| {
                    let ue = ueid.index();
                    let mut frac: Vec<f64> = (0..n_sub)
                        .map(|s| f64::from(e.mac_rows[ue].sched_subframes[s]) / dl)
                        .collect();
                    let interfered: Vec<bool> = e
                        .interfered
                        .row(ue)
                        .iter()
                        .map(|&hit| e.config.sensing.observe(hit, &mut e.mac_rows[ue].rng))
                        .collect();
                    // Starvation rescue (extension; see DESIGN.md):
                    // the paper drains buckets by frac_scheduled,
                    // which deadlocks when interference pushes a
                    // client to CQI 0 on *every* owned subchannel —
                    // it is never scheduled, so its reports carry
                    // no drain weight and the AP never hops. Weight
                    // such backlogged-but-unserved clients by the
                    // fair time share they should have received.
                    let unserved = frac.iter().all(|&f| f == 0.0) && e.queued_bits(ue) > 0;
                    if unserved {
                        let fair = 1.0 / own.max(1) as f64;
                        for s in 0..n_sub {
                            if mask[s] && interfered[s] {
                                frac[s] = fair;
                            }
                        }
                    }
                    let est: Vec<f64> = (0..n_sub)
                        .map(|s| e.rate_bits(ue, s, 1.0) * 1000.0)
                        .collect();
                    ClientEpochStats {
                        ue: *ueid,
                        frac_scheduled: frac,
                        interfered,
                        est_throughput: est,
                        free_streak: e.free_streak.row(ue).to_vec(),
                    }
                })
                .collect();
            let decision = e.managers[c].epoch_traced(
                &EpochInput {
                    own_active: own,
                    heard_active: heard,
                    clients,
                },
                now,
                c as u32,
                &mut e.obs.tracer,
            );
            e.obs
                .metrics
                .inc("hops", c as u32, decision.hops.len() as u64);
            e.obs
                .metrics
                .set_gauge("share", c as u32, f64::from(decision.share));
            if !decision.hops.is_empty() || !decision.packing.is_empty() {
                // Rounds-to-convergence: the last epoch in which
                // the manager still moved.
                e.obs.metrics.set_gauge(
                    "last_move_epoch",
                    c as u32,
                    e.managers[c].epochs_run() as f64,
                );
            }
            let mut mask = decision.mask;
            // Bootstrap grant: an idle cell's share is zero, but a
            // real cell always retains minimal scheduling ability
            // (signalling radio bearers exist regardless), so a
            // page arriving mid-epoch is not stuck behind up to
            // 1 s of dead air. All idle cells bootstrap on the
            // lowest-index subchannel — consistent with the
            // re-use packing convention, and any harm is caught
            // by neighbours' CQI detectors next epoch.
            if mask.iter().all(|&b| !b) {
                mask[0] = true;
            }
            let owned = mask.iter().filter(|&&b| b).count();
            e.obs
                .metrics
                .set_gauge("occupancy", c as u32, owned as f64 / n_sub as f64);
            e.cells[c].set_allowed_mask(mask);
        }
    }
}

impl LteEngine {
    /// Heard-active-client count at a cell: its own active clients plus
    /// every foreign active client whose PRACH (20 dBm uplink) reaches it
    /// at ≥ −10 dB SNR — the §6.3.4 sensing rule.
    ///
    /// The −10 dB threshold is not arbitrary: with the 10 dB AP/UE power
    /// difference it makes the hearing radius coincide with the radius at
    /// which this AP's downlink degrades the client by ≥ 3 dB — "any
    /// client whose PRACH is detected is likely to be affected by
    /// transmissions from the AP" (§5.1). Shrinking the radius (e.g.
    /// modelling an elevated uplink noise floor) breaks that alignment:
    /// an AP then over-claims spectrum against victims it cannot hear,
    /// and sparse chains stop converging (see the coexistence
    /// integration tests, which caught exactly that during development).
    ///
    /// Only the cell's *listeners* — UEs whose candidate set retained it —
    /// are walked: a culled uplink is below the floor and can never clear
    /// the −10 dB PRACH threshold, and a cell's own clients are always
    /// candidates.
    fn heard_active(&self, cell: usize) -> (u32, u32) {
        let mut own = 0u32;
        let mut heard = 0u32;
        let (ues, slots) = self.scenario.nbr.listeners(cell);
        for (&ue, &sl) in ues.iter().zip(slots) {
            let ue = ue as usize;
            if self.queued_bits(ue) == 0 {
                continue;
            }
            if self.scenario.assoc[ue] == cell {
                own += 1;
                heard += 1;
            } else {
                let link = self.scenario.nbr.links(ue).start + sl as usize;
                if prach::heard(Db(self.ul_mean_dbm[link] - self.ul_noise_dbm)) {
                    heard += 1;
                }
            }
        }
        (own, heard)
    }
}
