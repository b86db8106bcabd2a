//! LAA/MulteFire-style listen-before-talk.
//!
//! A cell transmits (on the whole channel) only after sensing the
//! medium idle, holds it for one maximum channel-occupancy time, then
//! re-contends with a random backoff. The paper argues (§8) this "will
//! face similar MAC inefficiencies as 802.11af" at TVWS ranges; the LAA
//! integration tests exercise exactly that long-range sensing mismatch
//! and the mandatory duty-cycle tax.
//!
//! LBT gates *per subframe*, not per epoch: the strategy overrides
//! [`ImStrategy::transmit_gate`] and leaves masks untouched.

use super::ImStrategy;
use crate::engine::LteEngine;
use cellfi_types::units::Dbm;
use rand::Rng;

/// LAA energy-detect threshold (3GPP LBT category 4 for a 20 MHz carrier
/// is −72 dBm; we keep it for the 5 MHz carrier).
pub const LBT_THRESHOLD_DBM: f64 = -72.0;

/// LAA maximum channel-occupancy time, in 1 ms subframes (8 ms).
pub const LBT_MCOT_SUBFRAMES: u32 = 8;

/// LBT contention window (fixed, priority-class-3-like).
pub const LBT_CW: u32 = 15;

/// The listen-before-talk strategy behind [`crate::engine::ImMode::Laa`].
pub struct Laa;

impl ImStrategy for Laa {
    fn transmit_gate(&self, e: &mut LteEngine) {
        e.lbt_gate();
    }

    fn run_epoch(&self, _e: &mut LteEngine) {}
}

impl LteEngine {
    /// LAA listen-before-talk gate: writes which cells may transmit this
    /// subframe into `gate_scratch`, updating TXOP and backoff state.
    /// Sensing uses the transmitter set of the previous subframe (energy
    /// detect at the AP), so the long-range mismatch between sensing and
    /// interference footprints plays out exactly as it does for CSMA.
    // cellfi-lint: hot
    fn lbt_gate(&mut self) {
        // Who was transmitting last subframe (any subchannel)?
        self.active_last_scratch.fill(false);
        for cells in &self.tx_last {
            for &c in cells {
                self.active_last_scratch[c] = true;
            }
        }
        for (c, granted) in self.gate_scratch.iter_mut().enumerate() {
            *granted = false;
            if self.cells[c].total_queued_bits() == 0 {
                // Idle cells release any TXOP and keep a fresh backoff.
                self.lbt[c].txop_remaining = 0;
                continue;
            }
            if self.lbt[c].txop_remaining > 0 {
                self.lbt[c].txop_remaining -= 1;
                *granted = true;
                continue;
            }
            // Energy detect against everyone who radiated last subframe.
            // Only sensed interferers contribute: a culled AP-to-AP path
            // is below the energy-detect floor by construction.
            let mut busy_mw = 0.0f64;
            let nbr = &self.scenario.nbr;
            for (link, &o) in nbr.interferer_links(c).zip(nbr.interferers(c)) {
                if self.active_last_scratch[o as usize] {
                    busy_mw += Dbm(self.ap_mean_dbm[link]).to_milliwatts().value();
                }
            }
            let busy = 10.0 * busy_mw.max(1e-30).log10() >= LBT_THRESHOLD_DBM;
            if busy {
                continue; // freeze backoff while the medium is busy
            }
            if self.lbt[c].backoff > 0 {
                self.lbt[c].backoff -= 1;
                continue;
            }
            // Idle and backoff expired: seize the channel for one MCOT
            // and draw the next backoff.
            self.lbt[c].txop_remaining = LBT_MCOT_SUBFRAMES - 1;
            self.lbt[c].backoff = self.lbt_rng[c].gen_range(0..=LBT_CW);
            *granted = true;
        }
    }
}
