//! # cellfi-wifi
//!
//! The 802.11ac / 802.11af comparison baseline (paper §3.2, Fig 2,
//! Fig 9). The paper simulated these in ns-3 ("we simulate 802.11af by
//! adjusting the standard 802.11ac PHY and MAC layer in ns3 to match the
//! 802.11af specs"); this crate is our own implementation of the same
//! mechanisms:
//!
//! * [`phy`] — VHT MCS tables for 802.11ac (20 MHz) and 802.11af (6/8 MHz
//!   TVHT, down-clocked), ideal SINR-based rate adaptation, frame
//!   durations. The 802.11 minimum code rate of 1/2 — half of the
//!   paper's coverage argument — is visible right in the table.
//! * [`sim`] — a slotted CSMA/CA DCF simulator: DIFS + binary exponential
//!   backoff, energy-detect carrier sensing, optional RTS/CTS with NAV,
//!   A-MPDU aggregation to 65 KB, per-receiver SINR collision
//!   resolution, and propagation-delay-widened vulnerability windows (the
//!   long-link effect that makes CSMA expensive outdoors). Every static
//!   link quantity it needs is tabulated per AP at construction, so its
//!   9 µs slot loop reads tables and allocates nothing.
//!
//! Hidden and exposed terminals are *not* modelled explicitly — they
//! emerge from the carrier-sense vs interference footprint mismatch,
//! exactly as in reality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod phy;
pub mod sim;

pub use phy::{McsTable, WifiBand};
pub use sim::{WifiConfig, WifiSimulator, WifiStats};
