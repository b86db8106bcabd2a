//! # cellfi-propagation
//!
//! The radio-propagation substrate for every CellFi experiment. The paper
//! evaluated on a real 700 MHz outdoor testbed; this crate replaces that
//! hardware with models calibrated to the paper's own anchor points
//! (DESIGN.md §2):
//!
//! * 36 dBm EIRP reaches ≈ 1.3 km in the urban environment (Fig 1a);
//! * ≥ 1 Mbps TCP at 85 % of measured locations;
//! * the median downlink code rate is 1/2 (Fig 1b).
//!
//! Modules:
//!
//! * [`pathloss`] — free-space, log-distance, and the calibrated TVWS
//!   urban model.
//! * [`shadowing`] — per-link log-normal shadowing, deterministic in the
//!   link endpoints so paired experiments see identical terrain.
//! * [`fading`] — per-subchannel block fading (Rayleigh/Rician), the
//!   frequency selectivity that makes OFDMA subchannel choice matter.
//! * [`antenna`] — isotropic and 3GPP-pattern sector antennas (the paper
//!   uses a 7 dBi, ~120° sector).
//! * [`noise`] — thermal noise floor plus receiver noise figure.
//! * [`link`] — the combined [`link::RadioEnvironment`]: received power
//!   and per-subchannel SINR with arbitrary interferer sets, and the
//!   static [`link::LinkBudget`] of a pair, computed once and read by
//!   simulators over fixed positions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antenna;
pub mod fading;
pub mod link;
pub mod noise;
pub mod pathloss;
pub mod shadowing;

pub use antenna::Antenna;
pub use fading::{BlockFading, FadingKind};
pub use link::{LinkBudget, LinkEnd, RadioEnvironment, Transmission};
pub use noise::NoiseModel;
pub use pathloss::PathLossModel;
pub use shadowing::Shadowing;
