//! # cellfi-lte
//!
//! A from-scratch LTE system model — the substrate the CellFi paper runs
//! on. The paper used off-the-shelf small cells (IP Access E40), a
//! Qualcomm UE and an SDR access point; this crate replaces them with
//! models of the 3GPP mechanisms the paper's arguments rest on
//! (Table 1, §3.1):
//!
//! * **OFDMA resource grid** ([`grid`]) — 180 kHz × 1 ms resource blocks,
//!   grouped into the minimal schedulable *subchannels* (13 on 5 MHz,
//!   25 on 20 MHz) that CellFi's interference management allocates.
//! * **TDD frame structure** ([`tdd`]) — frame type 2 configurations; the
//!   paper uses configuration 4 (7 downlink + 2 uplink subframes per
//!   10 ms).
//! * **Adaptive modulation & coding** ([`amc`]) — the 4-bit CQI table,
//!   SINR→CQI mapping and a BLER model. LTE's ability to run at code rate
//!   ~0.1 (vs Wi-Fi's minimum 1/2) is half of the paper's coverage story.
//! * **Hybrid ARQ** ([`harq`]) — stop-and-wait processes with chase
//!   combining; the other half of the coverage story (25 % of packets
//!   beyond 500 m used HARQ in Fig 1).
//! * **CQI reporting** ([`cqi`]) — wideband and aperiodic mode 3-0
//!   sub-band reports every 2 ms, the sensing input of CellFi.
//! * **PRACH** ([`prach`]) — Zadoff–Chu preambles and the paper's
//!   low-complexity timing-free detector (§6.3.3), plus the −10 dB
//!   detection-probability model used by the system simulations.
//! * **Scheduler** ([`scheduler`]) — proportional fair over an *allowed
//!   subchannel mask*, the interface CellFi's interference manager
//!   drives ("we don't require any modifications of the standard
//!   scheduler", §4.3).
//! * **Cells and UEs** ([`cell`], [`ue`]) — attach state machines, SIB
//!   broadcast of uplink frequency/power ([`sib`]), EARFCN mapping
//!   ([`earfcn`]).
//! * **Control-channel interference** ([`control`]) — the measured
//!   ≤ 20 % goodput degradation from an idle interfering cell (Fig 7b),
//!   applied as a SINR-dependent scale factor in the system simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amc;
pub mod cell;
pub mod control;
pub mod cqi;
pub mod dsp;
pub mod earfcn;
pub mod grid;
pub mod harq;
pub mod prach;
pub mod scheduler;
pub mod sib;
pub mod tdd;
pub mod ue;

pub use amc::{Cqi, CqiTable, Modulation};
pub use cell::{Cell, CellConfig};
pub use grid::{ChannelBandwidth, ResourceGrid};
pub use scheduler::{Allocation, Scheduler, SchedulerKind};
pub use tdd::{SubframeKind, TddConfig};
pub use ue::{RrcState, Ue};
