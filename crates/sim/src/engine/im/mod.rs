//! Interference management: one module per system, behind one trait.
//!
//! The paper compares five ways of sharing the channel between
//! uncoordinated cells (§6.3.4, §8); each lives in its own module here
//! and implements [`ImStrategy`]:
//!
//! | module        | system                                            |
//! |---------------|---------------------------------------------------|
//! | [`plain_lte`] | no coordination — every cell uses every subchannel |
//! | [`cellfi`]    | the paper's distributed PRACH/CQI-driven manager   |
//! | [`oracle`]    | centralized FERMI-style true-conflict allocator    |
//! | [`laa`]       | listen-before-talk with TXOP + random backoff      |
//! | [`x2_icic`]   | X2-coordinated sequential colouring                |
//!
//! Adding a sixth system is one new module: implement [`ImStrategy`],
//! add an [`ImMode`] variant, and list it in `strategy_for`. The
//! strategies are stateless unit structs — all per-run state (manager
//! instances, LBT counters, the conflict graph) lives on the engine, so
//! dispatch is a `&'static` lookup with no allocation.

pub mod cellfi;
pub mod laa;
pub mod oracle;
pub mod plain_lte;
pub mod x2_icic;

use super::{ImMode, LteEngine};

/// One interference-management system's hooks into the engine loop.
///
/// The engine calls [`ImStrategy::transmit_gate`] at the top of every
/// downlink subframe and [`ImStrategy::run_epoch`] at each 1 s epoch
/// boundary (after the free-streak roll, before epoch counters reset).
/// Implementations receive the whole engine mutably: they are the
/// policy layer and may read any measurement state and rewrite the
/// cells' allowed masks.
pub trait ImStrategy {
    /// Which cells may transmit this downlink subframe. The default —
    /// every cell — is right for every system except LAA, whose
    /// listen-before-talk contention gates transmission per subframe.
    fn transmit_gate(&self, e: &mut LteEngine) -> Vec<bool> {
        vec![true; e.cells.len()]
    }

    /// The per-epoch interference-management decision: observe the
    /// epoch's measurements and set each cell's allowed mask.
    fn run_epoch(&self, e: &mut LteEngine);
}

/// The strategy implementing `mode`: a static dispatch table, so the
/// engine never stores (or borrows) the strategy itself.
pub(crate) fn strategy_for(mode: ImMode) -> &'static dyn ImStrategy {
    match mode {
        ImMode::PlainLte => &plain_lte::PlainLte,
        ImMode::CellFi => &cellfi::CellFi,
        ImMode::Oracle => &oracle::Oracle,
        ImMode::Laa => &laa::Laa,
        ImMode::X2Icic => &x2_icic::X2Icic,
    }
}
