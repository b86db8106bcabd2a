//! Downlink proportional-fair scheduling over an allowed-subchannel mask.
//!
//! CellFi deliberately does *not* modify the LTE scheduler: "once the
//! interference management component decides which resource block a
//! scheduler can use, it informs the scheduler using standard interfaces.
//! The scheduler is free to schedule any client in any of the resource
//! blocks made available" (§4.3). This module is that standard scheduler:
//! proportional fair (the common vendor default), operating only on
//! subchannels enabled in the mask supplied each subframe.
//!
//! It comes in two forms with one behaviour:
//!
//! * [`pf_allocate`] — the pure function the simulator runs every
//!   subframe. It reads dense slices (the mask, a row-major
//!   `[ue][subchannel]` rate block, the PF averages) and writes one row
//!   index per subchannel into a caller-owned buffer, so a subframe
//!   neither allocates nor looks anything up by key. It walks the UE
//!   rows once and rescores only after a grant empties a backlog. On
//!   the 5 MHz grid, under a mask that opens more than 4 of its 13
//!   subchannels, it treats a row's subchannels as 13 lanes: a product
//!   and a compare per lane skip the rows that cannot beat any lane's
//!   running best, and the rows left are divided with selects instead
//!   of branches. Otherwise it scores the open subchannels one by one.
//!   The per-UE state it reads lives in [`crate::cell::Cell`], in
//!   attach order.
//! * [`Scheduler`] with [`UeDemand`] / [`Allocation`] — the keyed
//!   reference implementation, kept as the differential oracle for
//!   [`pf_allocate`] and as the API `cellfi-bench`'s
//!   `lte.scheduler.pf_allocate_ns` kernel times.
//!
//! The engine aggregates the assignments into `frac_j`, the fraction of
//! time client `j` was scheduled on a subchannel during the last epoch,
//! for CellFi's bucket updates (§5.3).

use crate::grid::MAX_SUBCHANNELS;
use cellfi_types::UeId;
use std::collections::BTreeMap;

/// EWMA smoothing factor of the PF average (standard PF window ≈ 100
/// subframes).
pub const PF_ALPHA: f64 = 0.01;

/// [`pf_allocate`]'s marker for a subchannel nobody was scheduled on.
pub const UNASSIGNED: u32 = u32::MAX;

/// The most allowed subchannels [`pf_allocate`] scores one by one on
/// the 5 MHz grid. CellFi leaves the cells of a dense drop 1–3 of their
/// 13 subchannels. On 10,000 recorded metro_2500 calls re-masked to
/// open 1–13 subchannels, the scalar form cost less up to 4 open, the
/// two forms tied at 5, and the lane form cost less from 6 on
/// (EXPERIMENTS.md, "PF kernel over fixed subchannel lanes").
const SPARSE_OPEN: usize = 4;

/// The lane count of [`pf_allocate`]'s lane form: the 13 subchannels
/// of the 5 MHz grid, the one grid the simulator builds.
const LANES: usize = 13;

/// A lane's bar is its running best times `1 − 2⁻⁴⁰`, once the best is
/// at least [`BAR_MIN`], and −∞ until then. With `d` the row's
/// `max(avg, 1)`, a rate that falls short of `bar · d` cannot score
/// above the best: each of the two products rounds up by at most a
/// factor of `1 + 2⁻⁵³`, so `bar · d` stays below `best · d`, and a rate
/// at most `best · d` divides by `d` to at most `best`, rounding
/// included, so the strict `>` would keep the lane. A row that falls
/// short in every lane is therefore skipped undivided. `>=` keeps an
/// infinite rate in play, whose bar product may have overflowed to ∞ as
/// well.
const BAR_SCALE: f64 = 1.0 - 4096.0 * f64::EPSILON;

/// The smallest best a lane keeps a bar for: below it, `best ·
/// BAR_SCALE` could round into the subnormals, whose error is larger.
const BAR_MIN: f64 = 2.0 * f64::MIN_POSITIVE;

/// Allocate the allowed subchannels of one downlink subframe among a
/// cell's UEs, in place.
///
/// Row `i` of every input is the cell's `i`-th UE: `rates` is
/// row-major `[ue][subchannel]` (achievable bits this subframe, 0 where
/// the UE cannot decode), `remaining` starts at each UE's backlog and is
/// drawn down as subchannels are handed out, and `avg` holds the PF
/// averages. `assignment[s]` receives the row scheduled on subchannel
/// `s`, or [`UNASSIGNED`]. At most [`MAX_SUBCHANNELS`] subchannels.
///
/// Each allowed subchannel, in ascending order, goes to the UE with the
/// largest `rate / max(avg, 1)` among those with backlog left and a
/// usable rate (`rate > 0.0`, so never NaN); the first maximum in row
/// order wins ties. UEs are never assigned more capacity than their
/// backlog needs, so trailing subchannels are released to other UEs —
/// the §5.2 "scheduler will later automatically assign these to its
/// other clients" behaviour.
///
/// The kernel walks the UE rows once, keeping a running best per
/// subchannel (a strict `>`, so the first row keeps a tie), then hands
/// the allowed subchannels out in ascending order. Only a grant that
/// empties a backlog changes who the later subchannels may go to, so the
/// pass then reruns over the subchannels after that one. It comes in two
/// forms:
///
/// * on the 5 MHz grid's 13 subchannels, under a mask that opens more
///   than 4 of them: each subchannel is a lane. A row whose rates fall
///   short of every lane's bar (its running best, shaved by 2⁻⁴⁰, times
///   the row's `max(avg, 1)`) cannot beat any best and is skipped
///   undivided. Each lane of any other row scores `rate / max(avg, 1)`,
///   or −∞ where the rate is unusable, and keeps its running best with
///   selects instead of branches, so the divisions vectorise.
/// * otherwise: only the open subchannels are scored, each with a
///   branch, which costs less than a full row of lanes.
///
/// Each subchannel's argmax is independent of the others, and scoring a
/// skipped row would have changed no lane, so both forms make the
/// decisions and the backlog subtractions of scoring each subchannel on
/// its own.
// cellfi-lint: hot
pub fn pf_allocate(
    allowed: &[bool],
    rates: &[f64],
    remaining: &mut [f64],
    avg: &[f64],
    assignment: &mut [u32],
) {
    let n_sub = allowed.len();
    assert!(
        n_sub <= MAX_SUBCHANNELS,
        "a grid has at most MAX_SUBCHANNELS subchannels"
    );
    assert_eq!(
        assignment.len(),
        n_sub,
        "one assignment slot per subchannel"
    );
    assert_eq!(avg.len(), remaining.len(), "one PF average per UE");
    assert_eq!(
        rates.len(),
        remaining.len() * n_sub,
        "one rate row of n_sub entries per UE"
    );
    // The lane form is written for 13 lanes: at a run-time width its
    // products and divisions would not vectorise.
    if n_sub == LANES && allowed.iter().filter(|&&a| a).count() > SPARSE_OPEN {
        pf_lanes(allowed, rates, remaining, avg, assignment);
    } else {
        pf_scalar(allowed, rates, remaining, avg, assignment);
    }
}

/// [`pf_allocate`] over the [`LANES`] subchannels of the 5 MHz grid,
/// each a lane.
fn pf_lanes(
    allowed: &[bool],
    rates: &[f64],
    remaining: &mut [f64],
    avg: &[f64],
    assignment: &mut [u32],
) {
    assignment.fill(UNASSIGNED);
    // The first subchannel still to hand out.
    let mut from = 0;
    while allowed[from..].contains(&true) {
        let mut best = [f64::NEG_INFINITY; LANES];
        let mut bar = [f64::NEG_INFINITY; LANES];
        let mut winner = [UNASSIGNED; LANES];
        let rows = rates.chunks_exact(LANES).zip(remaining.iter().zip(avg));
        for (i, (row, (&left, &a))) in rows.enumerate() {
            if left <= 0.0 {
                continue;
            }
            let row: &[f64; LANES] = row.try_into().expect("rows are LANES wide");
            let d = a.max(1.0);
            if !may_win(row, d, &bar) {
                continue;
            }
            score_row(row, d, i as u32, &mut best, &mut winner);
            for (bar, &best) in bar.iter_mut().zip(&best) {
                *bar = if best >= BAR_MIN {
                    best * BAR_SCALE
                } else {
                    f64::NEG_INFINITY
                };
            }
        }
        let start = from;
        from = LANES;
        for (s, &w) in winner.iter().enumerate().skip(start) {
            if !allowed[s] || w == UNASSIGNED {
                continue;
            }
            assignment[s] = w;
            let row = rates.chunks_exact(LANES).nth(w as usize);
            let left = &mut remaining[w as usize];
            *left -= row.expect("a lane's winner is one of the rate rows")[s];
            if *left <= 0.0 {
                // This UE is no longer eligible: rescore the rest.
                from = s + 1;
                break;
            }
        }
    }
}

/// Whether some lane of `row` may score above its running best, given
/// each lane's `bar` (see [`BAR_SCALE`]): `row[k] >= bar[k] * d` for
/// some `k`. One product and one compare per lane, no division.
#[inline(always)]
fn may_win(row: &[f64; LANES], d: f64, bar: &[f64; LANES]) -> bool {
    row.iter()
        .zip(bar)
        .fold(false, |any, (&rate, &bar)| any | (rate >= bar * d))
}

/// One row's turn in [`pf_lanes`]: lane `k` scores `row[k] / d`, or −∞
/// where `!(row[k] > 0.0)`, and a score strictly above `best[k]` takes
/// it and gives the lane to row `i`. Both updates are selects, in two
/// loops, since a fused loop compiled to per-lane branches around
/// conditional stores.
#[inline(always)]
fn score_row(
    row: &[f64; LANES],
    d: f64,
    i: u32,
    best: &mut [f64; LANES],
    winner: &mut [u32; LANES],
) {
    let mut wins = [false; LANES];
    for ((&rate, best), wins) in row.iter().zip(best.iter_mut()).zip(wins.iter_mut()) {
        let score = if rate > 0.0 {
            rate / d
        } else {
            f64::NEG_INFINITY
        };
        *wins = score > *best;
        *best = if *wins { score } else { *best };
    }
    for (w, &wins) in winner.iter_mut().zip(&wins) {
        *w = if wins { i } else { *w };
    }
}

/// [`pf_allocate`] over the allowed subchannels alone, each scored
/// with a branch: the form for a mask that opens few of them, and the
/// reference the lane form is checked against.
fn pf_scalar(
    allowed: &[bool],
    rates: &[f64],
    remaining: &mut [f64],
    avg: &[f64],
    assignment: &mut [u32],
) {
    let n_sub = allowed.len();
    assignment.fill(UNASSIGNED);
    // The allowed subchannels, ascending.
    let mut subs = [0usize; MAX_SUBCHANNELS];
    let mut n_allowed = 0;
    for (s, _) in allowed.iter().enumerate().filter(|&(_, &a)| a) {
        subs[n_allowed] = s;
        n_allowed += 1;
    }
    let subs = &subs[..n_allowed];
    // The running best of each subchannel still to hand out.
    let mut best_metric = [0.0f64; MAX_SUBCHANNELS];
    let mut best_rate = [0.0f64; MAX_SUBCHANNELS];
    let mut best_row = [UNASSIGNED; MAX_SUBCHANNELS];
    let mut first = 0;
    while first < subs.len() {
        let todo = &subs[first..];
        let metric = &mut best_metric[..todo.len()];
        let rate_won = &mut best_rate[..todo.len()];
        let winner = &mut best_row[..todo.len()];
        metric.fill(f64::NEG_INFINITY);
        winner.fill(UNASSIGNED);
        let rows = rates.chunks_exact(n_sub).zip(remaining.iter().zip(avg));
        for (i, (row, (&left, &a))) in rows.enumerate() {
            if left <= 0.0 {
                continue;
            }
            let d = a.max(1.0);
            let best = metric
                .iter_mut()
                .zip(rate_won.iter_mut())
                .zip(winner.iter_mut());
            for (&s, ((m, r), w)) in todo.iter().zip(best) {
                let rate = row[s];
                let score = rate / d;
                if rate > 0.0 && score > *m {
                    *m = score;
                    *r = rate;
                    *w = i as u32;
                }
            }
        }
        let start = first;
        first = subs.len();
        for (k, (&s, (&w, &rate))) in todo
            .iter()
            .zip(winner.iter().zip(rate_won.iter()))
            .enumerate()
        {
            if w == UNASSIGNED {
                continue;
            }
            assignment[s] = w;
            let left = &mut remaining[w as usize];
            *left -= rate;
            if *left <= 0.0 {
                // This UE is no longer eligible: rescore the rest.
                first = start + k + 1;
                break;
            }
        }
    }
}

/// Scheduler discipline. Proportional fair is the only one; the enum
/// stays because `cellfi-bench`'s `lte.scheduler.pf_allocate_ns` kernel
/// (`benchmark/src/kernels.rs`) builds its scheduler through
/// [`Scheduler::new`]`(SchedulerKind::ProportionalFair)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Proportional fair: maximize instantaneous rate / average rate.
    ProportionalFair,
}

/// Scheduling input for one UE in one subframe.
#[derive(Debug, Clone)]
pub struct UeDemand {
    /// The UE.
    pub ue: UeId,
    /// Bits waiting in its downlink queue.
    pub backlog_bits: u64,
    /// Achievable bits this subframe on each subchannel (0 where the UE
    /// cannot decode).
    pub rate_per_subchannel: Vec<f64>,
}

/// The per-subframe allocation: which UE owns each subchannel.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// `assignment[s]` is the UE scheduled on subchannel `s`, if any.
    pub assignment: Vec<Option<UeId>>,
}

impl Allocation {
    /// Number of assigned subchannels.
    pub fn used_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }
}

/// The keyed reference PF scheduler (one per cell): [`pf_allocate`]'s
/// oracle. It keeps its PF averages in a map by [`UeId`], defaulting to
/// 1.0 for a UE it has not seen or has forgotten.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// EWMA of served rate per UE (bits/subframe), the PF denominator.
    avg_rate: BTreeMap<UeId, f64>,
    /// EWMA smoothing factor (standard PF window ≈ 100 subframes).
    alpha: f64,
}

impl Scheduler {
    /// New scheduler of the given discipline.
    pub fn new(kind: SchedulerKind) -> Scheduler {
        let SchedulerKind::ProportionalFair = kind;
        Scheduler {
            avg_rate: BTreeMap::new(),
            alpha: PF_ALPHA,
        }
    }

    /// Allocate the allowed subchannels of one downlink subframe among the
    /// demanding UEs. `allowed[s]` is the interference-management mask.
    ///
    /// UEs are never assigned more capacity than their backlog needs
    /// (trailing subchannels are released to other UEs — the §5.2
    /// "scheduler will later automatically assign these to its other
    /// clients" behaviour).
    pub fn allocate(&mut self, allowed: &[bool], demands: &[UeDemand]) -> Allocation {
        let n_sub = allowed.len();
        let mut assignment: Vec<Option<UeId>> = vec![None; n_sub];
        if demands.is_empty() {
            return Allocation { assignment };
        }
        for d in demands {
            assert_eq!(
                d.rate_per_subchannel.len(),
                n_sub,
                "UE {} rate vector length mismatch",
                d.ue
            );
        }
        // Remaining backlog per demand index as we hand out subchannels.
        let mut remaining: Vec<f64> = demands.iter().map(|d| d.backlog_bits as f64).collect();
        for s in 0..n_sub {
            if !allowed[s] {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, d) in demands.iter().enumerate() {
                if remaining[i] <= 0.0 {
                    continue;
                }
                let rate = d.rate_per_subchannel[s];
                // NaN is no usable rate either: subtracting it would
                // keep the UE's backlog from ever emptying.
                if rate.is_nan() || rate <= 0.0 {
                    continue;
                }
                let avg = self.avg_rate.get(&d.ue).copied().unwrap_or(1.0).max(1.0);
                let metric = rate / avg;
                if best.is_none_or(|(_, m)| metric > m) {
                    best = Some((i, metric));
                }
            }
            if let Some((i, _)) = best {
                assignment[s] = Some(demands[i].ue);
                remaining[i] -= demands[i].rate_per_subchannel[s];
            }
        }
        Allocation { assignment }
    }

    /// Record bits actually delivered to `ue` this subframe (updates the
    /// PF average). Call once per subframe per UE, with 0 for unserved
    /// UEs so their average decays and their PF priority rises.
    pub fn record_served(&mut self, ue: UeId, bits: f64) {
        let avg = self.avg_rate.entry(ue).or_insert(1.0);
        *avg = (1.0 - self.alpha) * *avg + self.alpha * bits;
    }

    /// Remove state for a detached UE.
    pub fn forget(&mut self, ue: UeId) {
        self.avg_rate.remove(&ue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ChannelBandwidth;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// One [`pf_allocate`] input: mask, `[ue][subchannel]` rates,
    /// backlogs and PF averages.
    struct LaneCase {
        allowed: Vec<bool>,
        rates: Vec<f64>,
        backlogs: Vec<f64>,
        avg: Vec<f64>,
    }

    /// Rates at the edges of the `rate > 0.0` test and of the division:
    /// both zeros, the smallest subnormal (whose score underflows to 0
    /// above an average of 1), two ordinary rates that tie often, the
    /// double just above 100 (whose score beats 100's by one ulp, right
    /// at the lane bar), `f64::MAX`, ∞ (∞/∞ is NaN at an infinite
    /// average) and NaN.
    const EDGE_RATES: [f64; 9] = [
        0.0,
        -0.0,
        f64::from_bits(1),
        100.0,
        250.0,
        f64::from_bits(100.0f64.to_bits() + 1),
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ];
    /// Averages below, at, just above (one ulp, so scores a few ulps
    /// apart) and far above the `max(avg, 1)` floor, ∞ and NaN (which
    /// `max` reads as 1).
    const EDGE_AVGS: [f64; 6] = [
        0.3,
        1.0,
        f64::from_bits(1.0f64.to_bits() + 1),
        1e6,
        f64::INFINITY,
        f64::NAN,
    ];
    /// Backlogs that are empty, emptied by one grant (so the kernel
    /// reruns), or never emptied.
    const EDGE_BACKLOGS: [u64; 4] = [0, 1, 300, u64::MAX / 4];

    /// A case drawn from `seed`: the 5 MHz grid's [`LANES`]
    /// subchannels half the time, else 1–25, under a sparse (0–2
    /// allowed), full or coin-flip mask, and 0–40 UEs whose rates,
    /// averages and backlogs come from the edge sets above.
    fn lane_case(seed: u64) -> LaneCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_sub = if rng.gen_bool(0.5) {
            LANES
        } else {
            rng.gen_range(1..=MAX_SUBCHANNELS)
        };
        let allowed = match rng.gen_range(0..3) {
            0 => {
                let mut mask = vec![false; n_sub];
                for _ in 0..rng.gen_range(0..3) {
                    mask[rng.gen_range(0..n_sub)] = true;
                }
                mask
            }
            1 => vec![true; n_sub],
            _ => (0..n_sub).map(|_| rng.gen_bool(0.5)).collect(),
        };
        let n_ue = rng.gen_range(0..=40usize);
        let mut pick = |set: &[f64]| *set.choose(&mut rng).expect("edge sets are not empty");
        let rates = (0..n_ue * n_sub).map(|_| pick(&EDGE_RATES)).collect();
        let avg = (0..n_ue).map(|_| pick(&EDGE_AVGS)).collect();
        let backlogs = (0..n_ue)
            .map(|_| *EDGE_BACKLOGS.choose(&mut rng).expect("not empty") as f64)
            .collect();
        LaneCase {
            allowed,
            rates,
            backlogs,
            avg,
        }
    }

    /// [`pf_allocate`]'s signature, which both of its forms share.
    type Kernel = fn(&[bool], &[f64], &mut [f64], &[f64], &mut [u32]);

    /// `kernel`'s assignment on `case` and the bits of the backlogs it
    /// leaves.
    fn run_kernel(kernel: Kernel, case: &LaneCase) -> (Vec<u32>, Vec<u64>) {
        let mut assignment = vec![UNASSIGNED; case.allowed.len()];
        let mut left = case.backlogs.clone();
        kernel(
            &case.allowed,
            &case.rates,
            &mut left,
            &case.avg,
            &mut assignment,
        );
        (assignment, left.iter().map(|b| b.to_bits()).collect())
    }

    #[test]
    fn lanes_fit_the_5_mhz_grid() {
        assert_eq!(LANES, ChannelBandwidth::Mhz5.subchannels() as usize);
    }

    /// A NaN rate is no usable rate in either form: UE 0 cannot take
    /// subchannel 0 with it, so UE 1 does. The keyed oracle once
    /// scheduled the NaN, and `remaining -= NaN` then kept UE 0
    /// eligible for good.
    #[test]
    fn nan_rates_are_never_scheduled() {
        let rates = [f64::NAN, 100.0, 0.0, 50.0, 50.0, 50.0];
        let allowed = [true; 3];
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let d = vec![
            demand(0, 1_000_000, rates[..3].to_vec()),
            demand(1, 1_000_000, rates[3..].to_vec()),
        ];
        let keyed = s.allocate(&allowed, &d).assignment;
        let ue = |u| Some(UeId::new(u));
        assert_eq!(keyed, vec![ue(1), ue(0), ue(1)]);
        let mut remaining = [1e6; 2];
        let mut assignment = [UNASSIGNED; 3];
        pf_allocate(&allowed, &rates, &mut remaining, &[1.0; 2], &mut assignment);
        assert_eq!(assignment, [1, 0, 1]);
        assert_eq!(remaining, [1e6 - 100.0, 1e6 - 100.0]);
    }

    fn demand(ue: u32, backlog: u64, rates: Vec<f64>) -> UeDemand {
        UeDemand {
            ue: UeId::new(ue),
            backlog_bits: backlog,
            rate_per_subchannel: rates,
        }
    }

    /// Subchannels of `a` assigned to UE `ue`.
    fn count_of(a: &Allocation, ue: u32) -> usize {
        a.assignment
            .iter()
            .filter(|&&u| u == Some(UeId::new(ue)))
            .count()
    }

    #[test]
    fn respects_allowed_mask() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let allowed = vec![true, false, true, false];
        let d = vec![demand(0, 1_000_000, vec![100.0; 4])];
        let a = s.allocate(&allowed, &d);
        assert_eq!(a.assignment[0], Some(UeId::new(0)));
        assert_eq!(a.assignment[1], None);
        assert_eq!(a.assignment[2], Some(UeId::new(0)));
        assert_eq!(a.assignment[3], None);
    }

    #[test]
    fn empty_demands_allocate_nothing() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let a = s.allocate(&[true, true], &[]);
        assert_eq!(a.used_count(), 0);
    }

    #[test]
    fn backlog_limits_assignment() {
        // 150 bits of backlog at 100 bits/subchannel needs 2 subchannels,
        // not all 4 — the rest must go unused (or to other UEs).
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let d = vec![demand(0, 150, vec![100.0; 4])];
        let a = s.allocate(&[true; 4], &d);
        assert_eq!(a.used_count(), 2);
    }

    #[test]
    fn released_capacity_goes_to_other_ue() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let d = vec![
            demand(0, 150, vec![100.0; 4]),
            demand(1, 1_000_000, vec![100.0; 4]),
        ];
        let a = s.allocate(&[true; 4], &d);
        assert_eq!(a.used_count(), 4);
        assert_eq!(count_of(&a, 1), 2);
    }

    #[test]
    fn pf_prefers_under_served_ue() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        // UE 0 has been served heavily, UE 1 starved.
        for _ in 0..200 {
            s.record_served(UeId::new(0), 10_000.0);
            s.record_served(UeId::new(1), 10.0);
        }
        let d = vec![
            demand(0, 1_000_000, vec![100.0; 2]),
            demand(1, 1_000_000, vec![100.0; 2]),
        ];
        let a = s.allocate(&[true, true], &d);
        assert_eq!(count_of(&a, 1), 2, "{a:?}");
    }

    #[test]
    fn pf_exploits_frequency_selectivity() {
        // Equal averages; UE 0 peaks on sc0, UE 1 on sc1 → each gets its
        // best subchannel (the OFDMA advantage of §3.1).
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        s.record_served(UeId::new(0), 100.0);
        s.record_served(UeId::new(1), 100.0);
        let d = vec![
            demand(0, 10_000, vec![500.0, 50.0]),
            demand(1, 10_000, vec![50.0, 500.0]),
        ];
        let a = s.allocate(&[true, true], &d);
        assert_eq!(a.assignment[0], Some(UeId::new(0)));
        assert_eq!(a.assignment[1], Some(UeId::new(1)));
    }

    #[test]
    fn zero_rate_subchannel_never_assigned() {
        // A UE that cannot decode a subchannel (CQI 0) must not be put on
        // it, even if it is the only UE.
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let d = vec![demand(0, 1_000_000, vec![0.0, 100.0])];
        let a = s.allocate(&[true, true], &d);
        assert_eq!(a.assignment[0], None);
        assert_eq!(a.assignment[1], Some(UeId::new(0)));
    }

    #[test]
    fn forget_resets_pf_priority() {
        // At equal rates on one subchannel, a heavily served UE 0 loses
        // to UE 1. Forgetting UE 0 resets its average to UE 1's: the two
        // tie, and UE 0 wins because the first maximum wins.
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        for _ in 0..1000 {
            s.record_served(UeId::new(0), 500.0);
        }
        let d = vec![
            demand(0, 1_000_000, vec![100.0]),
            demand(1, 1_000_000, vec![100.0]),
        ];
        assert_eq!(s.allocate(&[true], &d).assignment[0], Some(UeId::new(1)));
        s.forget(UeId::new(0));
        assert_eq!(s.allocate(&[true], &d).assignment[0], Some(UeId::new(0)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_demands() -> impl Strategy<Value = Vec<UeDemand>> {
            proptest::collection::vec(
                (0u64..2_000, proptest::collection::vec(0.0f64..1_000.0, 13)),
                1..6,
            )
            .prop_map(|raw| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (backlog, rates))| UeDemand {
                        ue: UeId::new(i as u32),
                        backlog_bits: backlog,
                        rate_per_subchannel: rates,
                    })
                    .collect()
            })
        }

        proptest! {
            /// Nothing outside the mask, nothing to zero-rate subchannels,
            /// nothing to UEs with no backlog.
            #[test]
            fn allocation_is_always_legal(
                demands in arb_demands(),
                mask_bits in proptest::collection::vec(any::<bool>(), 13),
            ) {
                let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
                let alloc = s.allocate(&mask_bits, &demands);
                for (sc, assigned) in alloc.assignment.iter().enumerate() {
                    if let Some(ue) = assigned {
                        prop_assert!(mask_bits[sc], "assigned outside mask");
                        let d = demands.iter().find(|d| d.ue == *ue).expect("known UE");
                        prop_assert!(d.rate_per_subchannel[sc] > 0.0, "zero-rate subchannel");
                        prop_assert!(d.backlog_bits > 0, "no backlog");
                    }
                }
            }

            /// A single backlogged UE with uniform rates gets every allowed,
            /// usable subchannel it needs.
            #[test]
            fn lone_ue_saturates_mask(mask_bits in proptest::collection::vec(any::<bool>(), 13)) {
                let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
                let d = vec![UeDemand {
                    ue: UeId::new(0),
                    backlog_bits: u64::MAX / 2,
                    rate_per_subchannel: vec![100.0; 13],
                }];
                let alloc = s.allocate(&mask_bits, &d);
                let allowed = mask_bits.iter().filter(|&&b| b).count();
                prop_assert_eq!(alloc.used_count(), allowed);
            }

            /// On a seeded [`lane_case`] of the 5 MHz grid, under any
            /// mask (so the sparse ones too), the lane form decides and
            /// subtracts exactly as the scalar form: every assignment and
            /// every remaining backlog, bit for bit. So does
            /// [`pf_allocate`] at every width, whichever form it picks.
            #[test]
            fn lanes_match_the_scalar_form(seed in any::<u64>()) {
                let case = lane_case(seed);
                let want = run_kernel(pf_scalar, &case);
                if case.allowed.len() == LANES {
                    prop_assert_eq!(&run_kernel(pf_lanes, &case), &want);
                }
                prop_assert_eq!(&run_kernel(pf_allocate, &case), &want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_rate_vector_length_panics() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let d = vec![demand(0, 100, vec![1.0; 3])];
        let _ = s.allocate(&[true; 4], &d);
    }
}
