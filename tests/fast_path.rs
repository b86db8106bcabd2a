//! Steady-state fast-path equivalence contract.
//!
//! The engine memoizes CQI scans keyed by (gain generation, association
//! generation, transmitter-set ids) and replays them in steady state.
//! That is an optimization, never a semantic: with the memo disabled the
//! engine must deliver the same bits, drop the same connections, execute
//! the same handovers, and emit a byte-identical event trace — at any
//! worker count. These tests pin that end-to-end through the facade,
//! including across mid-run perturbations (client mobility, EIRP
//! degradation) that invalidate every cache layer, on three drops: the
//! dense paper topology with fading on; the culled fig9metro pocket
//! drop with fading off, where link rows differ in length and the one
//! gain slab is never refreshed; and the culled district drop, large
//! enough that scheduling, HARQ resolution and the CQI scan split across
//! workers, run past an epoch boundary so replays must re-apply their
//! hits after the epoch flags are cleared.

use cellfi::obs::Tracer;
use cellfi::sim::experiments::fig9metro;
use cellfi::sim::{parallel, ImMode, LteEngine, LteEngineConfig, Scenario, ScenarioConfig};
use cellfi::types::geo::Point;
use cellfi::types::rng::SeedSeq;
use cellfi::types::time::Instant;

/// Everything observable a run produces: delivery counters, resilience
/// counters, and the full JSONL trace stream.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    delivered: Vec<u64>,
    rrc_drops: Vec<u64>,
    handovers: u64,
    trace: String,
}

/// One drop under test: its scenario and how long to run on each side
/// of the perturbation.
#[derive(Clone, Copy)]
struct Case {
    label: &'static str,
    config: ScenarioConfig,
    half_ms: u64,
}

fn run(case: Case, mode: ImMode, seed: u64, fast_path: bool, threads: usize) -> RunOutcome {
    parallel::with_threads(threads, || {
        let scenario = Scenario::generate(case.config, SeedSeq::new(seed));
        let mut e = LteEngine::new(
            scenario,
            LteEngineConfig::paper_default(mode),
            SeedSeq::new(seed ^ 0xfa57),
        );
        e.set_fast_path(fast_path);
        e.obs_mut().tracer = Tracer::new(true);
        e.backlog_all(40_000_000);
        e.run_until(Instant::from_millis(case.half_ms));
        // Perturb mid-run: both paths must agree through cache
        // invalidation, not just within a warmed steady state.
        e.move_ue(0, Point::new(140.0, 60.0));
        e.set_power_offset_db(0, -6.0);
        e.run_until(Instant::from_millis(2 * case.half_ms));
        RunOutcome {
            delivered: e.delivered_bits().to_vec(),
            rrc_drops: e.rrc_drops.clone(),
            handovers: e.handovers,
            trace: e.obs().tracer.to_jsonl(),
        }
    })
}

/// The dense paper drop with fading on (12 coherence blocks on each
/// side of the perturbation), the culled pocket drop with fading off
/// (4 blocks on each side, during which no gain generation rolls), and
/// the district drop (600 ms on each side, across the 1 s epoch).
fn cases() -> [Case; 3] {
    let mut paper = ScenarioConfig::paper_default(3, 2);
    paper.fading = true;
    let pocket = fig9metro::pocket_config();
    let generated = Scenario::generate(pocket, SeedSeq::new(5));
    assert!(
        !pocket.fading && generated.nbr.max_neighbors < generated.aps.len(),
        "premise: the pocket drop is culled and has no fading"
    );
    let district = fig9metro::district_config();
    let generated = Scenario::generate(district, SeedSeq::new(5));
    assert!(
        generated.aps.len() >= 128
            && generated.n_ues() >= 2 * LteEngine::MIN_UES_PER_HARQ_WORKER
            && generated.nbr.max_neighbors < generated.aps.len(),
        "premise: the district drop is culled and splits the per-cell and per-UE fan-outs"
    );
    [
        Case {
            label: "paper",
            config: paper,
            half_ms: 1_200,
        },
        Case {
            label: "pocket",
            config: pocket,
            half_ms: 400,
        },
        Case {
            label: "district",
            config: district,
            half_ms: 600,
        },
    ]
}

#[test]
fn fast_path_matches_full_scan_across_modes_seeds_and_threads() {
    for case in cases() {
        let label = case.label;
        for mode in [ImMode::CellFi, ImMode::PlainLte] {
            for seed in [5u64, 23] {
                let reference = run(case, mode, seed, false, 1);
                assert!(
                    !reference.trace.is_empty(),
                    "{label}: reference run produced no events; the comparison is vacuous"
                );
                for threads in [1usize, 8] {
                    let fast = run(case, mode, seed, true, threads);
                    assert_eq!(
                        reference, fast,
                        "{label}: fast path diverged from full scan ({mode:?}, seed {seed}, \
                         {threads} threads)"
                    );
                }
                // The full scan must itself be thread-independent with
                // the memo off (the fast path may not be masking a
                // parallel nondeterminism in the slow path).
                let slow8 = run(case, mode, seed, false, 8);
                assert_eq!(
                    reference, slow8,
                    "{label}: full scan thread-dependent ({mode:?}, seed {seed})"
                );
            }
        }
    }
}
