//! Steady-state fast-path equivalence contract.
//!
//! The engine memoizes CQI scans keyed by (gain generation, association
//! generation, transmitter-set ids) and replays them in steady state.
//! That is an optimization, never a semantic: with the memo disabled the
//! engine must deliver the same bits, drop the same connections, execute
//! the same handovers, and emit a byte-identical event trace — at any
//! worker count. These tests pin that end-to-end through the facade,
//! including across mid-run perturbations (client mobility, EIRP
//! degradation) that invalidate every cache layer.

use cellfi::obs::Tracer;
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

fn run(mode: ImMode, seed: u64, fast_path: bool, threads: usize) -> RunOutcome {
    parallel::with_threads(threads, || {
        let mut cfg = ScenarioConfig::paper_default(3, 2);
        cfg.fading = true;
        let scenario = Scenario::generate(cfg, SeedSeq::new(seed));
        let mut e = LteEngine::new(
            scenario,
            LteEngineConfig::paper_default(mode),
            SeedSeq::new(seed ^ 0xfa57),
        );
        e.set_fast_path(fast_path);
        e.obs_mut().tracer = Tracer::new(true);
        e.backlog_all(40_000_000);
        e.run_until(Instant::from_millis(1_200));
        // Perturb mid-run: both paths must agree through cache
        // invalidation, not just within a warmed steady state.
        e.move_ue(0, Point::new(140.0, 60.0));
        e.set_power_offset_db(0, -6.0);
        e.run_until(Instant::from_millis(2_400));
        RunOutcome {
            delivered: e.delivered_bits().to_vec(),
            rrc_drops: e.rrc_drops.clone(),
            handovers: e.handovers,
            trace: e.obs().tracer.to_jsonl(),
        }
    })
}

#[test]
fn fast_path_matches_full_scan_across_modes_seeds_and_threads() {
    for mode in [ImMode::CellFi, ImMode::PlainLte] {
        for seed in [5u64, 23] {
            let reference = run(mode, seed, false, 1);
            assert!(
                !reference.trace.is_empty(),
                "reference run produced no events; the comparison is vacuous"
            );
            for threads in [1usize, 8] {
                let fast = run(mode, seed, true, threads);
                assert_eq!(
                    reference, fast,
                    "fast path diverged from full scan ({mode:?}, seed {seed}, \
                     {threads} threads)"
                );
            }
            // The full scan must itself be thread-independent with the
            // memo off (the fast path may not be masking a parallel
            // nondeterminism in the slow path).
            let slow8 = run(mode, seed, false, 8);
            assert_eq!(
                reference, slow8,
                "full scan thread-dependent ({mode:?}, seed {seed})"
            );
        }
    }
}
