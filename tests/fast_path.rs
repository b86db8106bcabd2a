//! Steady-state fast-path equivalence contract.
//!
//! The engine memoizes CQI scans column by column: each subchannel's
//! column is keyed by (gain generation, association generation, the
//! subchannel's transmitter-set id), and a scan keeps, copies back or
//! computes each column, re-testing the interference hits of a kept or
//! copied column once per epoch. That is an optimization, never a
//! semantic: with the memo disabled the engine must deliver the same
//! bits, drop the same connections, execute the same handovers, and
//! emit a byte-identical event trace — at any worker count. These tests
//! pin that end-to-end through the facade.
//!
//! Under full backlog, on three drops, across mid-run perturbations
//! (client mobility, EIRP degradation) that invalidate every cache
//! layer: the dense paper topology with fading on; the culled fig9metro
//! pocket drop with fading off, where link rows differ in length and the
//! one gain slab is never refreshed; and the culled district drop, large
//! enough that scheduling, HARQ resolution and the CQI scan split across
//! workers, run past an epoch boundary so kept columns must re-test
//! their hits after the epoch flags are cleared. Full backlog flips every
//! column between the downlink set and the empty set in lockstep, so a
//! second case drives the district drop with bursty web traffic: pages
//! start and drain, columns change one at a time, and scans copy some
//! columns from one slot, some from the other and compute the rest,
//! across an epoch boundary and a handover.

use cellfi::obs::Tracer;
use cellfi::sim::experiments::fig9metro;
use cellfi::sim::{
    parallel, ImMode, LteEngine, LteEngineConfig, Scenario, ScenarioConfig, WebWorkload,
    WebWorkloadConfig,
};
use cellfi::types::geo::Point;
use cellfi::types::rng::SeedSeq;
use cellfi::types::time::{Duration, Instant};

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

/// One subframe under web traffic: `web`'s page requests go in first
/// unless `paused`, and deliveries go back to it in whole bytes (`bits`
/// accumulates each UE's delivered bits).
fn step(e: &mut LteEngine, web: &mut WebWorkload, bits: &mut [u64], paused: bool) {
    if !paused {
        for (ue, bytes) in web.poll(e.now()) {
            e.enqueue(ue, bytes * 8);
        }
    }
    let deliveries = e.step_subframe();
    for (ue, delivered) in deliveries {
        let before = bits[ue] / 8;
        bits[ue] += delivered;
        web.delivered(ue, bits[ue] / 8 - before, e.now());
    }
}

/// The district drop under web traffic, in three acts. First 1.1 s of
/// pages (across the 1 s epoch), where transmitter sets change a few
/// columns at a time. Then UE 0 moves next to another of its candidate
/// APs, page requests pause until the network has drained and idled
/// for 10 ms, and the clients of UE 0's cell and of that AP (UE 0
/// among them) are backlogged for 300 ms: the downlink set is one new
/// key next to the resident idle key, so downlink and uplink scans flip
/// by copies while, under plain LTE, the AP next door jams UE 0 on
/// every subchannel, in downlink scans only — its RLF monitor must see
/// every uplink scan's usable report. Last, UE 0 hands over; the
/// sets do not change, so kept columns must be measured anew for the
/// new serving cell, and 100 ms later page requests resume for 300 ms.
fn run_web(mode: ImMode, seed: u64, fast_path: bool, threads: usize) -> RunOutcome {
    parallel::with_threads(threads, || {
        let scenario = Scenario::generate(fig9metro::district_config(), SeedSeq::new(seed));
        let n_ue = scenario.n_ues();
        assert!(
            n_ue >= 128,
            "premise: a computing scan splits across workers"
        );
        let mut e = LteEngine::new(
            scenario,
            LteEngineConfig::paper_default(mode),
            SeedSeq::new(seed ^ 0xfa57),
        );
        e.set_fast_path(fast_path);
        e.obs_mut().tracer = Tracer::new(true);
        let mut web = WebWorkload::new(
            WebWorkloadConfig::default(),
            n_ue,
            SeedSeq::new(seed ^ 0x3eb),
        );
        let mut bits = vec![0u64; n_ue];
        let run_for = |e: &mut LteEngine, web: &mut WebWorkload, bits: &mut [u64], ms, paused| {
            let until = e.now() + Duration::from_millis(ms);
            while e.now() < until {
                step(e, web, bits, paused);
            }
        };
        run_for(&mut e, &mut web, &mut bits, 1_100, false);

        let scenario = e.scenario();
        let serving = scenario.assoc[0];
        let target = scenario
            .nbr
            .candidates(0)
            .iter()
            .map(|&a| a as usize)
            .find(|&a| a != serving)
            .expect("premise: every district UE has at least two candidate APs");
        let at = scenario.aps[target].position;
        let backlogged: Vec<usize> = (0..n_ue)
            .filter(|&u| [serving, target].contains(&scenario.assoc[u]))
            .collect();
        e.move_ue(0, Point::new(at.x + 5.0, at.y));
        while (0..n_ue).any(|u| e.queued_bits(u) > 0) {
            assert!(
                e.now() < Instant::from_millis(5_000),
                "premise: pages drain"
            );
            step(&mut e, &mut web, &mut bits, true);
        }
        run_for(&mut e, &mut web, &mut bits, 10, true);
        for ue in backlogged {
            e.enqueue(ue, 40_000_000);
        }
        run_for(&mut e, &mut web, &mut bits, 300, true);

        assert_eq!(
            e.check_handover(0, 3.0),
            Some(target),
            "premise: UE 0 hands over"
        );
        run_for(&mut e, &mut web, &mut bits, 100, true);
        run_for(&mut e, &mut web, &mut bits, 300, false);
        RunOutcome {
            delivered: e.delivered_bits().to_vec(),
            rrc_drops: e.rrc_drops.clone(),
            handovers: e.handovers,
            trace: e.obs().tracer.to_jsonl(),
        }
    })
}

#[test]
fn fast_path_matches_full_scan_under_bursty_web_traffic() {
    for mode in [ImMode::CellFi, ImMode::PlainLte] {
        let reference = run_web(mode, 7, false, 1);
        assert!(
            reference.trace.contains("\"ev\":\"cqi_interf\""),
            "web: reference run measured no interference; the comparison is vacuous ({mode:?})"
        );
        for threads in [1usize, 8] {
            assert_eq!(
                reference,
                run_web(mode, 7, true, threads),
                "web: fast path diverged from full scan ({mode:?}, {threads} threads)"
            );
        }
    }
}
