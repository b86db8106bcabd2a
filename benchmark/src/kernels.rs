//! Kernel timings: public hot-path functions timed in a side loop of
//! the traced `paper_saturated` run, on inputs drawn from the seed.
//!
//! Each kernel runs in batches sized to about a millisecond; the
//! reported value is the median per-call time over the batches.

use crate::workloads::Layers;
use cellfi_core::theory::HoppingProcess;
use cellfi_core::{ConflictGraph, CqiInterferenceDetector};
use cellfi_lte::amc::CqiTable;
use cellfi_lte::prach::{awgn_channel, preamble, zc_root, PrachDetector, PREAMBLE_DURATION_US};
use cellfi_lte::scheduler::{Scheduler, SchedulerKind, UeDemand};
use cellfi_propagation::antenna::Antenna;
use cellfi_propagation::fading::BlockFading;
use cellfi_propagation::link::{LinkEnd, RadioEnvironment, Transmission};
use cellfi_propagation::noise::NoiseModel;
use cellfi_propagation::pathloss::PathLossModel;
use cellfi_propagation::shadowing::Shadowing;
use cellfi_types::geo::Point;
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::Instant;
use cellfi_types::units::{Db, Dbm, Hertz};
use cellfi_types::{SubchannelId, UeId};
use rand::Rng;
use std::hint::black_box;

/// Batches per kernel.
const BATCHES: usize = 21;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches of
/// `calls` calls each (`f` receives the running call index).
fn time_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let t = std::time::Instant::now();
        for _ in 0..calls {
            f(i);
            i += 1;
        }
        per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    crate::stats::median(&per_call)
}

/// Time every kernel. Returns the kernel rows and the checks made on
/// the kernels' results.
pub(crate) fn run(seed: u64) -> (Layers, Vec<(&'static str, bool)>) {
    let seeds = SeedSeq::new(seed).child("cellfi-bench").child("kernels");
    let mut rng = seeds.rng("inputs");
    let mut layers = Layers::new();
    let mut checks = Vec::new();

    // PF scheduler: 6 backlogged UEs over 13 subchannels.
    let demands: Vec<UeDemand> = (0..6)
        .map(|u| UeDemand {
            ue: UeId::new(u),
            backlog_bits: 1_000_000,
            rate_per_subchannel: (0..13).map(|_| rng.gen_range(200.0..2_000.0)).collect(),
        })
        .collect();
    let allowed = vec![true; 13];
    let mut scheduler = Scheduler::new(SchedulerKind::ProportionalFair);
    let first = scheduler.allocate(&allowed, &demands);
    checks.push((
        "pf scheduler fills every subchannel",
        first.assignment.iter().all(Option::is_some),
    ));
    layers.insert(
        "lte.scheduler.pf_allocate_ns",
        time_ns(500, |_| {
            black_box(scheduler.allocate(black_box(&allowed), black_box(&demands)));
        }),
    );

    // CQI mapping over SINRs spanning the table.
    let sinrs: Vec<f64> = (0..1024).map(|_| rng.gen_range(-10.0..30.0)).collect();
    layers.insert(
        "lte.amc.cqi_for_sinr_ns",
        time_ns(20_000, |i| {
            black_box(CqiTable.cqi_for_sinr(Db(black_box(sinrs[i % sinrs.len()]))));
        }),
    );

    // Link budget: one serving link and 8 co-channel interferers.
    let env = RadioEnvironment {
        pathloss: PathLossModel::tvws_urban(),
        shadowing: Shadowing::new(seeds.child("shadowing"), 4.0),
        fading: BlockFading::pedestrian(seeds.child("fading")),
        noise: NoiseModel::typical(),
        frequency: Hertz(700e6),
    };
    let serving = Transmission {
        from: LinkEnd::new(0, Point::ORIGIN, Antenna::paper_sector(0.3)),
        power: Dbm(30.0),
    };
    let ue = LinkEnd::new(1_000, Point::new(700.0, 150.0), Antenna::client());
    let interferers: Vec<Transmission> = (0..8)
        .map(|i| Transmission {
            from: LinkEnd::new(
                10 + i,
                Point::new(
                    rng.gen_range(-2_000.0..2_000.0),
                    rng.gen_range(-2_000.0..2_000.0),
                ),
                Antenna::Isotropic { gain: Db(6.0) },
            ),
            power: Dbm(30.0),
        })
        .collect();
    layers.insert(
        "propagation.subchannel_sinr_ns",
        time_ns(2_000, |i| {
            black_box(env.subchannel_sinr(
                &serving,
                &ue,
                black_box(&interferers),
                SubchannelId::new((i % 13) as u32),
                Instant::from_millis(i as u64),
                Hertz::from_khz(360.0),
            ));
        }),
    );

    // One round of the abstract hopping process on a ring of 64.
    let ring = |n: u32| {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        ConflictGraph::from_edges(n as usize, &edges)
    };
    let hop_seed = seeds.seed("hopping");
    let mut fresh = HoppingProcess::new(ring(64), vec![3; 64], 13, 0.2, hop_seed);
    checks.push(("hopping converges", fresh.run(100_000).is_some()));
    let mut process = HoppingProcess::new(ring(64), vec![3; 64], 13, 0.2, hop_seed);
    layers.insert(
        "core.hopping.round_ns",
        time_ns(200, |_| {
            process.step();
            black_box(process.rounds());
        }),
    );

    // The CQI interference detector, fed a noisy CQI stream.
    let cqis: Vec<u8> = (0..1024).map(|_| rng.gen_range(4..13)).collect();
    let mut detector = CqiInterferenceDetector::default();
    layers.insert(
        "core.sensing.cqi_push_ns",
        time_ns(20_000, |i| {
            black_box(detector.push(black_box(cqis[i % cqis.len()])));
        }),
    );

    // PRACH: one full detection of a preamble at −10 dB SNR.
    let detector = PrachDetector::new(129);
    let mut prach_rng = seeds.rng("prach");
    let rx = awgn_channel(
        &preamble(&zc_root(129), 100),
        250,
        Db(-10.0),
        &mut prach_rng,
    );
    checks.push(("prach detects at -10 dB", detector.detect(&rx).detected));
    let detect_us = time_ns(20, |_| {
        black_box(detector.detect(black_box(&rx)));
    }) / 1e3;
    layers.insert("lte.prach.detect_us", detect_us);
    layers.insert("lte.prach.line_rate_x", PREAMBLE_DURATION_US / detect_us);

    (layers, checks)
}
