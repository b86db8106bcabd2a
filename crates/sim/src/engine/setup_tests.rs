//! Engine construction tests: the neighbor tables an engine runs on,
//! the set-up fan-outs at any thread count, and the static-gain rebuild
//! after an EIRP change.

use crate::engine::phy::MIN_UES_PER_STATIC_WORKER;
use crate::engine::{ImMode, LteEngine, LteEngineConfig};
use crate::experiments::fig9metro::{district_config, pocket_config};
use crate::topology::{Scenario, ScenarioConfig};
use cellfi_types::geo::Point;
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::Instant;

fn engine(s: Scenario, seed: u64) -> LteEngine {
    LteEngine::new(
        s,
        LteEngineConfig::paper_default(ImMode::CellFi),
        SeedSeq::new(seed),
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The engine keeps the tables `generate` built, and a scenario edited
/// without `rebuild_index` (UE 0 carried next to the AP farthest from
/// it, UE 1 handed to another AP) runs on tables equal to a fresh
/// build, on a dense drop and on the culled pocket drop. Either way the
/// engine drops the table's record of the placement.
#[test]
fn hand_edited_scenarios_run_on_fresh_tables() {
    for config in [ScenarioConfig::paper_default(6, 3), pocket_config()] {
        let s = Scenario::generate(config, SeedSeq::new(61));
        assert!(s.index_is_fresh());
        let kept = s.clone();
        let payload = kept.nbr.candidates(0).as_ptr();
        let e = engine(kept, 61);
        assert_eq!(
            e.scenario().nbr.candidates(0).as_ptr(),
            payload,
            "an unedited scenario's table is not rebuilt"
        );

        let mut edited = s.clone();
        let here = edited.ues[0].position;
        let far = (0..edited.aps.len())
            .max_by(|&a, &b| {
                let d = |x: usize| edited.aps[x].position.distance(here).value();
                d(a).total_cmp(&d(b))
            })
            .expect("the drop has APs");
        let target = edited.aps[far].position;
        edited.ues[0].position = Point::new(target.x + 10.0, target.y);
        edited.assoc[1] = (edited.assoc[1] + 1) % edited.aps.len();
        assert!(!edited.index_is_fresh());
        let mut fresh = edited.clone();
        fresh.rebuild_index();
        assert_ne!(fresh.nbr, s.nbr, "premise: the edit changes the table");
        if config.cull_floor_dbm.is_some() {
            assert_ne!(
                fresh.nbr.candidates(0),
                s.nbr.candidates(0),
                "premise: the move changes UE 0's culled row"
            );
        }
        let e = engine(edited, 61);
        fresh.nbr.forget_placement();
        assert_eq!(e.scenario().nbr, fresh.nbr);
        let dense = config.cull_floor_dbm.is_none();
        assert_eq!(e.scenario().index_is_fresh(), dense, "no placement record");
        assert_eq!(e.dl_mean_dbm.len(), fresh.nbr.n_links());
        let serving = fresh.nbr.slot(1, fresh.assoc[1]).expect("serving is kept");
        assert_eq!(e.serving_slot[1] as usize, serving);
    }
}

/// Construction fans out the static gains over runs of UEs, and its
/// first CQI scan and fading refresh split as they do every subframe.
/// On the district drop (576 UEs, nine workers' worth) with fading off
/// (one gain slab) and on (two), the scenario and the engine built at
/// 1, 2 and 8 threads must be the same bit for bit.
#[test]
fn construction_is_the_same_at_any_thread_count() {
    let mut fading = district_config();
    fading.fading = true;
    for config in [district_config(), fading] {
        let build = |threads: usize| {
            crate::parallel::with_threads(threads, || {
                let n_ue = config.n_aps * config.clients_per_ap;
                assert!(
                    crate::parallel::workers(n_ue, MIN_UES_PER_STATIC_WORKER) >= threads,
                    "premise: the static rebuild splits {threads} ways"
                );
                engine(Scenario::generate(config, SeedSeq::new(17)), 18)
            })
        };
        let serial = build(1);
        let s = serial.scenario();
        assert!(
            s.nbr.max_neighbors < s.aps.len(),
            "premise: the floor culls"
        );
        assert_eq!(serial.static_mw.as_slice().is_empty(), !config.fading);
        for threads in [2, 8] {
            let e = build(threads);
            assert_eq!(e.scenario().nbr, s.nbr, "threads={threads}");
            assert_eq!(e.serving_slot, serial.serving_slot, "threads={threads}");
            for (got, want) in [
                (&e.dl_mean_dbm, &serial.dl_mean_dbm),
                (&e.ul_mean_dbm, &serial.ul_mean_dbm),
            ] {
                assert_eq!(bits(got), bits(want), "threads={threads}");
            }
            for (got, want) in [
                (&e.lin_mw, &serial.lin_mw),
                (&e.static_mw, &serial.static_mw),
            ] {
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "threads={threads}"
                );
            }
        }
    }
}

/// An EIRP change rebuilds the static gains with one `gain_gen` bump,
/// however many UEs it rewrites. Driven on the pocket drop with fading
/// off (the static gains are `lin_mw`) and on (`static_mw`), through a
/// degrade-degrade-restore ladder like `exp chaos`'s on two cells.
#[test]
fn eirp_change_bumps_the_gain_generation_once() {
    let mut fading = pocket_config();
    fading.fading = true;
    for config in [pocket_config(), fading] {
        let mut e = engine(Scenario::generate(config, SeedSeq::new(29)), 29);
        e.backlog_all(10_000_000);
        e.run_until(Instant::from_millis(20));
        let statics = |e: &LteEngine| {
            if config.fading {
                bits(e.static_mw.as_slice())
            } else {
                bits(e.lin_mw.as_slice())
            }
        };
        for (cell, offset) in [(3, -3.0), (7, -3.0), (3, -6.0), (3, 0.0)] {
            let before = statics(&e);
            let gen = e.gain_gen;
            e.set_power_offset_db(cell, offset);
            assert_eq!(e.gain_gen, gen + 1, "one bump per EIRP change");
            assert_ne!(
                statics(&e),
                before,
                "cell {cell} at {offset} dB must move some gain (fading {})",
                config.fading
            );
            e.run_until(e.now() + cellfi_types::time::Duration::from_millis(5));
        }
    }
}

/// `rebuild_spatial`, which the benchmark's traced pass times as
/// `spatial.rebuild_s`, rebuilds the neighbor tables even when they are
/// fresh: on an unedited engine the rows move to a new buffer, and stay
/// equal to the ones construction kept.
#[test]
fn rebuild_spatial_rebuilds_fresh_tables() {
    let mut e = engine(Scenario::generate(pocket_config(), SeedSeq::new(61)), 61);
    let kept = e.scenario().nbr.clone();
    let payload = e.scenario().nbr.candidates(0).as_ptr();
    e.rebuild_spatial();
    assert_ne!(
        e.scenario().nbr.candidates(0).as_ptr(),
        payload,
        "rebuild_spatial must build a new table"
    );
    assert_eq!(e.scenario().nbr, kept);
}
