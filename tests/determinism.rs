//! Reproducibility contract: every experiment is a pure function of its
//! seed. Scientific results that cannot be regenerated bit-for-bit are
//! not results; these tests pin the property end-to-end through the
//! facade, for the fast experiment drivers.

use cellfi::sim::experiments::{self, ExpConfig};

fn run_twice(name: &str) -> (String, String) {
    let cfg = ExpConfig {
        seed: 99,
        quick: true,
    };
    let a = experiments::run(name, cfg).expect("known experiment");
    let b = experiments::run(name, cfg).expect("known experiment");
    (format!("{:?}", a.values), format!("{:?}", b.values))
}

#[test]
fn fast_experiments_are_bit_reproducible() {
    for name in [
        "table1", "fig6", "fig7b", "fig7c", "fig8", "overhead", "theorem1",
    ] {
        let (a, b) = run_twice(name);
        assert_eq!(a, b, "{name} not reproducible");
    }
}

#[test]
fn different_seeds_change_stochastic_experiments() {
    let a = experiments::run(
        "fig8",
        ExpConfig {
            seed: 1,
            quick: true,
        },
    )
    .expect("fig8 exists");
    let b = experiments::run(
        "fig8",
        ExpConfig {
            seed: 2,
            quick: true,
        },
    )
    .expect("fig8 exists");
    assert_ne!(
        format!("{:?}", a.values),
        format!("{:?}", b.values),
        "fig8 ignored its seed"
    );
}

/// The parallel engine contract: thread count changes who computes, not
/// what. A 2-simulated-second CellFi run must produce bit-identical
/// delivered bits, manager hop counts, and cell subchannel masks whether
/// the row/column fan-out uses 1 worker or several.
#[test]
fn engine_run_is_identical_for_any_thread_count() {
    use cellfi::sim::{parallel, ImMode, LteEngine, LteEngineConfig, Scenario, ScenarioConfig};
    use cellfi::types::rng::SeedSeq;
    use cellfi::types::time::Instant;

    let run = |threads: usize| {
        parallel::with_threads(threads, || {
            let seeds = SeedSeq::new(4242).child("thread-determinism");
            let scenario = Scenario::generate(ScenarioConfig::paper_default(4, 3), seeds);
            let n_cells = scenario.aps.len();
            let mut e = LteEngine::new(
                scenario,
                LteEngineConfig::paper_default(ImMode::CellFi),
                seeds.child("engine"),
            );
            e.backlog_all(u64::MAX / 4);
            e.run_until(Instant::from_secs(2));
            let masks: Vec<Vec<bool>> = (0..n_cells).map(|c| e.cell_mask(c)).collect();
            (e.delivered_bits().to_vec(), e.manager_hops(), masks)
        })
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        let parallel_run = run(threads);
        assert_eq!(
            parallel_run.0, serial.0,
            "delivered bits, threads={threads}"
        );
        assert_eq!(parallel_run.1, serial.1, "manager hops, threads={threads}");
        assert_eq!(parallel_run.2, serial.2, "cell masks, threads={threads}");
    }
}

/// The tracing contract extends the parallel-engine contract: per-entity
/// event sinks merge in entity order, so the serialized event stream —
/// not just the aggregate counters — is byte-identical whether the
/// fan-out uses 1, 2 or 8 workers. Two inputs: the paper topology, where
/// every link is kept, and the fig9metro pocket drop (36 APs × 2 clients
/// on 2.4 km under the metro cull floor), where the neighbor rows are a
/// genuine near-field subset of the APs.
#[test]
fn trace_bytes_are_identical_for_any_thread_count() {
    use cellfi::obs::Tracer;
    use cellfi::sim::experiments::fig9metro;
    use cellfi::sim::{parallel, ImMode, LteEngine, LteEngineConfig, Scenario, ScenarioConfig};
    use cellfi::types::rng::SeedSeq;
    use cellfi::types::time::Instant;

    let paper = ScenarioConfig::paper_default(4, 3);
    for (label, config) in [("paper", paper), ("culled", fig9metro::pocket_config())] {
        let run = |threads: usize| {
            parallel::with_threads(threads, || {
                let seeds = SeedSeq::new(4242).child("trace-determinism");
                let scenario = Scenario::generate(config, seeds);
                if config.cull_floor_dbm.is_some() {
                    assert!(
                        scenario.nbr.max_neighbors < scenario.aps.len(),
                        "the floor must cull"
                    );
                }
                let mut e = LteEngine::new(
                    scenario,
                    LteEngineConfig::paper_default(ImMode::CellFi),
                    seeds.child("engine"),
                );
                e.obs_mut().tracer = Tracer::new(true);
                e.emit_cull_events();
                e.backlog_all(u64::MAX / 4);
                e.run_until(Instant::from_secs(2));
                (
                    e.obs().tracer.to_jsonl(),
                    e.obs().metrics.snapshot_jsonl(e.now()),
                )
            })
        };
        let (serial_trace, serial_metrics) = run(1);
        assert!(
            !serial_trace.is_empty(),
            "{label}: traced engine run emitted no events"
        );
        for threads in [2usize, 8] {
            let (trace, metrics) = run(threads);
            assert_eq!(
                trace, serial_trace,
                "{label}: trace bytes, threads={threads}"
            );
            assert_eq!(
                metrics, serial_metrics,
                "{label}: metrics bytes, threads={threads}"
            );
        }
    }
}

/// The spatial-index contract: culling is an *optimisation*, never a
/// semantic change. A floor set so low that no link can fall below it
/// keeps every candidate, and the grid-built neighbor tables must then
/// drive the engine to the same serialized trace and metrics bytes as
/// the dense (floor off) run — at 1 worker and at 8.
#[test]
fn no_op_cull_floor_reproduces_dense_trace_bytes() {
    use cellfi::obs::Tracer;
    use cellfi::sim::{parallel, ImMode, LteEngine, LteEngineConfig, Scenario, ScenarioConfig};
    use cellfi::types::rng::SeedSeq;
    use cellfi::types::time::Instant;

    let run = |floor: Option<f64>, threads: usize| {
        parallel::with_threads(threads, || {
            let seeds = SeedSeq::new(4242).child("cull-determinism");
            let mut cfg = ScenarioConfig::paper_default(4, 3);
            cfg.cull_floor_dbm = floor;
            let scenario = Scenario::generate(cfg, seeds);
            let mut e = LteEngine::new(
                scenario,
                LteEngineConfig::paper_default(ImMode::CellFi),
                seeds.child("engine"),
            );
            e.obs_mut().tracer = Tracer::new(true);
            e.backlog_all(u64::MAX / 4);
            e.run_until(Instant::from_secs(1));
            (
                e.obs().tracer.to_jsonl(),
                e.obs().metrics.snapshot_jsonl(e.now()),
            )
        })
    };
    let dense = run(None, 1);
    assert!(!dense.0.is_empty(), "dense run emitted no events");
    for threads in [1usize, 8] {
        let culled = run(Some(-1_000.0), threads);
        assert_eq!(culled.0, dense.0, "trace bytes, threads={threads}");
        assert_eq!(culled.1, dense.1, "metrics bytes, threads={threads}");
    }
}

/// The chaos experiment extends the tracing contract to the fault
/// injector and lease lifecycles: the resilience event stream
/// (`fault_inject`, `lease_renew`, `degrade`, `recover`) and metrics
/// snapshot are byte-identical at 1 and 8 workers.
#[test]
fn chaos_trace_bytes_identical_for_any_thread_count() {
    use cellfi::sim::experiments::trace_run;
    use cellfi::sim::parallel;

    let cfg = ExpConfig {
        seed: 7,
        quick: true,
    };
    let run = |threads: usize| {
        parallel::with_threads(threads, || {
            let out = trace_run::traced("chaos", cfg).expect("chaos is a known experiment");
            (out.events, out.metrics)
        })
    };
    let serial = run(1);
    assert!(
        serial.0.contains("\"ev\":\"lease_renew\""),
        "chaos trace carries lease lifecycle events"
    );
    let threaded = run(8);
    assert_eq!(threaded.0, serial.0, "chaos trace bytes, threads=8");
    assert_eq!(threaded.1, serial.1, "chaos metrics bytes, threads=8");
}

#[test]
fn experiment_registry_is_complete_and_unique() {
    let mut names: Vec<&str> = experiments::ALL.to_vec();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate experiment names");
    // Every listed experiment dispatches.
    for n in experiments::ALL {
        // Don't run the heavy ones; just check the name resolves by
        // probing the dispatcher with an unknown-name contrast.
        assert!(experiments::ALL.contains(n), "registry self-consistency");
    }
    assert!(experiments::run("no-such-figure", ExpConfig::default()).is_none());
}
