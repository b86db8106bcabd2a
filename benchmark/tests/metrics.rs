//! Every workload, run at smoke size through the library, emits exactly
//! the metrics `BENCHMARK.json` declares, with their units, and passes
//! its output checks.

use cellfi_benchmark::spec::{MetricSpec, Spec};
use cellfi_benchmark::{run, RunOptions, RunResult, Scale, Workload};
use serde_json::Value;

fn smoke(workload: Workload, trace: bool) -> RunResult {
    let opts = RunOptions {
        seed: 1,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    };
    run(workload, &opts)
}

/// `(name, unit)` pairs of a result line's `metrics` object, sorted.
fn emitted(result: &RunResult) -> Vec<(String, String)> {
    let Value::Object(line) = result.to_json() else {
        panic!("a result line is an object");
    };
    let keys: Vec<&String> = line.keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let Value::Object(m) = m else {
                panic!("{name} is an object");
            };
            let (Some(Value::Number(v)), Some(Value::String(unit))) =
                (m.get("value"), m.get("unit"))
            else {
                panic!("{name} has a numeric value and a unit");
            };
            assert!(v.is_finite(), "{name} = {v}");
            (name.clone(), unit.clone())
        })
        .collect()
}

fn declared(metrics: &[MetricSpec]) -> Vec<(String, String)> {
    let mut v: Vec<_> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    v.sort();
    v
}

#[test]
fn workload_names_match_benchmark_json() {
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(Spec::builtin().workloads, names);
}

#[test]
fn untraced_runs_emit_the_end_to_end_metrics() {
    let want = declared(&Spec::builtin().end_to_end);
    for workload in Workload::ALL {
        let result = smoke(workload, false);
        assert!(
            result.correct(),
            "{}: {:?}",
            workload.name(),
            result.failures
        );
        assert_eq!(emitted(&result), want, "{}", workload.name());
        assert!(
            result.metrics.iter().all(|m| m.value > 0.0),
            "{}: end-to-end metrics are never 0: {:?}",
            workload.name(),
            result.metrics
        );
    }
}

#[test]
fn traced_runs_emit_the_per_layer_metrics() {
    let want = declared(&Spec::builtin().per_layer);
    for workload in Workload::ALL {
        let result = smoke(workload, true);
        assert!(
            result.correct(),
            "{}: {:?}",
            workload.name(),
            result.failures
        );
        assert_eq!(emitted(&result), want, "{}", workload.name());
    }
}
