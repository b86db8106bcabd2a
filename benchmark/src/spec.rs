//! `BENCHMARK.json`, parsed: workloads, metric units, directions and
//! regression bounds. The file is compiled in, so `compare` and the
//! tests read exactly the contract the binary was built against.

use serde_json::Value;

/// The repository's `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Host seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Object(map) => map.get(key).ok_or_else(|| format!("missing key `{key}`")),
        _ => Err(format!("expected an object holding `{key}`")),
    }
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::String(s) => Ok(s.clone()),
        _ => Err(format!("`{key}` is not a string")),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

fn metrics(root: &Value, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    array(root, key)?
        .iter()
        .map(|m| {
            let better = string(m, "better")?;
            let bound = if bounded {
                match field(m, "bound")? {
                    Value::Number(b) => Some(*b),
                    _ => return Err("`bound` is not a number".to_owned()),
                }
            } else {
                None
            };
            Ok(MetricSpec {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` must be higher or lower, got {other}")),
                },
                bound,
            })
        })
        .collect()
}

impl Spec {
    /// Parse a `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Ok(Spec {
            run_seconds: match field(&root, "run_seconds")? {
                Value::Number(s) => *s,
                _ => return Err("`run_seconds` is not a number".to_owned()),
            },
            workloads: array(&root, "workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&root, "end_to_end", true)?,
            per_layer: metrics(&root, "per_layer", false)?,
        })
    }

    /// The compiled-in contract.
    pub fn builtin() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json parses")
    }
}
