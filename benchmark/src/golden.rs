//! Pinned simulated outputs: `goldens/<workload>_seed<N>.json`, one
//! object of exactly formatted values per pinned seed. Seed 1 is the
//! development seed; seed 2 is held out for checking later claims.

use crate::workloads::Outputs;
use crate::Workload;
use serde_json::Value;
use std::path::PathBuf;

/// Seeds whose outputs are pinned.
pub(crate) const GOLDEN_SEEDS: [u64; 2] = [1, 2];

fn path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("{}_seed{seed}.json", workload.name()))
}

/// The pinned outputs for `(workload, seed)`: `Ok(None)` for a seed
/// that is not pinned, an error when a pinned seed's file is missing or
/// malformed.
pub(crate) fn load(workload: Workload, seed: u64) -> Result<Option<Outputs>, String> {
    if !GOLDEN_SEEDS.contains(&seed) {
        return Ok(None);
    }
    let path = path(workload, seed);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Value::Object(map) = serde_json::from_str::<Value>(&text).map_err(|e| e.to_string())?
    else {
        return Err(format!("{}: not a JSON object", path.display()));
    };
    map.into_iter()
        .map(|(k, v)| match v {
            Value::String(s) => Ok((k, s)),
            _ => Err(format!("{}: `{k}` is not a string", path.display())),
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// Write `outputs` as the golden of `(workload, seed)`.
pub(crate) fn save(workload: Workload, seed: u64, outputs: &Outputs) -> Result<PathBuf, String> {
    let path = path(workload, seed);
    let object = outputs
        .iter()
        .map(|(k, v)| (k.clone(), Value::String(v.clone())))
        .collect();
    let text = serde_json::to_string_pretty(&Value::Object(object)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
