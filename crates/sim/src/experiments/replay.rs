//! `exp replay <TRACE.jsonl>`: reconstruct per-cell subchannel
//! occupancy from a trace stream.
//!
//! The replay consumes the tick-keyed event stream a traced run wrote
//! and rebuilds each cell's owned-subchannel set:
//!
//! * `sched` events (the `--trace-detail` stream) carry the full
//!   occupancy decision per epoch, so the reconstruction is **exact** —
//!   the last `sched` per cell is its final mask;
//! * without them, the replay folds `hop` and `pack` moves (remove
//!   `from`, insert `to`) and notes the last `share` target per cell —
//!   best effort, since the stream never states the initial masks.
//!
//! The round-trip contract (tested below): replaying a detail trace of
//! a run reproduces exactly the allowed masks the engine ended with.

use crate::report::table;
use cellfi_obs::query::{parse_line, Line};
use std::collections::{BTreeMap, BTreeSet};

/// Occupancy state reconstructed from a trace.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Owned subchannels per cell after the last event.
    pub occupancy: BTreeMap<u32, BTreeSet<u32>>,
    /// Last `share` target per cell, if any was traced.
    pub shares: BTreeMap<u32, u32>,
    /// Events consumed.
    pub events: usize,
    /// Tick of the last event, microseconds.
    pub last_tick_us: u64,
    /// Whether authoritative `sched` events were present (exact masks)
    /// or the state was folded from hop/pack moves (best effort).
    pub from_sched: bool,
}

fn field_u64(fields: &Line<'_>, key: &str, line: usize) -> Result<u64, String> {
    let value = fields.get(key);
    value
        .and_then(|v| v.int())
        .ok_or_else(|| format!("line {line}: field {key:?} is not a count: {value:?}"))
}

/// Replay a JSONL trace stream. Unknown event kinds are skipped (a
/// trace from a newer engine still replays), malformed lines fail.
pub fn replay_jsonl(text: &str) -> Result<Replay, String> {
    let mut r = Replay::default();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_line(line).ok_or_else(|| format!("line {n}: unparseable: {line}"))?;
        let Some(ev) = fields.kind() else {
            return Err(format!("line {n}: missing \"ev\" kind"));
        };
        r.events += 1;
        r.last_tick_us = field_u64(&fields, "t", n)?;
        match ev {
            "sched" => {
                let cell = field_u64(&fields, "cell", n)? as u32;
                let mask = field_u64(&fields, "mask", n)? as u32;
                let set: BTreeSet<u32> = (0..32).filter(|s| mask & (1 << s) != 0).collect();
                r.occupancy.insert(cell, set);
                r.from_sched = true;
            }
            "hop" | "pack" => {
                let cell = field_u64(&fields, "cell", n)? as u32;
                let from = field_u64(&fields, "from", n)? as u32;
                let to = field_u64(&fields, "to", n)? as u32;
                let set = r.occupancy.entry(cell).or_default();
                set.remove(&from);
                set.insert(to);
            }
            "share" => {
                let cell = field_u64(&fields, "cell", n)? as u32;
                let share = field_u64(&fields, "share", n)? as u32;
                r.shares.insert(cell, share);
            }
            _ => {}
        }
    }
    Ok(r)
}

/// Render the final allocation table of a replayed trace.
pub fn allocation_table(r: &Replay) -> String {
    let rows: Vec<Vec<String>> = r
        .occupancy
        .iter()
        .map(|(cell, set)| {
            let scs: Vec<String> = set.iter().map(u32::to_string).collect();
            vec![
                cell.to_string(),
                if scs.is_empty() {
                    "-".into()
                } else {
                    scs.join(" ")
                },
                set.len().to_string(),
                r.shares
                    .get(cell)
                    .map(u32::to_string)
                    .unwrap_or_else(|| "?".into()),
            ]
        })
        .collect();
    let mut out = table(&["cell", "subchannels", "owned", "share"], &rows);
    out.push_str(&format!(
        "\n{} events to t={} µs; occupancy {}.\n",
        r.events,
        r.last_tick_us,
        if r.from_sched {
            "exact (sched events present)"
        } else {
            "folded from hop/pack moves (no sched events — initial masks unknown)"
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::super::{trace_run, ExpConfig};
    use super::*;

    fn quick() -> ExpConfig {
        ExpConfig {
            quick: true,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn detail_trace_round_trips_fig7b_occupancy() {
        let e = trace_run::traced_engine(
            "fig7b",
            quick(),
            &trace_run::TraceOptions {
                detail: true,
                ..Default::default()
            },
        )
        .expect("fig7b has a traced engine run");
        let r = replay_jsonl(&e.obs().tracer.to_jsonl()).expect("trace replays");
        assert!(r.from_sched, "detail trace must carry sched events");
        for cell in 0..e.scenario().aps.len() {
            let truth: BTreeSet<u32> = e
                .cell_mask(cell)
                .iter()
                .enumerate()
                .filter(|&(_, &owned)| owned)
                .map(|(s, _)| s as u32)
                .collect();
            assert_eq!(
                r.occupancy.get(&(cell as u32)),
                Some(&truth),
                "cell {cell} occupancy diverges from the engine's final mask"
            );
        }
        let rendered = allocation_table(&r);
        assert!(rendered.contains("exact"));
    }

    #[test]
    fn fold_mode_applies_hops_and_packs() {
        let trace = concat!(
            "{\"t\":1,\"ev\":\"hop\",\"cell\":0,\"from\":2,\"to\":5,\"from_utility\":0.1,\"to_utility\":0.9}\n",
            "{\"t\":2,\"ev\":\"pack\",\"cell\":0,\"from\":5,\"to\":1}\n",
            "{\"t\":3,\"ev\":\"share\",\"cell\":0,\"own\":2,\"heard\":4,\"share\":3}\n",
        );
        let r = replay_jsonl(trace).expect("hand-written trace replays");
        assert!(!r.from_sched);
        assert_eq!(r.events, 3);
        assert_eq!(r.last_tick_us, 3);
        assert_eq!(
            r.occupancy.get(&0),
            Some(&BTreeSet::from([1])),
            "2 hopped to 5, 5 packed to 1"
        );
        assert_eq!(r.shares.get(&0), Some(&3));
    }

    #[test]
    fn sched_events_override_folded_state() {
        let trace = concat!(
            "{\"t\":1,\"ev\":\"hop\",\"cell\":1,\"from\":0,\"to\":7,\"from_utility\":0,\"to_utility\":1}\n",
            "{\"t\":2,\"ev\":\"sched\",\"cell\":1,\"mask\":21,\"owned\":3}\n",
        );
        let r = replay_jsonl(trace).expect("hand-written trace replays");
        assert!(r.from_sched);
        assert_eq!(r.occupancy.get(&1), Some(&BTreeSet::from([0, 2, 4])));
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let err = replay_jsonl("{\"t\":1,\"ev\":\"hop\",\"cell\":0}\n").unwrap_err();
        assert!(err.contains("line 1"), "error names the line: {err}");
        assert!(replay_jsonl("not json\n").is_err());
    }
}
