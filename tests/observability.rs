//! Observability contracts: the sampled trace stream, the histogram
//! sketches of its remainder, and the invariant-monitor verdicts are
//! all pure functions of the seed — independent of worker thread count
//! — and the trace query engine's output over a committed trace is
//! pinned byte for byte.

use cellfi::obs::query::{parse_line, run_query, Agg, FieldVal, Query};
use cellfi::obs::trace::{Event, SampleSpec, SketchSet, Tracer, Value, N_KINDS};
use cellfi::sim::experiments::replay::replay_jsonl;
use cellfi::sim::experiments::trace_run::{traced_opts, TraceOptions};
use cellfi::sim::experiments::ExpConfig;
use cellfi::sim::parallel::with_threads;
use cellfi::types::time::Instant;
use proptest::prelude::*;

/// One sampled + monitored fig9a trace run at a forced worker count.
fn obs_run(threads: usize) -> (String, String, String) {
    with_threads(threads, || {
        let out = traced_opts(
            "fig9a",
            ExpConfig {
                seed: 7,
                quick: true,
            },
            &TraceOptions {
                detail: false,
                sample: SampleSpec { keep: 1, out_of: 3 },
                monitors: true,
                flight_cap: 64,
            },
        )
        .expect("fig9a is a known experiment");
        assert!(
            out.violation.is_none(),
            "healthy fig9a run must not violate invariants: {}",
            out.verdict
        );
        (out.events, out.sketches, out.verdict)
    })
}

#[test]
fn sampled_trace_sketches_and_verdict_are_thread_invariant() {
    let t1 = obs_run(1);
    let t2 = obs_run(2);
    let t8 = obs_run(8);
    assert_eq!(t1, t2, "threads 1 vs 2 diverged");
    assert_eq!(t1, t8, "threads 1 vs 8 diverged");
    assert!(!t1.0.is_empty(), "1/3 sampling kept no events at all");
    assert!(
        !t1.1.is_empty(),
        "1/3 sampling dropped nothing into the sketches"
    );
    assert!(t1.2.contains("armed=4"), "verdict line: {}", t1.2);
    assert!(t1.2.contains("violations=0"), "verdict line: {}", t1.2);
}

#[test]
fn stratified_sampling_partitions_the_full_stream() {
    // The kept stream is a strict per-line subset of the full stream,
    // and kept-event + sketched-event counts add back up to the total:
    // sampling stratifies, it never invents or double-counts.
    let full = traced_opts(
        "fig9a",
        ExpConfig {
            seed: 7,
            quick: true,
        },
        &TraceOptions::default(),
    )
    .expect("fig9a is a known experiment");
    let (kept, sketches, _) = obs_run(1);
    let full_lines: std::collections::BTreeSet<&str> = full.events.lines().collect();
    for line in kept.lines() {
        assert!(full_lines.contains(line), "sampled line not in full trace");
    }
    let sketched: u64 = sketches
        .lines()
        .map(|l| {
            l.split("\"count\":")
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.parse::<u64>().ok())
                .expect("sketch lines carry a count")
        })
        .sum();
    assert_eq!(
        kept.lines().count() as u64 + sketched,
        full.events.lines().count() as u64,
        "kept + sketched must account for every event exactly once"
    );
}

/// Build a sketch set from per-UE SINR observations.
fn sketch_of(vals: &[(u32, f64)]) -> SketchSet {
    let mut s = SketchSet::default();
    for &(ue, sinr_db) in vals {
        s.add(&Event::CqiInterference {
            ue,
            subchannel: 0,
            sinr_db,
            clean_db: 0.0,
        });
    }
    s
}

proptest! {
    #[test]
    fn sketch_merge_is_associative_and_commutative(
        a in proptest::collection::vec((0u32..64, -80.0f64..80.0), 0..40),
        b in proptest::collection::vec((0u32..64, -80.0f64..80.0), 0..40),
        c in proptest::collection::vec((0u32..64, -80.0f64..80.0), 0..40),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut right_inner = sb.clone();
        right_inner.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right);
        // c ⊕ b ⊕ a — merge order must not matter, since worker sinks
        // absorb in entity order but could in principle be reordered.
        let mut rev = sc;
        rev.merge(&sb);
        rev.merge(&sa);
        prop_assert_eq!(&left, &rev);
        prop_assert_eq!(left.to_jsonl(), right.to_jsonl());
    }
}

/// The event of kind `code` whose payload is drawn from `raw`: ids and
/// counts take the low 32 bits, times the full 64, reals the raw bits
/// (so NaN, infinities, subnormals and signed zeros all occur).
fn event_of(code: usize, raw: &[u64]) -> Event {
    let n = |i: usize| raw[i] as u32;
    let real = |i: usize| f64::from_bits(raw[i]);
    match code {
        0 => Event::Hop {
            cell: n(0),
            from: n(1),
            to: n(2),
            from_utility: real(3),
            to_utility: real(4),
        },
        1 => Event::Share {
            cell: n(0),
            own_active: n(1),
            heard_active: n(2),
            share: n(3),
        },
        2 => Event::PrachHeard {
            cell: n(0),
            ue: n(1),
            snr_db: real(2),
        },
        3 => Event::CqiInterference {
            ue: n(0),
            subchannel: n(1),
            sinr_db: real(2),
            clean_db: real(3),
        },
        4 => Event::Pack {
            cell: n(0),
            from: n(1),
            to: n(2),
        },
        5 => Event::PawsGrant {
            channel: n(0),
            expires_us: raw[1],
        },
        6 => Event::PawsRenew {
            channel: n(0),
            expires_us: raw[1],
        },
        7 => Event::PawsVacate {
            channel: n(0),
            deadline_us: raw[1],
        },
        8 => Event::PawsVacated {
            channel: n(0),
            margin_us: raw[1],
        },
        9 => Event::FaultInject {
            cell: n(0),
            kind: n(1),
        },
        10 => Event::LeaseRenew {
            cell: n(0),
            channel: n(1),
            expires_us: raw[2],
        },
        11 => Event::Degrade {
            cell: n(0),
            channel: n(1),
            step: n(2),
        },
        12 => Event::Recover {
            cell: n(0),
            channel: n(1),
        },
        13 => Event::Sched {
            cell: n(0),
            mask_bits: n(1),
            owned: n(2),
        },
        14 => Event::HarqRetx {
            ue: n(0),
            cell: n(1),
            process: n(2),
        },
        15 => Event::Cull {
            ue: n(0),
            kept: n(1),
            culled: n(2),
        },
        16 => Event::ShardOutage {
            shard: n(0),
            until_us: raw[1],
        },
        17 => Event::CacheHit {
            shard: n(0),
            age_us: raw[1],
        },
        _ => Event::RenewBatch {
            shard: n(0),
            size: n(1),
        },
    }
}

/// Bytes the reader must survive: JSON punctuation, keys, literals,
/// digits, whitespace and a multi-byte character (slice boundaries).
const FUZZ_PIECES: [&str; 18] = [
    "{",
    "}",
    "\"",
    ":",
    ",",
    "[",
    "]",
    "null",
    "\"t\":",
    "\"ev\":\"hop\"",
    "1",
    "-",
    ".",
    "e",
    "9",
    " ",
    "é",
    "\"cell\"",
];

proptest! {
    #[test]
    fn written_events_read_back_through_the_one_reader(
        code in 0usize..N_KINDS,
        raw in proptest::collection::vec(any::<u64>(), 5),
        tick in any::<u64>(),
    ) {
        let event = event_of(code, &raw);
        let written = written_line(tick, event);
        let line = parse_line(&written).expect("written lines always parse");
        let names: Vec<&str> = line.0.iter().map(|(name, _)| *name).collect();
        let mut want = vec!["t", "ev"];
        want.extend(event.spec().fields);
        prop_assert_eq!(names, want);
        prop_assert_eq!(line.get("t").and_then(|t| t.int()), Some(tick));
        prop_assert_eq!(line.kind(), Some(event.kind()));
        for ((name, value), (_, read)) in event.fields().zip(&line.0[2..]) {
            match (value, *read) {
                (Value::Int(x) | Value::Micros(x), read) => {
                    prop_assert_eq!(read.int(), Some(x));
                }
                (Value::Real(x), FieldVal::Num(v, _)) => {
                    prop_assert!(
                        x.is_finite() && v.to_bits() == x.to_bits(),
                        "{name}: {x} read as {v}"
                    );
                }
                (Value::Real(x), read) => {
                    prop_assert!(
                        !x.is_finite() && read == FieldVal::Null,
                        "{name}: {x} read as {read:?}"
                    );
                }
            }
        }
        // A truncated record never reads as a record.
        for cut in 0..written.len() {
            prop_assert!(parse_line(&written[..cut]).is_none(), "{}", &written[..cut]);
        }
    }

    #[test]
    fn reader_never_panics_on_arbitrary_lines(
        pieces in proptest::collection::vec(0usize..FUZZ_PIECES.len(), 0..48),
        raw in proptest::collection::vec(any::<u64>(), 5),
        cut in any::<u64>(),
    ) {
        let fuzzed: String = pieces.iter().map(|&i| FUZZ_PIECES[i]).collect();
        // A written record (ASCII), cut and spliced at an arbitrary byte.
        let written = written_line(raw[0], event_of(raw[1] as usize % N_KINDS, &raw));
        let at = (cut % (written.len() as u64 + 1)) as usize;
        let spliced = format!("{}{fuzzed}{}", &written[..at], &written[at..]);
        let query = Query {
            entity: Some(1),
            group_by: Some("cell".to_owned()),
            agg: Agg::Mean("to".to_owned()),
            ..Query::default()
        };
        for input in [&fuzzed, &written[..at], &spliced] {
            if let Some(line) = parse_line(input) {
                let _ = line.kind();
                for (_, value) in &line.0 {
                    let _ = value.int();
                }
            }
            let _ = run_query(input, &query);
            let _ = replay_jsonl(input);
        }
    }
}

/// `event` at `tick` as the tracer writes it, without the newline.
fn written_line(tick: u64, event: Event) -> String {
    let mut tracer = Tracer::new(true);
    tracer.emit(Instant::from_micros(tick), event);
    tracer.to_jsonl().trim_end().to_owned()
}

#[test]
fn trace_query_on_committed_fig9a_trace_matches_golden() {
    let trace = include_str!("goldens/TRACE_fig9a.jsonl");
    let by_kind = run_query(
        trace,
        &Query {
            group_by: Some("ev".to_owned()),
            agg: Agg::Count,
            ..Query::default()
        },
    )
    .expect("committed trace parses");
    let q90 = run_query(
        trace,
        &Query {
            kind: Some("cqi_interf".to_owned()),
            group_by: Some("ue".to_owned()),
            agg: Agg::Quantile(0.9, "sinr_db".to_owned()),
            ..Query::default()
        },
    )
    .expect("committed trace parses");
    let got = format!("{by_kind}{q90}");
    let golden = include_str!("goldens/QUERY_fig9a.txt");
    assert!(
        got == golden,
        "trace-query output drifted from tests/goldens/QUERY_fig9a.txt:\n{got}"
    );
}
