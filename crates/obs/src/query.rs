//! Trace query engine: filter / group-by / aggregate over JSONL traces.
//!
//! Answers questions like "per-cell hop rates" or "the vacate-margin
//! distribution" directly from a `TRACE_<exp>.jsonl` file (or a
//! `FLIGHT_<exp>.jsonl` dump — same schema) without re-running the
//! experiment. The grammar, mirrored by `exp trace-query`:
//!
//! * **filter** — `kind` (the `"ev"` field), `entity` (the kind's
//!   entity id, the first field of its [`KindSpec`]), and an inclusive
//!   `[tick_lo, tick_hi]` microsecond range on `"t"`;
//! * **group-by** — any field name (`cell`, `ue`, `channel`, `ev`, …);
//!   rows missing the field group under `-`;
//! * **aggregate** — `count`, `sum:<field>`, `mean:<field>`, or
//!   `q<frac>:<field>` (nearest-rank quantile, e.g. `q0.9:margin_us`).
//!
//! Output is a deterministic tab-separated table: a header, one row per
//! group (numeric group keys sort numerically), and a `total` row.
//!
//! [`parse_line`] is the one reader of the JSONL this crate writes
//! (traces, metrics snapshots, sketches): `trace-query`, `replay` and
//! `trace-diff` all go through it. It handles exactly the flat
//! one-object-per-line JSON the writers emit; it is not a general JSON
//! reader.

use crate::trace::KindSpec;

/// One field value of a trace line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldVal<'a> {
    /// A number: its value, and its text as written (integers read back
    /// exactly through [`FieldVal::int`]).
    Num(f64, &'a str),
    /// A plain string, or the unsplit inner text of an array.
    Str(&'a str),
    /// `null`, the writers' spelling of a non-finite value.
    Null,
}

impl FieldVal<'_> {
    /// The value as an unsigned integer, when it is written as one.
    pub fn int(&self) -> Option<u64> {
        match self {
            FieldVal::Num(_, text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// One parsed line: its `(key, value)` pairs in field order.
#[derive(Debug, Clone, PartialEq)]
pub struct Line<'a>(pub Vec<(&'a str, FieldVal<'a>)>);

impl<'a> Line<'a> {
    /// The value of field `name`, if the line has it.
    pub fn get(&self, name: &str) -> Option<FieldVal<'a>> {
        self.0.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }

    /// The event kind (the `"ev"` string); `None` for lines that are not
    /// events (metrics, sketches).
    pub fn kind(&self) -> Option<&'a str> {
        match self.get("ev") {
            Some(FieldVal::Str(ev)) => Some(ev),
            _ => None,
        }
    }
}

/// Parse one flat JSONL line into its fields. Returns `None` on anything
/// that is not a flat object of finite numbers / plain strings / nulls /
/// flat arrays. Rust's `NaN` and `inf` spellings are not JSON, and the
/// writers spell a non-finite value `null`.
pub fn parse_line(line: &str) -> Option<Line<'_>> {
    let s = line.trim();
    let s = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let kend = rest.find('"')?;
        let key = &rest[..kend];
        rest = rest[kend + 1..].strip_prefix(':')?;
        let (val, tail) = if let Some(r) = rest.strip_prefix('"') {
            let vend = r.find('"')?;
            (FieldVal::Str(&r[..vend]), &r[vend + 1..])
        } else if let Some(r) = rest.strip_prefix("null") {
            (FieldVal::Null, r)
        } else if let Some(r) = rest.strip_prefix('[') {
            // Array values (sketch bucket lines) pass through unsplit.
            let vend = r.find(']')?;
            (FieldVal::Str(&r[..vend]), &r[vend + 1..])
        } else {
            let vend = rest
                .find(',')
                .unwrap_or(rest.len())
                .min(rest.find('}').unwrap_or(rest.len()));
            let text = &rest[..vend];
            let v = text.parse::<f64>().ok().filter(|v| v.is_finite())?;
            (FieldVal::Num(v, text), &rest[vend..])
        };
        out.push((key, val));
        match tail.strip_prefix(',') {
            Some(t) => rest = t,
            None => {
                if !tail.is_empty() {
                    return None;
                }
                rest = tail;
            }
        }
    }
    Some(Line(out))
}

/// The aggregate operator.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Agg {
    /// Row count per group.
    #[default]
    Count,
    /// Sum of a field per group.
    Sum(String),
    /// Mean of a field per group.
    Mean(String),
    /// Nearest-rank quantile (0 < q ≤ 1) of a field per group.
    Quantile(f64, String),
}

impl Agg {
    /// Parse `count`, `sum:<field>`, `mean:<field>`, or `q<frac>:<field>`.
    pub fn parse(s: &str) -> Result<Agg, String> {
        if s == "count" {
            return Ok(Agg::Count);
        }
        let (op, field) = s.split_once(':').ok_or_else(|| {
            format!("bad aggregate {s:?}: expected count, sum:F, mean:F, or qQ:F")
        })?;
        if field.is_empty() {
            return Err(format!("bad aggregate {s:?}: empty field"));
        }
        match op {
            "sum" => Ok(Agg::Sum(field.to_owned())),
            "mean" => Ok(Agg::Mean(field.to_owned())),
            _ => {
                let q: f64 = op
                    .strip_prefix('q')
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| format!("bad aggregate op {op:?}"))?;
                if !(q > 0.0 && q <= 1.0) {
                    return Err(format!("quantile {q} outside (0, 1]"));
                }
                Ok(Agg::Quantile(q, field.to_owned()))
            }
        }
    }

    /// The column header this aggregate prints.
    pub fn header(&self) -> String {
        match self {
            Agg::Count => "count".to_owned(),
            Agg::Sum(f) => format!("sum({f})"),
            Agg::Mean(f) => format!("mean({f})"),
            Agg::Quantile(q, f) => format!("q{q}({f})"),
        }
    }

    fn field(&self) -> Option<&str> {
        match self {
            Agg::Count => None,
            Agg::Sum(f) | Agg::Mean(f) | Agg::Quantile(_, f) => Some(f),
        }
    }
}

/// A full query: filters, optional group-by, one aggregate.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Keep only events whose `"ev"` equals this kind.
    pub kind: Option<String>,
    /// Keep only events whose primary entity field equals this id.
    pub entity: Option<u32>,
    /// Inclusive lower tick bound, microseconds.
    pub tick_lo: Option<u64>,
    /// Inclusive upper tick bound, microseconds.
    pub tick_hi: Option<u64>,
    /// Group rows by this field; `None` aggregates everything into one
    /// `all` group.
    pub group_by: Option<String>,
    /// The aggregate to compute per group.
    pub agg: Agg,
}

/// A group key that sorts numerically when numeric, lexically otherwise
/// (numbers before strings, so mixed tables are still deterministic).
/// Numeric ties fall back to the text, so distinct keys never merge.
#[derive(Debug, Clone, PartialEq)]
struct GroupKey(String);

impl Eq for GroupKey {}

impl Ord for GroupKey {
    fn cmp(&self, other: &GroupKey) -> std::cmp::Ordering {
        match (self.0.parse::<f64>(), other.0.parse::<f64>()) {
            (Ok(a), Ok(b)) => a.total_cmp(&b).then_with(|| self.0.cmp(&other.0)),
            (Ok(_), Err(_)) => std::cmp::Ordering::Less,
            (Err(_), Ok(_)) => std::cmp::Ordering::Greater,
            (Err(_), Err(_)) => self.0.cmp(&other.0),
        }
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &GroupKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Format a number the way group keys and aggregates print: integers
/// without a trailing `.0`, everything else shortest-roundtrip.
fn format_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[derive(Default)]
struct GroupAcc {
    rows: u64,
    values: Vec<f64>,
}

/// Run `query` over a JSONL trace, returning the result table.
///
/// Errors (not panics) on unparseable lines and on a `"t"` that is not
/// an unsigned integer, so a truncated or corrupt trace file reports its
/// line number instead of producing a silently wrong table.
pub fn run_query(input: &str, query: &Query) -> Result<String, String> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<GroupKey, GroupAcc> = BTreeMap::new();
    let mut matched = 0u64;
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields =
            parse_line(line).ok_or_else(|| format!("line {}: unparseable: {line}", lineno + 1))?;
        let Some(t) = fields.get("t") else {
            continue; // not an event line (e.g. a sketch record)
        };
        let tick = t
            .int()
            .ok_or_else(|| format!("line {}: \"t\" is not a tick: {line}", lineno + 1))?;
        if query.tick_lo.is_some_and(|lo| tick < lo) || query.tick_hi.is_some_and(|hi| tick > hi) {
            continue;
        }
        let Some(ev) = fields.kind() else {
            continue;
        };
        if query.kind.as_deref().is_some_and(|k| k != ev) {
            continue;
        }
        if let Some(want) = query.entity {
            let id = KindSpec::named(ev)
                .and_then(|k| fields.get(k.fields[0]))
                .and_then(|v| v.int());
            if id != Some(u64::from(want)) {
                continue;
            }
        }
        matched += 1;
        let key = match &query.group_by {
            None => GroupKey("all".to_owned()),
            Some(f) => GroupKey(match fields.get(f) {
                Some(FieldVal::Num(v, _)) => format_num(v),
                Some(FieldVal::Str(s)) => s.to_owned(),
                Some(FieldVal::Null) | None => "-".to_owned(),
            }),
        };
        let acc = groups.entry(key).or_default();
        acc.rows += 1;
        if let Some(f) = query.agg.field() {
            if let Some(FieldVal::Num(v, _)) = fields.get(f) {
                if v.is_finite() {
                    acc.values.push(v);
                }
            }
        }
    }

    let group_col = query.group_by.as_deref().unwrap_or("group");
    let mut out = format!("{group_col}\tn\t{}\n", query.agg.header());
    let mut total_rows = 0u64;
    let mut total_values: Vec<f64> = Vec::new();
    for (key, acc) in &groups {
        out.push_str(&format!(
            "{}\t{}\t{}\n",
            key.0,
            acc.rows,
            aggregate(&query.agg, acc)
        ));
        total_rows += acc.rows;
        total_values.extend_from_slice(&acc.values);
    }
    let total = GroupAcc {
        rows: total_rows,
        values: total_values,
    };
    out.push_str(&format!(
        "total\t{}\t{}\n",
        total.rows,
        aggregate(&query.agg, &total)
    ));
    debug_assert_eq!(matched, total.rows);
    Ok(out)
}

fn aggregate(agg: &Agg, acc: &GroupAcc) -> String {
    match agg {
        Agg::Count => format!("{}", acc.rows),
        Agg::Sum(_) => format_num(acc.values.iter().sum()),
        Agg::Mean(_) => {
            if acc.values.is_empty() {
                "-".to_owned()
            } else {
                format_num(acc.values.iter().sum::<f64>() / acc.values.len() as f64)
            }
        }
        Agg::Quantile(q, _) => {
            if acc.values.is_empty() {
                "-".to_owned()
            } else {
                let mut v = acc.values.clone();
                v.sort_by(f64::total_cmp);
                let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
                format_num(v[rank - 1])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "\
{\"t\":1000,\"ev\":\"hop\",\"cell\":0,\"from\":1,\"to\":2,\"from_utility\":0.5,\"to_utility\":1.5}
{\"t\":2000,\"ev\":\"hop\",\"cell\":1,\"from\":2,\"to\":3,\"from_utility\":1,\"to_utility\":2}
{\"t\":3000,\"ev\":\"hop\",\"cell\":0,\"from\":2,\"to\":4,\"from_utility\":2,\"to_utility\":4}
{\"t\":3500,\"ev\":\"prach\",\"cell\":0,\"ue\":7,\"snr_db\":-4.5}
{\"t\":4000,\"ev\":\"paws_vacated\",\"channel\":21,\"margin_us\":58000000}
";

    #[test]
    fn count_group_by_kind() {
        let q = Query {
            group_by: Some("ev".to_owned()),
            ..Query::default()
        };
        let out = run_query(TRACE, &q).expect("query runs");
        assert_eq!(
            out,
            "ev\tn\tcount\nhop\t3\t3\npaws_vacated\t1\t1\nprach\t1\t1\ntotal\t5\t5\n"
        );
    }

    #[test]
    fn filter_kind_entity_and_tick_range() {
        let q = Query {
            kind: Some("hop".to_owned()),
            entity: Some(0),
            tick_lo: Some(1500),
            tick_hi: Some(3000),
            ..Query::default()
        };
        let out = run_query(TRACE, &q).expect("query runs");
        assert_eq!(out, "group\tn\tcount\nall\t1\t1\ntotal\t1\t1\n");
    }

    #[test]
    fn mean_and_sum_and_quantile_aggregate_fields() {
        let mean = Query {
            kind: Some("hop".to_owned()),
            group_by: Some("cell".to_owned()),
            agg: Agg::parse("mean:to_utility").expect("valid agg"),
            ..Query::default()
        };
        let out = run_query(TRACE, &mean).expect("query runs");
        assert_eq!(
            out,
            "cell\tn\tmean(to_utility)\n0\t2\t2.75\n1\t1\t2\ntotal\t3\t2.5\n"
        );
        let sum = Query {
            agg: Agg::parse("sum:to_utility").expect("valid agg"),
            kind: Some("hop".to_owned()),
            ..Query::default()
        };
        assert!(run_query(TRACE, &sum)
            .expect("query runs")
            .ends_with("total\t3\t7.5\n"));
        let q90 = Query {
            agg: Agg::parse("q0.9:to_utility").expect("valid agg"),
            kind: Some("hop".to_owned()),
            ..Query::default()
        };
        assert!(run_query(TRACE, &q90)
            .expect("query runs")
            .ends_with("total\t3\t4\n"));
    }

    #[test]
    fn numeric_group_keys_sort_numerically() {
        let mut trace = String::new();
        for cell in [10, 2, 1] {
            trace.push_str(&format!(
                "{{\"t\":1,\"ev\":\"pack\",\"cell\":{cell},\"from\":1,\"to\":0}}\n"
            ));
        }
        let q = Query {
            group_by: Some("cell".to_owned()),
            ..Query::default()
        };
        let out = run_query(&trace, &q).expect("query runs");
        let keys: Vec<&str> = out
            .lines()
            .skip(1)
            .map(|l| l.split('\t').next().expect("key column"))
            .collect();
        assert_eq!(keys, ["1", "2", "10", "total"]);
    }

    #[test]
    fn missing_group_field_buckets_under_dash() {
        let q = Query {
            group_by: Some("ue".to_owned()),
            ..Query::default()
        };
        let out = run_query(TRACE, &q).expect("query runs");
        assert!(out.contains("-\t4\t4\n"), "{out}");
        assert!(out.contains("7\t1\t1\n"), "{out}");
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let err = run_query("{\"t\":1,\"ev\":\"hop\"}\nnot json\n", &Query::default())
            .expect_err("malformed input");
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn entity_filter_takes_each_kinds_entity_field_from_the_schema() {
        for (kind, line) in [
            (
                "cull",
                "{\"t\":1,\"ev\":\"cull\",\"ue\":3,\"kept\":4,\"culled\":12}",
            ),
            (
                "shard_outage",
                "{\"t\":2,\"ev\":\"shard_outage\",\"shard\":3,\"until_us\":4}",
            ),
            (
                "cache_hit",
                "{\"t\":3,\"ev\":\"cache_hit\",\"shard\":3,\"age_us\":4}",
            ),
            (
                "renew_batch",
                "{\"t\":4,\"ev\":\"renew_batch\",\"shard\":3,\"size\":4}",
            ),
        ] {
            let count = |entity| {
                let q = Query {
                    kind: Some(kind.to_owned()),
                    entity: Some(entity),
                    ..Query::default()
                };
                run_query(line, &q).expect("query runs")
            };
            assert_eq!(
                count(3),
                "group\tn\tcount\nall\t1\t1\ntotal\t1\t1\n",
                "{line}"
            );
            assert_eq!(count(4), "group\tn\tcount\ntotal\t0\t0\n", "{line}");
        }
    }

    #[test]
    fn numbers_keep_their_text_so_integers_read_back_exactly() {
        let line = parse_line("{\"t\":18446744073709551615,\"x\":-2.5,\"s\":\"a\",\"n\":null}")
            .expect("flat line parses");
        let t = line.get("t").expect("t present");
        assert_eq!(t.int(), Some(u64::MAX));
        assert!(matches!(t, FieldVal::Num(v, "18446744073709551615") if v == u64::MAX as f64));
        assert_eq!(line.get("x"), Some(FieldVal::Num(-2.5, "-2.5")));
        assert_eq!(line.get("x").and_then(|v| v.int()), None);
        assert_eq!(line.get("s"), Some(FieldVal::Str("a")));
        assert_eq!(line.get("n"), Some(FieldVal::Null));
        assert_eq!(line.get("missing"), None);
        assert_eq!(line.kind(), None, "no \"ev\" field: not an event line");
    }

    #[test]
    fn entity_filter_matches_only_integer_ids() {
        let q = Query {
            kind: Some("hop".to_owned()),
            entity: Some(0),
            ..Query::default()
        };
        let trace: String = ["0", "-1", "0.7"]
            .iter()
            .map(|cell| format!("{{\"t\":1,\"ev\":\"hop\",\"cell\":{cell},\"from\":1,\"to\":2}}\n"))
            .collect();
        let out = run_query(&trace, &q).expect("query runs");
        assert_eq!(out, "group\tn\tcount\nall\t1\t1\ntotal\t1\t1\n");
    }

    #[test]
    fn non_finite_numbers_are_unparseable() {
        for bad in ["NaN", "inf", "-inf", "infinity", "1e999"] {
            let line = format!("{{\"t\":1,\"ev\":\"hop\",\"cell\":{bad},\"from\":1,\"to\":2}}");
            assert_eq!(parse_line(&line), None, "{line}");
            let trace = format!("{}\n{line}\n", TRACE.lines().next().expect("a line"));
            let q = Query {
                group_by: Some("cell".to_owned()),
                ..Query::default()
            };
            let err = run_query(&trace, &q).expect_err("non-finite input");
            assert!(err.starts_with("line 2: unparseable"), "{err}");
        }
    }

    #[test]
    fn group_keys_that_tie_numerically_stay_apart() {
        // The string keys "NaN" and "nan" parse as floats. Read as
        // `Equal`, their unordered compare with cell 0 would merge the
        // groups; so would their equal values without the text tie-break.
        let trace = "\
{\"t\":1,\"ev\":\"hop\",\"cell\":0,\"from\":1,\"to\":2}
{\"t\":2,\"ev\":\"hop\",\"cell\":\"NaN\",\"from\":1,\"to\":2}
{\"t\":3,\"ev\":\"hop\",\"cell\":\"nan\",\"from\":1,\"to\":2}
";
        let q = Query {
            group_by: Some("cell".to_owned()),
            ..Query::default()
        };
        let out = run_query(trace, &q).expect("query runs");
        assert_eq!(
            out,
            "cell\tn\tcount\n0\t1\t1\nNaN\t1\t1\nnan\t1\t1\ntotal\t3\t3\n"
        );
    }

    #[test]
    fn tick_must_be_an_unsigned_integer() {
        let q = Query {
            tick_lo: Some(0),
            tick_hi: Some(0),
            ..Query::default()
        };
        for t in ["-7", "0.5", "\"0\"", "null"] {
            let trace = format!("{{\"t\":{t},\"ev\":\"hop\",\"cell\":0,\"from\":1,\"to\":2}}\n");
            let err = run_query(&trace, &q).expect_err("bad tick");
            assert!(err.starts_with("line 1: \"t\" is not a tick"), "{err}");
        }
    }

    #[test]
    fn agg_parse_rejects_garbage() {
        assert!(Agg::parse("count").is_ok());
        assert!(Agg::parse("mean:snr_db").is_ok());
        assert!(Agg::parse("q0.5:margin_us").is_ok());
        assert!(Agg::parse("median").is_err());
        assert!(Agg::parse("q1.5:x").is_err());
        assert!(Agg::parse("sum:").is_err());
    }

    #[test]
    fn null_values_and_sketch_lines_are_tolerated() {
        let trace = "\
{\"t\":1,\"ev\":\"prach\",\"cell\":0,\"ue\":1,\"snr_db\":null}
{\"sketch\":\"hop\",\"count\":3,\"valued\":3,\"sum\":4.5,\"lo\":0,\"hi\":50,\"buckets\":[1,2,0]}
";
        let q = Query {
            agg: Agg::parse("mean:snr_db").expect("valid agg"),
            ..Query::default()
        };
        let out = run_query(trace, &q).expect("query runs");
        assert_eq!(out, "group\tn\tmean(snr_db)\nall\t1\t-\ntotal\t1\t-\n");
    }
}
