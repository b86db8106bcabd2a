//! Counter/gauge/histogram registry, snapshotable at any tick.
//!
//! Keys are `(metric name, entity id)` pairs — entity is a cell, UE, or
//! channel index depending on the metric. Storage is `BTreeMap`, so a
//! snapshot iterates in a fixed order and the JSONL export is
//! deterministic. Everything is plain integers/floats: no interning, no
//! background thread, no wall clock.

use crate::trace::write_f64;
use cellfi_types::time::Instant;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A `(metric name, entity index)` key. The name is `&'static str` so a
/// lookup never allocates.
pub type Key = (&'static str, u32);

/// Sample store behind a histogram metric: raw values, summarized at
/// snapshot time. A window mark ([`Histogram::mark_window`]) splits off
/// the tail recorded since the mark, so callers can summarize one
/// observation window (an IM epoch, say) without losing the cumulative
/// view.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    window_start: usize,
}

/// Quantile by nearest rank over a sorted copy; `None` when empty.
fn slice_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
}

/// Arithmetic mean; `None` when empty.
fn slice_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Quantile by nearest rank over a sorted copy; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        slice_quantile(&self.samples, q)
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        slice_mean(&self.samples)
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().min_by(f64::total_cmp)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().max_by(f64::total_cmp)
    }

    /// Samples recorded since the last [`Histogram::mark_window`] (all
    /// samples before the first mark).
    pub fn window(&self) -> &[f64] {
        &self.samples[self.window_start..]
    }

    /// Close the current window: subsequent [`Histogram::window`] calls
    /// cover only samples recorded after this point.
    pub fn mark_window(&mut self) {
        self.window_start = self.samples.len();
    }
}

/// The metrics registry an engine owns. All maps are ordered, so export
/// order is fixed by key, not by insertion or hashing.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
    window_log: String,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `by` to a counter, creating it at zero first.
    pub fn inc(&mut self, name: &'static str, entity: u32, by: u64) {
        *self.counters.entry((name, entity)).or_insert(0) += by;
    }

    /// Set a gauge to its latest value.
    pub fn set_gauge(&mut self, name: &'static str, entity: u32, value: f64) {
        self.gauges.insert((name, entity), value);
    }

    /// Record one histogram sample.
    pub fn observe(&mut self, name: &'static str, entity: u32, value: f64) {
        self.histograms
            .entry((name, entity))
            .or_default()
            .observe(value);
    }

    /// Current counter value (0 when never incremented).
    pub fn counter(&self, name: &'static str, entity: u32) -> u64 {
        self.counters.get(&(name, entity)).copied().unwrap_or(0)
    }

    /// Latest gauge value, if ever set.
    pub fn gauge(&self, name: &'static str, entity: u32) -> Option<f64> {
        self.gauges.get(&(name, entity)).copied()
    }

    /// Histogram behind a key, if any sample was recorded.
    pub fn histogram(&self, name: &'static str, entity: u32) -> Option<&Histogram> {
        self.histograms.get(&(name, entity))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Snapshot every histogram's **current window** into the window
    /// log — one `histogram_window` JSONL line per histogram, key
    /// order, stamped `at` — then start a new window everywhere.
    ///
    /// Engines call this once per IM epoch in detail mode; the log
    /// accumulates one summary line per (histogram, window) and is
    /// exported by [`Registry::window_log`] alongside the cumulative
    /// [`Registry::snapshot_jsonl`]. Histograms with an empty window
    /// are skipped, so quiet epochs cost nothing.
    pub fn snapshot_window(&mut self, at: Instant) {
        let t = at.as_micros();
        for (&(name, entity), h) in &mut self.histograms {
            let w = h.window();
            if w.is_empty() {
                continue;
            }
            let _ = write!(
                self.window_log,
                "{{\"t\":{t},\"kind\":\"histogram_window\",\"metric\":\"{name}\",\"entity\":{entity},\"count\":{}",
                w.len()
            );
            for (field, v) in [
                ("min", w.iter().copied().min_by(f64::total_cmp)),
                ("max", w.iter().copied().max_by(f64::total_cmp)),
                ("mean", slice_mean(w)),
                ("p50", slice_quantile(w, 0.5)),
                ("p95", slice_quantile(w, 0.95)),
            ] {
                let _ = write!(self.window_log, ",\"{field}\":");
                match v {
                    Some(v) => write_f64(&mut self.window_log, v),
                    None => self.window_log.push_str("null"),
                }
            }
            self.window_log.push_str("}\n");
            h.mark_window();
        }
    }

    /// The accumulated per-window histogram snapshots (JSONL), in the
    /// order [`Registry::snapshot_window`] was called. Empty unless a
    /// window was ever snapshotted, so default exports are unchanged.
    pub fn window_log(&self) -> &str {
        &self.window_log
    }

    /// Export the registry as JSON Lines, one metric per line, stamped
    /// with the snapshot tick. Counters, then gauges, then histograms,
    /// each in key order — deterministic byte-for-byte.
    pub fn snapshot_jsonl(&self, at: Instant) -> String {
        let t = at.as_micros();
        let mut out = String::new();
        for (&(name, entity), &v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"t\":{t},\"kind\":\"counter\",\"metric\":\"{name}\",\"entity\":{entity},\"value\":{v}}}"
            );
        }
        for (&(name, entity), &v) in &self.gauges {
            let _ = write!(
                out,
                "{{\"t\":{t},\"kind\":\"gauge\",\"metric\":\"{name}\",\"entity\":{entity},\"value\":"
            );
            write_f64(&mut out, v);
            out.push_str("}\n");
        }
        for (&(name, entity), h) in &self.histograms {
            let _ = write!(
                out,
                "{{\"t\":{t},\"kind\":\"histogram\",\"metric\":\"{name}\",\"entity\":{entity},\"count\":{}",
                h.count()
            );
            for (field, v) in [
                ("min", h.min()),
                ("max", h.max()),
                ("mean", h.mean()),
                ("p50", h.quantile(0.5)),
                ("p95", h.quantile(0.95)),
            ] {
                let _ = write!(out, ",\"{field}\":");
                match v {
                    Some(v) => write_f64(&mut out, v),
                    None => out.push_str("null"),
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_entity() {
        let mut r = Registry::new();
        r.inc("hops", 0, 1);
        r.inc("hops", 0, 2);
        r.inc("hops", 1, 5);
        assert_eq!(r.counter("hops", 0), 3);
        assert_eq!(r.counter("hops", 1), 5);
        assert_eq!(r.counter("hops", 2), 0);
    }

    #[test]
    fn gauges_keep_latest_value() {
        let mut r = Registry::new();
        r.set_gauge("share", 3, 6.0);
        r.set_gauge("share", 3, 4.0);
        assert_eq!(r.gauge("share", 3), Some(4.0));
        assert_eq!(r.gauge("share", 9), None);
    }

    #[test]
    fn histogram_summary_is_correct() {
        let mut h = Histogram::default();
        for v in [3.0, 1.0, 2.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn empty_histogram_yields_none_not_panic() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let mut r = Registry::new();
        r.set_gauge("occupancy", 1, 0.5);
        r.inc("hops", 1, 2);
        r.inc("hops", 0, 7);
        r.observe("vacate_latency_us", 0, 1_500_000.0);
        let a = r.snapshot_jsonl(Instant::from_secs(5));
        let b = r.snapshot_jsonl(Instant::from_secs(5));
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 4);
        // Counters first, key-ordered: entity 0 before entity 1.
        assert!(lines[0].contains("\"entity\":0") && lines[0].contains("counter"));
        assert!(lines[1].contains("\"entity\":1"));
        assert!(lines[2].contains("gauge"));
        assert!(lines[3].contains("histogram") && lines[3].contains("\"count\":1"));
    }
}
