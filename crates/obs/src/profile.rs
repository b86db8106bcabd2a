//! Hierarchical span profiler with an injected clock.
//!
//! Library crates must never read wall clock (cellfi-lint rule D), yet
//! the ROADMAP's "fast as the hardware allows" goal needs per-stage
//! timings. The resolution: the profiler holds an optional `fn() -> u64`
//! nanosecond source that only the bench/bin layer installs (bins are
//! exempt from the clock rule). With no clock installed, `begin`/`end`
//! are branches on a `None` and the engine's behaviour is untouched —
//! timings are observational and never feed back into simulation state.
//!
//! Spans nest: `begin(A); begin(B); end(B); end(A)` records `B` as a
//! child of `A` in a call tree, so time is attributed both as **total**
//! (span plus everything below it) and **self** (total minus children).
//! The same [`SpanId`] may appear at several places in the tree — e.g.
//! `sinr_cache` shows up both under `cqi_scan` and directly under
//! `subframe` — and each position keeps its own node. [`Profiler::tree`]
//! exports the call tree and [`Profiler::folded`] renders it as folded
//! stacks (`a;b;c self_ns` lines) for standard flamegraph tooling.

/// The instrumented stages, from the harness tick down to the caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    /// One `SimHarness` tick: offer traffic, run the engine, deliver.
    HarnessTick,
    /// One engine subframe (`step_subframe`).
    Subframe,
    /// Proportional-fair downlink scheduling pass.
    MacSchedule,
    /// Memoized per-subchannel interference accumulation
    /// (`InterferenceCache::refresh`).
    SinrCache,
    /// Per-link fading redraw at block boundaries.
    FadingScan,
    /// Per-UE sub-band CQI measurement scan.
    CqiScan,
    /// Interference-management epoch (hop/share/pack decisions).
    ImEpoch,
    /// One PAWS lease-lifecycle step (`LeaseLifecycle::step`).
    LeaseStep,
    /// Spatial-index and neighbor-table construction (grid bucketing,
    /// ring queries, CSR assembly) at scenario/engine build time.
    SpatialBuild,
}

impl SpanId {
    /// Every span, in export order (outermost first).
    pub const ALL: [SpanId; 9] = [
        SpanId::HarnessTick,
        SpanId::Subframe,
        SpanId::MacSchedule,
        SpanId::SinrCache,
        SpanId::FadingScan,
        SpanId::CqiScan,
        SpanId::ImEpoch,
        SpanId::LeaseStep,
        SpanId::SpatialBuild,
    ];

    /// Stable snake_case name used in [`Profiler::tree`] paths and
    /// [`Profiler::folded`] lines.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::HarnessTick => "harness_tick",
            SpanId::Subframe => "subframe",
            SpanId::MacSchedule => "mac_schedule",
            SpanId::SinrCache => "sinr_cache",
            SpanId::FadingScan => "fading_scan",
            SpanId::CqiScan => "cqi_scan",
            SpanId::ImEpoch => "im_epoch",
            SpanId::LeaseStep => "lease_step",
            SpanId::SpatialBuild => "spatial_build",
        }
    }
}

/// Accumulated timing for one span (or one tree node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Total nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Nanoseconds inside the span minus nanoseconds inside its
    /// children: `self_ns + Σ child.total_ns == total_ns` exactly.
    pub self_ns: u64,
    /// Number of times the span completed.
    pub count: u64,
}

/// One exported call-tree position, preorder.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// Span names from the tree root down to this node, `;`-joined
    /// (the folded-stack line prefix).
    pub path: String,
    /// Nesting depth (0 = top-level span).
    pub depth: usize,
    /// The span at this position.
    pub span: SpanId,
    /// Timing at this position only (not merged with other positions of
    /// the same span elsewhere in the tree).
    pub stats: SpanStats,
}

/// No parent: a top-level tree node.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    span: SpanId,
    parent: u32,
    /// Children in first-seen order (deterministic: simulation order).
    children: Vec<u32>,
    total_ns: u64,
    child_ns: u64,
    count: u64,
}

/// Call-tree span accumulator. Disabled (no clock) it records nothing
/// and every `begin`/`end` is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    clock: Option<fn() -> u64>,
    nodes: Vec<Node>,
    /// Top-level node indices in first-seen order.
    roots: Vec<u32>,
    /// Open spans: `(node index, start ns)`, innermost last.
    stack: Vec<(u32, u64)>,
}

impl Profiler {
    /// A profiler with no clock: `begin`/`end` are near-free no-ops.
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// A profiler reading nanoseconds from `clock`. Install only from
    /// the bench/bin layer — library code has no wall-clock source.
    pub fn with_clock(clock: fn() -> u64) -> Profiler {
        Profiler {
            clock: Some(clock),
            ..Profiler::default()
        }
    }

    /// Whether a clock is installed.
    pub fn is_enabled(&self) -> bool {
        self.clock.is_some()
    }

    /// Open a span nested under the innermost currently-open span.
    #[inline]
    pub fn begin(&mut self, span: SpanId) {
        if let Some(clock) = self.clock {
            let now = clock();
            self.push(span, now);
        }
    }

    /// Close the innermost open span. `span` must match it (checked in
    /// debug builds); a mismatched or spurious `end` is ignored rather
    /// than corrupting the tree.
    #[inline]
    pub fn end(&mut self, span: SpanId) {
        if let Some(clock) = self.clock {
            let now = clock();
            self.pop(span, now);
        }
    }

    fn push(&mut self, span: SpanId, now: u64) {
        let parent = match self.stack.last() {
            Some(&(n, _)) => n,
            None => NO_PARENT,
        };
        let existing = {
            let siblings: &[u32] = if parent == NO_PARENT {
                &self.roots
            } else {
                &self.nodes[parent as usize].children
            };
            siblings
                .iter()
                .copied()
                .find(|&c| self.nodes[c as usize].span == span)
        };
        let node = match existing {
            Some(n) => n,
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(Node {
                    span,
                    parent,
                    children: Vec::new(),
                    total_ns: 0,
                    child_ns: 0,
                    count: 0,
                });
                if parent == NO_PARENT {
                    self.roots.push(id);
                } else {
                    self.nodes[parent as usize].children.push(id);
                }
                id
            }
        };
        self.stack.push((node, now));
    }

    fn pop(&mut self, span: SpanId, now: u64) {
        let (node, start) = match self.stack.last() {
            Some(&(n, s)) if self.nodes[n as usize].span == span => (n, s),
            // Mismatched end: leave the open span alone. Debug builds
            // flag the call-site bug; release builds stay consistent.
            _ => {
                debug_assert!(false, "Profiler::end span does not match open span");
                return;
            }
        };
        self.stack.pop();
        let elapsed = now.saturating_sub(start);
        let n = &mut self.nodes[node as usize];
        n.total_ns += elapsed;
        n.count += 1;
        let parent = n.parent;
        if parent != NO_PARENT {
            self.nodes[parent as usize].child_ns += elapsed;
        }
    }

    /// Stats for `span` merged across every tree position it occurs at
    /// (the flat per-span view; `cellfi-bench` reads its `engine.*_ns`
    /// rows from it).
    pub fn stats(&self, span: SpanId) -> SpanStats {
        let mut out = SpanStats::default();
        for n in &self.nodes {
            if n.span == span {
                out.total_ns += n.total_ns;
                out.self_ns += n.total_ns.saturating_sub(n.child_ns);
                out.count += n.count;
            }
        }
        out
    }

    /// `(name, stats)` for every span, in export order.
    pub fn report(&self) -> Vec<(&'static str, SpanStats)> {
        SpanId::ALL
            .iter()
            .map(|&s| (s.name(), self.stats(s)))
            .collect()
    }

    /// The call tree in preorder, children in first-seen order.
    pub fn tree(&self) -> Vec<TreeNode> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for &r in &self.roots {
            self.walk(r, "", 0, &mut out);
        }
        out
    }

    fn walk(&self, node: u32, prefix: &str, depth: usize, out: &mut Vec<TreeNode>) {
        let n = &self.nodes[node as usize];
        let path = if prefix.is_empty() {
            n.span.name().to_owned()
        } else {
            let mut p = String::with_capacity(prefix.len() + 1 + n.span.name().len());
            p.push_str(prefix);
            p.push(';');
            p.push_str(n.span.name());
            p
        };
        out.push(TreeNode {
            path: path.clone(),
            depth,
            span: n.span,
            stats: SpanStats {
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(n.child_ns),
                count: n.count,
            },
        });
        for &c in &n.children {
            self.walk(c, &path, depth + 1, out);
        }
    }

    /// Folded-stack rendering of the call tree: one `path self_ns` line
    /// per node with completed calls, flamegraph.pl / inferno compatible.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for node in self.tree() {
            if node.stats.count == 0 {
                continue;
            }
            out.push_str(&node.path);
            out.push(' ');
            out.push_str(&node.stats.self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake clock: monotonically advancing counter. It is
    /// per thread, so tests running in parallel never see each other's
    /// ticks.
    fn fake_clock() -> u64 {
        use std::cell::Cell;
        thread_local!(static TICKS: Cell<u64> = const { Cell::new(0) });
        TICKS.with(|t| t.replace(t.get() + 10))
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        p.begin(SpanId::SinrCache);
        p.end(SpanId::SinrCache);
        assert_eq!(p.stats(SpanId::SinrCache), SpanStats::default());
        assert!(!p.is_enabled());
        assert!(p.tree().is_empty());
        assert_eq!(p.folded(), "");
    }

    #[test]
    fn injected_clock_accumulates_spans() {
        let mut p = Profiler::with_clock(fake_clock);
        p.begin(SpanId::CqiScan);
        p.end(SpanId::CqiScan);
        p.begin(SpanId::CqiScan);
        p.end(SpanId::CqiScan);
        let s = p.stats(SpanId::CqiScan);
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 20, "two spans, one 10-tick gap each");
        assert_eq!(s.self_ns, 20, "no children: self == total");
        assert_eq!(p.stats(SpanId::FadingScan).count, 0);
    }

    #[test]
    fn nesting_attributes_self_and_total() {
        // begin A (t=0) begin B (t=10) end B (t=20) begin C (t=30)
        // end C (t=40) end A (t=50): A total 50, children 20, self 30.
        let mut p = Profiler::with_clock(fake_clock);
        p.begin(SpanId::Subframe);
        p.begin(SpanId::MacSchedule);
        p.end(SpanId::MacSchedule);
        p.begin(SpanId::CqiScan);
        p.end(SpanId::CqiScan);
        p.end(SpanId::Subframe);
        let a = p.stats(SpanId::Subframe);
        assert_eq!(a.total_ns, 50);
        assert_eq!(a.self_ns, 30);
        let b = p.stats(SpanId::MacSchedule);
        assert_eq!((b.total_ns, b.self_ns, b.count), (10, 10, 1));
        // Self plus child totals equals parent total exactly.
        assert_eq!(
            a.self_ns + b.total_ns + p.stats(SpanId::CqiScan).total_ns,
            a.total_ns
        );
    }

    #[test]
    fn same_span_keeps_distinct_tree_positions() {
        let mut p = Profiler::with_clock(fake_clock);
        p.begin(SpanId::CqiScan);
        p.begin(SpanId::SinrCache);
        p.end(SpanId::SinrCache);
        p.end(SpanId::CqiScan);
        p.begin(SpanId::SinrCache);
        p.end(SpanId::SinrCache);
        let paths: Vec<String> = p.tree().into_iter().map(|n| n.path).collect();
        assert_eq!(
            paths,
            ["cqi_scan", "cqi_scan;sinr_cache", "sinr_cache"],
            "one node per position, preorder"
        );
        // The flat view merges both positions.
        assert_eq!(p.stats(SpanId::SinrCache).count, 2);
    }

    #[test]
    fn folded_emits_one_line_per_completed_node() {
        let mut p = Profiler::with_clock(fake_clock);
        p.begin(SpanId::HarnessTick);
        p.begin(SpanId::Subframe);
        p.end(SpanId::Subframe);
        p.end(SpanId::HarnessTick);
        let folded = p.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("harness_tick "));
        assert!(lines[1].starts_with("harness_tick;subframe "));
        // Every line is `path value` with a numeric value.
        for l in lines {
            let (_, v) = l.rsplit_once(' ').expect("folded line has a value");
            v.parse::<u64>().expect("folded value is an integer");
        }
    }

    #[test]
    fn report_covers_every_span_in_order() {
        let p = Profiler::disabled();
        let names: Vec<&str> = p.report().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "harness_tick",
                "subframe",
                "mac_schedule",
                "sinr_cache",
                "fading_scan",
                "cqi_scan",
                "im_epoch",
                "lease_step",
                "spatial_build"
            ]
        );
    }
}
