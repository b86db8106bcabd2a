//! Tick-keyed structured event tracing.
//!
//! Events are typed and carry only `Copy` numeric fields, so *building*
//! an event never allocates — the only allocation on an enabled tracer
//! is the `Vec` push, and a disabled tracer costs one branch. Timestamps
//! are simulation [`Instant`]s; wall clock never appears in a trace, so
//! two runs with the same seed produce byte-identical streams regardless
//! of `CELLFI_THREADS` (the per-entity [`EventSink`] merge below is what
//! makes that hold inside parallel regions).

use cellfi_types::rng::splitmix64;
use cellfi_types::time::Instant;
use std::fmt::Write as _;

/// One typed observation from an engine layer.
///
/// Numbers only: entity ids are `u32` indices, times are microseconds of
/// simulation time, and dB/utility values are `f64`. String payloads are
/// deliberately impossible — they would allocate at emission time and
/// invite nondeterministic formatting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Bucket-driven subchannel hop (§5.3) with the utilities that drove
    /// the choice: the drained subchannel's utility and the target's.
    Hop {
        /// Hopping cell.
        cell: u32,
        /// Subchannel given up.
        from: u32,
        /// Subchannel acquired instead.
        to: u32,
        /// Utility of the subchannel given up.
        from_utility: f64,
        /// Utility of the acquired subchannel (maximum over candidates).
        to_utility: f64,
    },
    /// Share recalculation from PRACH counts (§5.2): `share = max(1,
    /// floor(n_sub * own / heard))` clamped to the channel.
    Share {
        /// Recalculating cell.
        cell: u32,
        /// `N_i`: the cell's own active clients.
        own_active: u32,
        /// `NP_i`: all active clients heard via PRACH, incl. its own.
        heard_active: u32,
        /// The computed share `S_i`.
        share: u32,
    },
    /// A foreign active client's PRACH reached this cell above the
    /// −10 dB sensing threshold (§5.1).
    PrachHeard {
        /// Sensing cell.
        cell: u32,
        /// The foreign client heard.
        ue: u32,
        /// Uplink SNR of the client's PRACH at this cell.
        snr_db: f64,
    },
    /// A sub-band CQI report first flagged (ue, subchannel) as interfered
    /// this epoch: SINR fell more than the margin below the clean SNR.
    CqiInterference {
        /// Reporting client.
        ue: u32,
        /// Flagged subchannel.
        subchannel: u32,
        /// Observed SINR on the subchannel.
        sinr_db: f64,
        /// Interference-free SNR baseline on the subchannel.
        clean_db: f64,
    },
    /// Re-use packing move (§5.3): relocation toward low indices onto
    /// subchannels every recent client observed as free.
    Pack {
        /// Packing cell.
        cell: u32,
        /// Subchannel vacated.
        from: u32,
        /// Lower-indexed subchannel taken instead.
        to: u32,
    },
    /// PAWS database granted a channel lease.
    PawsGrant {
        /// Granted TVWS channel number.
        channel: u32,
        /// Lease expiry, microseconds of simulation time.
        expires_us: u64,
    },
    /// PAWS lease renewed before expiry.
    PawsRenew {
        /// Renewed TVWS channel number.
        channel: u32,
        /// New lease expiry, microseconds of simulation time.
        expires_us: u64,
    },
    /// The database withdrew the channel: vacate ordered, ETSI 60 s
    /// deadline armed.
    PawsVacate {
        /// Withdrawn TVWS channel number.
        channel: u32,
        /// Absolute vacate deadline, microseconds of simulation time.
        deadline_us: u64,
    },
    /// Transmission confirmed stopped on a withdrawn channel.
    PawsVacated {
        /// Vacated TVWS channel number.
        channel: u32,
        /// Margin left before the deadline (0 when the deadline was
        /// already missed — a compliance violation).
        margin_us: u64,
    },
    /// The fault injector perturbed a PAWS exchange for a cell's client.
    FaultInject {
        /// Affected cell (AP index).
        cell: u32,
        /// Fault kind code (`FaultKind::code()` in `cellfi-spectrum`):
        /// 0 request lost, 1 response delayed, 2 outage, 3 transient
        /// error, 4 truncated grants, 5 revocation.
        kind: u32,
    },
    /// The resilient lifecycle renewed/confirmed a cell's lease.
    LeaseRenew {
        /// Renewing cell (AP index).
        cell: u32,
        /// Confirmed TVWS channel number.
        channel: u32,
        /// New lease expiry, microseconds of simulation time.
        expires_us: u64,
    },
    /// A degradation-ladder rung fired for a cell.
    Degrade {
        /// Degrading cell (AP index).
        cell: u32,
        /// Channel after the rung (the vacated channel for a
        /// preemptive vacate).
        channel: u32,
        /// Rung code (`DegradeStep::code()`): 0 channel fallback,
        /// 1 EIRP reduction, 2 preemptive vacate.
        step: u32,
    },
    /// A cell recovered from backoff/degradation to normal operation.
    Recover {
        /// Recovering cell (AP index).
        cell: u32,
        /// Channel operating on after recovery.
        channel: u32,
    },
    /// Per-epoch scheduler occupancy decision (detail stream): the
    /// subchannel mask a cell will schedule over until the next epoch.
    Sched {
        /// Deciding cell.
        cell: u32,
        /// Bitmask of allowed subchannels (bit `s` set ⇔ subchannel `s`
        /// in the mask; grids are ≤ 32 subchannels).
        mask_bits: u32,
        /// Number of subchannels in the mask.
        owned: u32,
    },
    /// A downlink transport block failed its first decode and stays in
    /// its HARQ process for retransmission (detail stream).
    HarqRetx {
        /// Receiving client.
        ue: u32,
        /// Serving cell.
        cell: u32,
        /// HARQ process holding the block.
        process: u32,
    },
    /// Spatial-index cull summary for one client: how many candidate
    /// APs survived the received-power floor and how many the index
    /// culled. Emitted once per UE when a `cull_floor_dbm` is set; a
    /// dense (floor off) run emits none.
    Cull {
        /// Reporting client.
        ue: u32,
        /// Candidate APs kept in the neighbor list (incl. serving).
        kept: u32,
        /// APs culled below the received-power floor.
        culled: u32,
    },
    /// A spectrum-database shard entered a scheduled outage window
    /// (fleet runs: every lifecycle on the shard rides it out alone).
    ShardOutage {
        /// Affected database shard.
        shard: u32,
        /// Outage window end, microseconds of simulation time.
        until_us: u64,
    },
    /// An availability query was served from a shard's response cache
    /// instead of reaching the database.
    CacheHit {
        /// Serving database shard.
        shard: u32,
        /// Age of the replayed response, microseconds — the regulatory
        /// confidence window ages by exactly this much.
        age_us: u64,
    },
    /// A per-shard request-rate window closed with traffic: the batch
    /// of renewals/queries the shard absorbed in one accounting window.
    RenewBatch {
        /// Reporting database shard.
        shard: u32,
        /// Requests served in the window.
        size: u32,
    },
}

/// Number of distinct event kinds (one per [`Event`] variant).
pub const N_KINDS: usize = 19;

/// One payload value of an event, as the JSONL stream writes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An id, count, code or bitmask.
    Int(u64),
    /// Microseconds of simulation time. A sketch aggregates it in
    /// seconds (`/ 1e6`) so it fits a fixed range.
    Micros(u64),
    /// A dB or utility value; a non-finite one is written as `null`.
    Real(f64),
}

impl Value {
    /// The value a sketch aggregates.
    fn sample(self) -> f64 {
        match self {
            Value::Int(x) => x as f64,
            Value::Micros(us) => us as f64 / 1e6,
            Value::Real(x) => x,
        }
    }
}

/// The schema of one event kind, stated once: the writer, the sketches,
/// stratified sampling and `trace-query --entity` all read it from here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindSpec {
    /// The `"ev"` field value.
    pub name: &'static str,
    /// Payload field names in record order. The first is the kind's
    /// entity id: the cell for cell-scoped events, the UE for per-client
    /// reports, the channel for PAWS lease events, the shard for fleet
    /// events.
    pub fields: &'static [&'static str],
    /// Index into `fields` of the value a sketch aggregates; `None` for
    /// count-only kinds (pure lease bookkeeping).
    pub value: Option<usize>,
    /// Sketch value range `(lo, hi)`, fixed at compile time so two
    /// sketches of one kind always share bucket edges and merge
    /// bucket-by-bucket. Count-only kinds never bucket a value.
    pub range: (f64, f64),
}

impl KindSpec {
    /// The schema of the kind whose `"ev"` value is `name`.
    pub fn named(name: &str) -> Option<&'static KindSpec> {
        KINDS.iter().find(|k| k.name == name)
    }
}

/// A kind whose sketch aggregates `fields[value]` over `[lo, hi)`.
const fn valued(
    name: &'static str,
    fields: &'static [&'static str],
    value: usize,
    lo: f64,
    hi: f64,
) -> KindSpec {
    KindSpec {
        name,
        fields,
        value: Some(value),
        range: (lo, hi),
    }
}

/// A count-only kind.
const fn counted(name: &'static str, fields: &'static [&'static str]) -> KindSpec {
    KindSpec {
        name,
        fields,
        value: None,
        range: (0.0, 1.0),
    }
}

/// Every kind's schema, indexed by [`Event::kind_code`]. Sketch ranges:
/// hop utilities on the bps scale, dB values within ±40, subchannel
/// indices and counts within the grid, vacate margins and cache ages in
/// seconds.
pub const KINDS: [KindSpec; N_KINDS] = [
    valued(
        "hop",
        &["cell", "from", "to", "from_utility", "to_utility"],
        4,
        0.0,
        1e8,
    ),
    valued("share", &["cell", "own", "heard", "share"], 3, 0.0, 32.0),
    valued("prach", &["cell", "ue", "snr_db"], 2, -40.0, 40.0),
    valued(
        "cqi_interf",
        &["ue", "sub", "sinr_db", "clean_db"],
        2,
        -40.0,
        40.0,
    ),
    valued("pack", &["cell", "from", "to"], 2, 0.0, 32.0),
    counted("paws_grant", &["channel", "expires_us"]),
    counted("paws_renew", &["channel", "expires_us"]),
    counted("paws_vacate", &["channel", "deadline_us"]),
    valued("paws_vacated", &["channel", "margin_us"], 1, 0.0, 120.0),
    valued("fault_inject", &["cell", "kind"], 1, 0.0, 8.0),
    counted("lease_renew", &["cell", "channel", "expires_us"]),
    valued("degrade", &["cell", "channel", "step"], 2, 0.0, 4.0),
    counted("recover", &["cell", "channel"]),
    valued("sched", &["cell", "mask", "owned"], 2, 0.0, 32.0),
    valued("harq_retx", &["ue", "cell", "process"], 2, 0.0, 16.0),
    valued("cull", &["ue", "kept", "culled"], 2, 0.0, 64.0),
    counted("shard_outage", &["shard", "until_us"]),
    valued("cache_hit", &["shard", "age_us"], 1, 0.0, 16.0),
    valued("renew_batch", &["shard", "size"], 1, 0.0, 256.0),
];

/// Most payload fields any kind carries (`hop`).
const MAX_FIELDS: usize = 5;

/// A kind code with its payload padded to [`MAX_FIELDS`].
fn payload<const N: usize>(code: usize, values: [Value; N]) -> (usize, [Value; MAX_FIELDS]) {
    let mut out = [Value::Int(0); MAX_FIELDS];
    out[..N].copy_from_slice(&values);
    (code, out)
}

impl Event {
    /// The one per-variant listing: the kind code (the index into
    /// [`KINDS`]) and the payload values in that kind's field order.
    fn payload(&self) -> (usize, [Value; MAX_FIELDS]) {
        use Value::{Micros, Real};
        let n = |x: u32| Value::Int(x.into());
        match *self {
            Event::Hop {
                cell,
                from,
                to,
                from_utility,
                to_utility,
            } => payload(
                0,
                [
                    n(cell),
                    n(from),
                    n(to),
                    Real(from_utility),
                    Real(to_utility),
                ],
            ),
            Event::Share {
                cell,
                own_active,
                heard_active,
                share,
            } => payload(1, [n(cell), n(own_active), n(heard_active), n(share)]),
            Event::PrachHeard { cell, ue, snr_db } => payload(2, [n(cell), n(ue), Real(snr_db)]),
            Event::CqiInterference {
                ue,
                subchannel,
                sinr_db,
                clean_db,
            } => payload(3, [n(ue), n(subchannel), Real(sinr_db), Real(clean_db)]),
            Event::Pack { cell, from, to } => payload(4, [n(cell), n(from), n(to)]),
            Event::PawsGrant {
                channel,
                expires_us,
            } => payload(5, [n(channel), Micros(expires_us)]),
            Event::PawsRenew {
                channel,
                expires_us,
            } => payload(6, [n(channel), Micros(expires_us)]),
            Event::PawsVacate {
                channel,
                deadline_us,
            } => payload(7, [n(channel), Micros(deadline_us)]),
            Event::PawsVacated { channel, margin_us } => {
                payload(8, [n(channel), Micros(margin_us)])
            }
            Event::FaultInject { cell, kind } => payload(9, [n(cell), n(kind)]),
            Event::LeaseRenew {
                cell,
                channel,
                expires_us,
            } => payload(10, [n(cell), n(channel), Micros(expires_us)]),
            Event::Degrade {
                cell,
                channel,
                step,
            } => payload(11, [n(cell), n(channel), n(step)]),
            Event::Recover { cell, channel } => payload(12, [n(cell), n(channel)]),
            Event::Sched {
                cell,
                mask_bits,
                owned,
            } => payload(13, [n(cell), n(mask_bits), n(owned)]),
            Event::HarqRetx { ue, cell, process } => payload(14, [n(ue), n(cell), n(process)]),
            Event::Cull { ue, kept, culled } => payload(15, [n(ue), n(kept), n(culled)]),
            Event::ShardOutage { shard, until_us } => payload(16, [n(shard), Micros(until_us)]),
            Event::CacheHit { shard, age_us } => payload(17, [n(shard), Micros(age_us)]),
            Event::RenewBatch { shard, size } => payload(18, [n(shard), n(size)]),
        }
    }

    /// This event's kind schema.
    pub fn spec(&self) -> &'static KindSpec {
        &KINDS[self.payload().0]
    }

    /// Stable kind name — the `"ev"` field value in the JSONL stream.
    pub fn kind(&self) -> &'static str {
        self.spec().name
    }

    /// Dense kind code, `0..N_KINDS`, stable across releases (new kinds
    /// append). Sampling keys and sketch tables index on it.
    pub fn kind_code(&self) -> u32 {
        self.payload().0 as u32
    }

    /// The payload as `(field name, value)` pairs in record order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, Value)> {
        let (code, values) = self.payload();
        KINDS[code].fields.iter().copied().zip(values)
    }

    /// The event's primary entity id, its kind's first field.
    /// Stratified sampling keys on `(kind_code, entity)`.
    pub fn entity(&self) -> u32 {
        match self.payload().1[0] {
            Value::Int(id) => id as u32,
            // No kind leads with a time or a real (pinned by the
            // kind-table test).
            Value::Micros(_) | Value::Real(_) => 0,
        }
    }

    /// The magnitude a histogram sketch aggregates for this kind, if the
    /// kind has one.
    pub fn value(&self) -> Option<f64> {
        let (code, values) = self.payload();
        KINDS[code].value.map(|i| values[i].sample())
    }
}

/// Per-kind sketch value range `(lo, hi)` ([`KindSpec::range`]); codes
/// past the table get the count-only range.
pub fn sketch_range(kind_code: u32) -> (f64, f64) {
    KINDS
        .get(kind_code as usize)
        .map_or((0.0, 1.0), |k| k.range)
}

/// An event with the simulation tick at which it was observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Simulation time of the observation, microseconds.
    pub tick_us: u64,
    /// The observation.
    pub event: Event,
}

/// Deterministic stratified sampling: keep `keep` out of every `out_of`
/// `(kind, entity)` strata.
///
/// The keep/drop decision is a pure function of `(entity_id, kind)` — no
/// counters, no RNG state, no emission order — so a given cell's hops
/// are either *all* in the sampled trace or *all* aggregated into the
/// sketch, and the sampled byte stream is identical for any
/// `CELLFI_THREADS` setting and any worker interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Strata kept per `out_of` (clamped: `keep >= out_of` keeps all).
    pub keep: u32,
    /// Stratum modulus.
    pub out_of: u32,
}

impl SampleSpec {
    /// Keep everything (the default: traces stay full fidelity).
    pub const FULL: SampleSpec = SampleSpec { keep: 1, out_of: 1 };

    /// Parse `"K/N"` (e.g. `"1/8"`). `None` on malformed input and
    /// unless `0 < K <= N`: keeping no stratum would write an empty trace.
    pub fn parse(s: &str) -> Option<SampleSpec> {
        let (k, n) = s.split_once('/')?;
        let keep: u32 = k.trim().parse().ok()?;
        let out_of: u32 = n.trim().parse().ok()?;
        (0 < keep && keep <= out_of).then_some(SampleSpec { keep, out_of })
    }

    /// Whether this spec keeps every event.
    pub fn is_full(&self) -> bool {
        self.keep >= self.out_of
    }

    /// Whether `event`'s `(kind, entity)` stratum is in the sample.
    /// Pure: same event, same answer, forever.
    #[inline]
    pub fn keeps(&self, event: &Event) -> bool {
        if self.is_full() {
            return true;
        }
        let key = ((event.kind_code() as u64) << 32) | event.entity() as u64;
        (splitmix64(key) % self.out_of as u64) < self.keep as u64
    }
}

impl Default for SampleSpec {
    fn default() -> SampleSpec {
        SampleSpec::FULL
    }
}

/// Fixed bucket count for every histogram sketch.
pub const SKETCH_BUCKETS: usize = 16;

/// A fixed-bucket streaming histogram over one event kind's values.
///
/// Bucket edges are fixed per kind ([`sketch_range`]) and out-of-range
/// values clamp to the edge buckets, so the sketch is a plain vector of
/// counts. The running value sum is held in fixed-point micro-units
/// (`i128`), not `f64`: integer addition is exact, so merging two
/// sketches is element-wise addition throughout — associative and
/// commutative, hence independent of worker count *and* merge order
/// (float accumulation would drift in the last ulp under re-bracketing).
#[derive(Debug, Clone, PartialEq)]
pub struct KindSketch {
    /// The aggregated kind ([`Event::kind_code`]).
    pub kind_code: u32,
    /// Inclusive lower edge of bucket 0.
    pub lo: f64,
    /// Exclusive upper edge of the last bucket (values above clamp in).
    pub hi: f64,
    /// Value counts per bucket.
    pub buckets: [u64; SKETCH_BUCKETS],
    /// Events aggregated (kept out of the sampled stream).
    pub count: u64,
    /// Of those, events that carried a finite value.
    pub valued: u64,
    /// Sum of the finite values in micro-units (value × 10⁶, rounded).
    /// Mean = `sum_micro as f64 / 1e6 / valued as f64`.
    pub sum_micro: i128,
}

impl KindSketch {
    /// An empty sketch for `kind_code`, edges from [`sketch_range`].
    pub fn new(kind_code: u32) -> KindSketch {
        let (lo, hi) = sketch_range(kind_code);
        KindSketch {
            kind_code,
            lo,
            hi,
            buckets: [0; SKETCH_BUCKETS],
            count: 0,
            valued: 0,
            sum_micro: 0,
        }
    }

    fn bucket(&self, v: f64) -> usize {
        let frac = (v - self.lo) / (self.hi - self.lo);
        let idx = (frac * SKETCH_BUCKETS as f64).floor();
        if idx < 0.0 {
            0
        } else if idx >= SKETCH_BUCKETS as f64 {
            SKETCH_BUCKETS - 1
        } else {
            idx as usize
        }
    }

    fn add_value(&mut self, v: f64) {
        if v.is_finite() {
            self.buckets[self.bucket(v)] += 1;
            self.valued += 1;
            self.sum_micro += (v * 1e6).round() as i128;
        }
    }

    /// Sum of the finite values, unquantized back to the value scale.
    pub fn sum(&self) -> f64 {
        self.sum_micro as f64 / 1e6
    }

    /// Fold `other` in (element-wise). Both sides must sketch the same
    /// kind so their bucket edges agree.
    pub fn merge(&mut self, other: &KindSketch) {
        debug_assert_eq!(self.kind_code, other.kind_code);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.valued += other.valued;
        self.sum_micro += other.sum_micro;
    }
}

/// Per-kind sketches of the events sampling dropped, indexed by kind
/// code (no hashing: emission order never matters).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchSet {
    kinds: Vec<Option<KindSketch>>,
}

impl SketchSet {
    /// Aggregate one dropped event.
    pub fn add(&mut self, event: &Event) {
        if self.kinds.is_empty() {
            self.kinds.resize(N_KINDS, None);
        }
        let code = event.kind_code() as usize;
        let sketch = self.kinds[code].get_or_insert_with(|| KindSketch::new(code as u32));
        sketch.count += 1;
        if let Some(v) = event.value() {
            sketch.add_value(v);
        }
    }

    /// Fold `other` in. Element-wise per kind: associative, commutative.
    pub fn merge(&mut self, other: &SketchSet) {
        if other.kinds.is_empty() {
            return;
        }
        if self.kinds.is_empty() {
            self.kinds.resize(N_KINDS, None);
        }
        for (slot, o) in self.kinds.iter_mut().zip(other.kinds.iter()) {
            if let Some(o) = o {
                match slot {
                    Some(s) => s.merge(o),
                    None => *slot = Some(o.clone()),
                }
            }
        }
    }

    /// Whether no event has been aggregated.
    pub fn is_empty(&self) -> bool {
        self.kinds.iter().all(|k| k.is_none())
    }

    /// The non-empty sketches, in kind-code order.
    pub fn iter(&self) -> impl Iterator<Item = &KindSketch> {
        self.kinds.iter().filter_map(|k| k.as_ref())
    }

    /// Serialize as JSON Lines, one sketch per kind in kind-code order,
    /// fixed field order (byte-comparable like the event stream).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.iter() {
            let _ = write!(
                out,
                "{{\"sketch\":\"{}\",\"count\":{},\"valued\":{},\"sum\":",
                KINDS[s.kind_code as usize].name, s.count, s.valued
            );
            write_f64(&mut out, s.sum());
            out.push_str(",\"lo\":");
            write_f64(&mut out, s.lo);
            out.push_str(",\"hi\":");
            write_f64(&mut out, s.hi);
            out.push_str(",\"buckets\":[");
            for (i, b) in s.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// A bounded ring of the most recent events, full fidelity, kept even
/// when sampling drops them from the exported trace. The invariant
/// monitors dump it as `FLIGHT_<exp>.jsonl` on a violation so the ticks
/// leading up to the failure are always inspectable.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    cap: usize,
    buf: Vec<Record>,
    /// Next write position once `buf` is full.
    head: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` events (0 = disabled).
    pub fn with_capacity(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap,
            buf: Vec::new(),
            head: 0,
            total: 0,
        }
    }

    /// Whether the recorder is retaining events.
    pub fn is_enabled(&self) -> bool {
        self.cap > 0
    }

    /// Lifetime number of events pushed (retained or since overwritten).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Retain `r`, overwriting the oldest entry when full.
    #[inline]
    pub fn push(&mut self, r: Record) {
        if self.cap == 0 {
            return;
        }
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[self.head] = r;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Retained events, oldest first.
    pub fn records_in_order(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Serialize the retained ring as JSON Lines, oldest first — the
    /// `FLIGHT_<exp>.jsonl` format (same per-event schema as the trace).
    pub fn to_jsonl(&self) -> String {
        let records = self.records_in_order();
        let mut out = String::with_capacity(records.len() * 64);
        for r in &records {
            write_record(&mut out, r);
            out.push('\n');
        }
        out
    }
}

/// The trace collector an engine owns.
///
/// Disabled (the default), [`Tracer::emit`] is a single branch and the
/// backing `Vec` is never allocated. Inside parallel regions use
/// [`Tracer::fork`] to hand each entity its own [`EventSink`], then
/// [`Tracer::absorb`] the sinks back **in entity index order** — that
/// fixed merge order is the whole determinism argument.
///
/// Two optional layers ride on the emit path, both off by default:
/// a [`SampleSpec`] diverts dropped strata into [`SketchSet`] histogram
/// sketches, and a [`FlightRecorder`] ring retains the most recent
/// events at full fidelity for the invariant monitors.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    events: Vec<Record>,
    spec: SampleSpec,
    sketches: SketchSet,
    flight: FlightRecorder,
}

impl Tracer {
    /// A tracer that records nothing and never allocates.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer with recording on (`enabled = true`) or off.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Install a sampling spec. Dropped strata aggregate into
    /// [`Tracer::sketches`]; the default [`SampleSpec::FULL`] keeps all.
    pub fn set_sample(&mut self, spec: SampleSpec) {
        self.spec = spec;
    }

    /// Histogram sketches of the events sampling dropped.
    pub fn sketches(&self) -> &SketchSet {
        &self.sketches
    }

    /// Retain the last `cap` events in a flight-recorder ring (0 turns
    /// it off). Independent of the enabled flag: monitor-only runs keep
    /// a ring without paying for a full trace.
    pub fn enable_flight(&mut self, cap: usize) {
        self.flight = FlightRecorder::with_capacity(cap);
    }

    /// The flight-recorder ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Record `event` at simulation time `at`. One branch when disabled.
    #[inline]
    pub fn emit(&mut self, at: Instant, event: Event) {
        if self.enabled || self.flight.is_enabled() {
            self.record(at, event);
        }
    }

    fn record(&mut self, at: Instant, event: Event) {
        let r = Record {
            tick_us: at.as_micros(),
            event,
        };
        self.flight.push(r);
        if self.enabled {
            if self.spec.keeps(&event) {
                self.events.push(r);
            } else {
                self.sketches.add(&event);
            }
        }
    }

    /// A fresh per-entity sink sharing this tracer's enabled flag,
    /// sampling spec, and flight switch.
    pub fn fork(&self) -> EventSink {
        EventSink {
            enabled: self.enabled,
            flight_on: self.flight.is_enabled(),
            spec: self.spec,
            events: Vec::new(),
            flight_buf: Vec::new(),
            sketches: SketchSet::default(),
        }
    }

    /// Append a per-entity sink's events. Call in entity index order so
    /// the merged stream is independent of worker scheduling. (Sketches
    /// merge element-wise, so for them even the order is immaterial.)
    pub fn absorb(&mut self, sink: EventSink) {
        if self.flight.is_enabled() {
            for r in &sink.flight_buf {
                self.flight.push(*r);
            }
        }
        if self.enabled {
            self.events.extend(sink.events);
            self.sketches.merge(&sink.sketches);
        }
    }

    /// Events recorded so far.
    pub fn records(&self) -> &[Record] {
        &self.events
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all recorded events, keeping the enabled flag.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Serialize the trace as JSON Lines: one event object per line, in
    /// emission order, with a fixed field order — suitable for byte
    /// comparison by `trace-diff`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for r in &self.events {
            write_record(&mut out, r);
            out.push('\n');
        }
        out
    }
}

/// A per-entity event buffer for parallel regions: rows emit into their
/// own sink (no shared state), and the caller absorbs sinks back into
/// the [`Tracer`] in entity index order after the region.
#[derive(Debug, Default)]
pub struct EventSink {
    enabled: bool,
    flight_on: bool,
    spec: SampleSpec,
    events: Vec<Record>,
    flight_buf: Vec<Record>,
    sketches: SketchSet,
}

impl EventSink {
    /// Record `event` at simulation time `at`. One branch when disabled.
    #[inline]
    pub fn emit(&mut self, at: Instant, event: Event) {
        if self.enabled || self.flight_on {
            self.record(at, event);
        }
    }

    fn record(&mut self, at: Instant, event: Event) {
        let r = Record {
            tick_us: at.as_micros(),
            event,
        };
        if self.flight_on {
            self.flight_buf.push(r);
        }
        if self.enabled {
            if self.spec.keeps(&event) {
                self.events.push(r);
            } else {
                self.sketches.add(&event);
            }
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the sink has buffered nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Write one f64 as JSON: `{}` round-trips shortest-form and is
/// deterministic; non-finite values (never expected in practice) become
/// `null` to keep the line valid JSON.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn write_record(out: &mut String, r: &Record) {
    let _ = write!(out, "{{\"t\":{},\"ev\":\"{}\"", r.tick_us, r.event.kind());
    for (name, value) in r.event.fields() {
        let _ = write!(out, ",\"{name}\":");
        match value {
            Value::Int(x) | Value::Micros(x) => {
                let _ = write!(out, "{x}");
            }
            Value::Real(x) => write_f64(out, x),
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_never_allocates() {
        let mut t = Tracer::disabled();
        t.emit(
            Instant::from_millis(1),
            Event::Pack {
                cell: 0,
                from: 5,
                to: 0,
            },
        );
        assert!(t.is_empty());
        assert_eq!(t.events.capacity(), 0, "disabled emit must not allocate");
        let sink = t.fork();
        assert_eq!(sink.events.capacity(), 0);
    }

    #[test]
    fn enabled_tracer_keeps_emission_order() {
        let mut t = Tracer::new(true);
        t.emit(
            Instant::from_secs(1),
            Event::Share {
                cell: 0,
                own_active: 2,
                heard_active: 4,
                share: 6,
            },
        );
        t.emit(
            Instant::from_secs(1),
            Event::Hop {
                cell: 0,
                from: 3,
                to: 7,
                from_utility: 1.0,
                to_utility: 2.5,
            },
        );
        assert_eq!(t.len(), 2);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"share\""), "{}", lines[0]);
        assert!(lines[1].contains("\"ev\":\"hop\""), "{}", lines[1]);
        assert!(lines[1].contains("\"to_utility\":2.5"), "{}", lines[1]);
    }

    #[test]
    fn sink_absorb_merges_in_call_order() {
        let mut t = Tracer::new(true);
        let mut a = t.fork();
        let mut b = t.fork();
        b.emit(
            Instant::from_millis(2),
            Event::CqiInterference {
                ue: 1,
                subchannel: 0,
                sinr_db: -3.0,
                clean_db: 20.0,
            },
        );
        a.emit(
            Instant::from_millis(2),
            Event::CqiInterference {
                ue: 0,
                subchannel: 4,
                sinr_db: 1.0,
                clean_db: 18.0,
            },
        );
        // The caller absorbs in entity index order regardless of which
        // worker finished first.
        t.absorb(a);
        t.absorb(b);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"ue\":0"));
        assert!(lines[1].contains("\"ue\":1"));
    }

    #[test]
    fn jsonl_is_stable_across_identical_traces() {
        let build = || {
            let mut t = Tracer::new(true);
            t.emit(
                Instant::from_micros(1500),
                Event::PawsVacated {
                    channel: 21,
                    margin_us: 58_000_000,
                },
            );
            t.emit(
                Instant::from_micros(2500),
                Event::PrachHeard {
                    cell: 1,
                    ue: 9,
                    snr_db: -4.25,
                },
            );
            t.to_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn resilience_events_serialize_with_fixed_fields() {
        let mut t = Tracer::new(true);
        t.emit(
            Instant::from_secs(3),
            Event::FaultInject { cell: 2, kind: 5 },
        );
        t.emit(
            Instant::from_secs(4),
            Event::LeaseRenew {
                cell: 2,
                channel: 44,
                expires_us: 7_200_000_000,
            },
        );
        t.emit(
            Instant::from_secs(5),
            Event::Degrade {
                cell: 2,
                channel: 45,
                step: 0,
            },
        );
        t.emit(
            Instant::from_secs(6),
            Event::Recover {
                cell: 2,
                channel: 44,
            },
        );
        let lines: Vec<String> = t.to_jsonl().lines().map(String::from).collect();
        assert_eq!(
            lines[0],
            "{\"t\":3000000,\"ev\":\"fault_inject\",\"cell\":2,\"kind\":5}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":4000000,\"ev\":\"lease_renew\",\"cell\":2,\"channel\":44,\"expires_us\":7200000000}"
        );
        assert_eq!(
            lines[2],
            "{\"t\":5000000,\"ev\":\"degrade\",\"cell\":2,\"channel\":45,\"step\":0}"
        );
        assert_eq!(
            lines[3],
            "{\"t\":6000000,\"ev\":\"recover\",\"cell\":2,\"channel\":44}"
        );
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let mut t = Tracer::new(true);
        t.emit(
            Instant::ZERO,
            Event::PrachHeard {
                cell: 0,
                ue: 0,
                snr_db: f64::NAN,
            },
        );
        assert!(t.to_jsonl().contains("\"snr_db\":null"));
    }

    fn cqi(ue: u32) -> Event {
        Event::CqiInterference {
            ue,
            subchannel: 1,
            sinr_db: -2.0,
            clean_db: 15.0,
        }
    }

    #[test]
    fn sampling_partitions_by_stratum() {
        let spec = SampleSpec::parse("1/4").expect("valid spec");
        let mut t = Tracer::new(true);
        t.set_sample(spec);
        let total = 64u32;
        for ue in 0..total {
            t.emit(Instant::from_millis(1), cqi(ue));
        }
        let kept = t.len() as u64;
        let sketched: u64 = t.sketches().iter().map(|s| s.count).sum();
        assert_eq!(kept + sketched, total as u64, "no event lost or duplicated");
        assert!(kept > 0 && sketched > 0, "1/4 spec keeps a strict subset");
        // Stratification: every kept event's stratum passes `keeps`, and
        // a repeat emission of a kept entity is kept again.
        for r in t.records() {
            assert!(spec.keeps(&r.event));
        }
    }

    #[test]
    fn sampling_decision_is_pure_and_split_invariant() {
        let spec = SampleSpec { keep: 1, out_of: 8 };
        // Emitting through one tracer or through forked sinks absorbed
        // in entity order yields byte-identical sampled streams.
        let direct = {
            let mut t = Tracer::new(true);
            t.set_sample(spec);
            for ue in 0..40 {
                t.emit(Instant::from_millis(3), cqi(ue));
            }
            t.to_jsonl()
        };
        let forked = {
            let mut t = Tracer::new(true);
            t.set_sample(spec);
            let mut sinks: Vec<EventSink> = (0..40).map(|_| t.fork()).collect();
            // Emit in reverse worker order — absorb order is what counts.
            for ue in (0..40u32).rev() {
                sinks[ue as usize].emit(Instant::from_millis(3), cqi(ue));
            }
            for s in sinks {
                t.absorb(s);
            }
            t.to_jsonl()
        };
        assert_eq!(direct, forked);
    }

    #[test]
    fn sketches_merge_associatively() {
        let events: Vec<Event> = (0..30).map(cqi).collect();
        let set = |evs: &[Event]| {
            let mut s = SketchSet::default();
            for e in evs {
                s.add(e);
            }
            s
        };
        let (a, b, c) = (set(&events[..7]), set(&events[7..19]), set(&events[19..]));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "(a+b)+c == a+(b+c)");
        assert_eq!(ab_c.to_jsonl(), a_bc.to_jsonl());
        let merged: u64 = ab_c.iter().map(|s| s.count).sum();
        assert_eq!(merged, 30);
    }

    #[test]
    fn sketch_buckets_clamp_out_of_range_values() {
        let mut s = SketchSet::default();
        s.add(&Event::PrachHeard {
            cell: 0,
            ue: 0,
            snr_db: -500.0,
        });
        s.add(&Event::PrachHeard {
            cell: 0,
            ue: 1,
            snr_db: 500.0,
        });
        let k = s.iter().next().expect("prach sketch exists");
        assert_eq!(k.buckets[0], 1, "below-range clamps to first bucket");
        assert_eq!(
            k.buckets[SKETCH_BUCKETS - 1],
            1,
            "above-range clamps to last bucket"
        );
    }

    #[test]
    fn flight_ring_keeps_most_recent_events() {
        let mut t = Tracer::disabled();
        t.enable_flight(3);
        assert!(!t.is_enabled(), "flight works without full tracing");
        for ue in 0..5 {
            t.emit(Instant::from_millis(ue as u64), cqi(ue));
        }
        assert!(t.is_empty(), "flight never feeds the exported trace");
        let ring = t.flight().records_in_order();
        assert_eq!(ring.len(), 3);
        assert_eq!(t.flight().total(), 5);
        let ticks: Vec<u64> = ring.iter().map(|r| r.tick_us).collect();
        assert_eq!(ticks, [2000, 3000, 4000], "oldest first, last three kept");
        assert_eq!(t.flight().to_jsonl().lines().count(), 3);
    }

    #[test]
    fn flight_absorbs_sink_events() {
        let mut t = Tracer::disabled();
        t.enable_flight(8);
        let mut sink = t.fork();
        sink.emit(Instant::from_millis(1), cqi(7));
        t.absorb(sink);
        assert_eq!(t.flight().records_in_order().len(), 1);
    }

    /// One sample per kind, in kind-code order, with its exact JSONL
    /// line, entity id and sketch value. Fractional reals and times past
    /// 2^32 pin the number formatting and the microsecond scaling.
    fn kind_samples() -> [(Event, &'static str, u32, Option<f64>); N_KINDS] {
        [
            (
                Event::Hop {
                    cell: 3,
                    from: 1,
                    to: 2,
                    from_utility: 0.1,
                    to_utility: 2_500_000.75,
                },
                r#""hop","cell":3,"from":1,"to":2,"from_utility":0.1,"to_utility":2500000.75"#,
                3,
                Some(2_500_000.75),
            ),
            (
                Event::Share {
                    cell: 4,
                    own_active: 2,
                    heard_active: 5,
                    share: 6,
                },
                r#""share","cell":4,"own":2,"heard":5,"share":6"#,
                4,
                Some(6.0),
            ),
            (
                Event::PrachHeard {
                    cell: 5,
                    ue: 9,
                    snr_db: -4.25,
                },
                r#""prach","cell":5,"ue":9,"snr_db":-4.25"#,
                5,
                Some(-4.25),
            ),
            (
                Event::CqiInterference {
                    ue: 11,
                    subchannel: 7,
                    sinr_db: -3.125,
                    clean_db: 18.5,
                },
                r#""cqi_interf","ue":11,"sub":7,"sinr_db":-3.125,"clean_db":18.5"#,
                11,
                Some(-3.125),
            ),
            (
                Event::Pack {
                    cell: 6,
                    from: 9,
                    to: 2,
                },
                r#""pack","cell":6,"from":9,"to":2"#,
                6,
                Some(2.0),
            ),
            (
                Event::PawsGrant {
                    channel: 21,
                    expires_us: 7_200_000_000_123,
                },
                r#""paws_grant","channel":21,"expires_us":7200000000123"#,
                21,
                None,
            ),
            (
                Event::PawsRenew {
                    channel: 22,
                    expires_us: 8_589_934_592,
                },
                r#""paws_renew","channel":22,"expires_us":8589934592"#,
                22,
                None,
            ),
            (
                Event::PawsVacate {
                    channel: 23,
                    deadline_us: 5_060_000_001,
                },
                r#""paws_vacate","channel":23,"deadline_us":5060000001"#,
                23,
                None,
            ),
            (
                Event::PawsVacated {
                    channel: 24,
                    margin_us: 58_250_001,
                },
                r#""paws_vacated","channel":24,"margin_us":58250001"#,
                24,
                Some(58.250001),
            ),
            (
                Event::FaultInject { cell: 7, kind: 5 },
                r#""fault_inject","cell":7,"kind":5"#,
                7,
                Some(5.0),
            ),
            (
                Event::LeaseRenew {
                    cell: 8,
                    channel: 44,
                    expires_us: 4_294_967_297,
                },
                r#""lease_renew","cell":8,"channel":44,"expires_us":4294967297"#,
                8,
                None,
            ),
            (
                Event::Degrade {
                    cell: 9,
                    channel: 45,
                    step: 2,
                },
                r#""degrade","cell":9,"channel":45,"step":2"#,
                9,
                Some(2.0),
            ),
            (
                Event::Recover {
                    cell: 10,
                    channel: 46,
                },
                r#""recover","cell":10,"channel":46"#,
                10,
                None,
            ),
            (
                Event::Sched {
                    cell: 12,
                    mask_bits: 0b1011_0001,
                    owned: 4,
                },
                r#""sched","cell":12,"mask":177,"owned":4"#,
                12,
                Some(4.0),
            ),
            (
                Event::HarqRetx {
                    ue: 13,
                    cell: 2,
                    process: 7,
                },
                r#""harq_retx","ue":13,"cell":2,"process":7"#,
                13,
                Some(7.0),
            ),
            (
                Event::Cull {
                    ue: 14,
                    kept: 4,
                    culled: 12,
                },
                r#""cull","ue":14,"kept":4,"culled":12"#,
                14,
                Some(12.0),
            ),
            (
                Event::ShardOutage {
                    shard: 3,
                    until_us: 6_000_000_000_000,
                },
                r#""shard_outage","shard":3,"until_us":6000000000000"#,
                3,
                None,
            ),
            (
                Event::CacheHit {
                    shard: 5,
                    age_us: 1_234_567,
                },
                r#""cache_hit","shard":5,"age_us":1234567"#,
                5,
                Some(1.234567),
            ),
            (
                Event::RenewBatch { shard: 6, size: 42 },
                r#""renew_batch","shard":6,"size":42"#,
                6,
                Some(42.0),
            ),
        ]
    }

    #[test]
    fn kind_tables_are_consistent() {
        for (i, (e, line, entity, value)) in kind_samples().into_iter().enumerate() {
            assert_eq!(e.kind_code() as usize, i, "dense codes in variant order");
            assert_eq!(e.kind(), KINDS[i].name);
            let mut got = String::new();
            write_record(
                &mut got,
                &Record {
                    tick_us: 5_000_000_001,
                    event: e,
                },
            );
            assert_eq!(got, format!("{{\"t\":5000000001,\"ev\":{line}}}"));
            assert_eq!(e.entity(), entity, "{line}");
            assert_eq!(
                e.value().map(f64::to_bits),
                value.map(f64::to_bits),
                "{line}"
            );
        }
    }

    #[test]
    fn kind_schema_names_every_written_field() {
        for (e, line, _, _) in kind_samples() {
            let spec = e.spec();
            let names: Vec<&str> = e.fields().map(|(name, _)| name).collect();
            assert_eq!(names, spec.fields, "{line}");
            for name in spec.fields {
                assert!(line.contains(&format!("\"{name}\":")), "{line}");
            }
            assert!(spec.value.is_none_or(|i| i < spec.fields.len()));
            assert!(spec.range.0 < spec.range.1, "{line}");
            assert_eq!(KindSpec::named(spec.name), Some(spec));
        }
        assert_eq!(KindSpec::named("no_such_kind"), None);
    }

    #[test]
    fn sample_spec_parse_accepts_only_nonempty_fractions() {
        assert_eq!(
            SampleSpec::parse("1/8"),
            Some(SampleSpec { keep: 1, out_of: 8 })
        );
        assert!(SampleSpec::parse(" 8 / 8 ").is_some_and(|s| s.is_full()));
        for bad in [
            "0/8", "0/1", "9/8", "2/1", "1/0", "0/0", "1", "a/8", "-1/8", "",
        ] {
            assert_eq!(SampleSpec::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn clear_keeps_enabled_flag() {
        let mut t = Tracer::new(true);
        t.emit(
            Instant::ZERO,
            Event::Pack {
                cell: 0,
                from: 1,
                to: 0,
            },
        );
        t.clear();
        assert!(t.is_empty());
        assert!(t.is_enabled());
    }
}
