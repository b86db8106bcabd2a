//! One clock loop for every system under comparison.
//!
//! The paper's evaluation is *paired*: 802.11af, plain LTE, CellFi, the
//! oracle, LAA and X2-ICIC all run over the same topologies and
//! workloads. [`SystemEngine`] is the least common denominator those
//! comparisons need — a clock, a way to offer traffic, and per-client
//! delivery counters — implemented by both [`LteEngine`] and
//! [`WifiEngine`]; [`SimHarness`] and [`steady_state_bps`] are the
//! shared loops the experiment drivers build on instead of re-rolling
//! their own.

use super::LteEngine;
use crate::wifi_engine::WifiEngine;
use cellfi_types::time::{Duration, Instant};

/// A simulated radio system a harness can drive: the LTE engine in any
/// IM mode, or the Wi-Fi baseline.
///
/// Delivery counters are in **bits** for every implementation (the
/// Wi-Fi engine's byte counters are scaled by 8, which is exact in both
/// `u64` and `f64`), so paired comparisons never mix units. Backlog is
/// offered in the engine's native queue unit — bits for LTE, bytes for
/// Wi-Fi — because queue sizes parameterize workloads, not comparisons.
pub trait SystemEngine {
    /// Current simulation time.
    fn now(&self) -> Instant;

    /// Advance the simulation to `deadline`.
    fn run_until(&mut self, deadline: Instant);

    /// Give every client `amount` of backlog, in the engine's native
    /// queue unit (bits for LTE, bytes for Wi-Fi).
    fn backlog_all(&mut self, amount: u64);

    /// Total delivered downlink **bits** per client since construction.
    fn delivered_bits_per_ue(&self) -> Vec<u64>;

    /// Number of clients in the scenario.
    fn n_ues(&self) -> usize;

    /// The engine's span profiler, if it carries one. [`SimHarness`]
    /// uses this to wrap each tick in a `harness_tick` span; engines
    /// without observability return `None` (the default) and the
    /// harness skips the bracketing entirely.
    fn profiler_mut(&mut self) -> Option<&mut cellfi_obs::Profiler> {
        None
    }
}

impl SystemEngine for LteEngine {
    fn now(&self) -> Instant {
        LteEngine::now(self)
    }

    fn run_until(&mut self, deadline: Instant) {
        LteEngine::run_until(self, deadline);
    }

    fn backlog_all(&mut self, amount: u64) {
        LteEngine::backlog_all(self, amount);
    }

    fn delivered_bits_per_ue(&self) -> Vec<u64> {
        self.delivered_bits().to_vec()
    }

    fn n_ues(&self) -> usize {
        self.scenario().n_ues()
    }

    fn profiler_mut(&mut self) -> Option<&mut cellfi_obs::Profiler> {
        Some(&mut self.obs_mut().profiler)
    }
}

impl SystemEngine for WifiEngine {
    fn now(&self) -> Instant {
        self.sim().now()
    }

    fn run_until(&mut self, deadline: Instant) {
        WifiEngine::run_until(self, deadline);
    }

    fn backlog_all(&mut self, amount: u64) {
        WifiEngine::backlog_all(self, amount);
    }

    fn delivered_bits_per_ue(&self) -> Vec<u64> {
        // Bytes → bits is a ×8 exponent shift: exact in u64 (delivered
        // volumes are far below 2^61) and exact again when a caller
        // converts to f64, so the paired-throughput arithmetic matches
        // the old per-driver byte math bit for bit.
        self.delivered_bytes().iter().map(|&b| b * 8).collect()
    }

    fn n_ues(&self) -> usize {
        WifiEngine::n_ues(self)
    }
}

/// Per-client steady-state throughput (bps) of a backlogged run:
/// advance to `warmup`, snapshot, advance to `horizon`, and rate the
/// difference. `warmup` excludes convergence transients (CellFi's
/// hopping buckets have mean λ = 10 epochs, so convergence takes tens
/// of seconds; the paper measures converged behaviour).
pub fn steady_state_bps<E: SystemEngine + ?Sized>(
    e: &mut E,
    warmup: Duration,
    horizon: Instant,
) -> Vec<f64> {
    e.run_until(Instant::ZERO + warmup);
    let at_warmup = e.delivered_bits_per_ue();
    e.run_until(horizon);
    let span = (horizon - warmup).as_secs_f64();
    e.delivered_bits_per_ue()
        .iter()
        .zip(&at_warmup)
        .map(|(&total, &w)| (total - w) as f64 / span)
        .collect()
}

/// The shared clock loop for workload-driven runs: one tick granularity,
/// one horizon, any [`SystemEngine`].
#[derive(Debug, Clone, Copy)]
pub struct SimHarness {
    /// Tick granularity of the loop (1 ms for the LTE engine — one
    /// subframe per tick — and coarser for slot-based Wi-Fi runs).
    pub tick: Duration,
    /// End of the run.
    pub horizon: Instant,
}

impl SimHarness {
    /// A harness stepping `tick` at a time until `horizon`.
    pub fn new(tick: Duration, horizon: Instant) -> SimHarness {
        SimHarness { tick, horizon }
    }

    /// Drive `e` to the horizon. Per tick: `offer` may enqueue traffic
    /// or move clients (it sees the engine, the workload state, and the
    /// current time), the engine advances one tick, and every client
    /// whose delivery counter moved is reported to `deliver` as
    /// `(workload, ue, delta_bits, tick_deadline)` in client index
    /// order — a fixed order and a tick-boundary timestamp, so workload
    /// bookkeeping stays deterministic no matter how the engine
    /// internally batches deliveries or rounds its clock (the Wi-Fi
    /// simulator stops on whole 9 µs slots).
    ///
    /// `workload` is whatever state both callbacks share — a
    /// [`crate::workload::WebWorkload`], a trace vector, or `&mut ()`
    /// when the driver only needs `offer`.
    pub fn run<E: SystemEngine + ?Sized, W: ?Sized>(
        &self,
        e: &mut E,
        workload: &mut W,
        mut offer: impl FnMut(&mut E, &mut W, Instant),
        mut deliver: impl FnMut(&mut W, usize, u64, Instant),
    ) {
        let mut last = e.delivered_bits_per_ue();
        // The loop keeps its own tick clock: engines may round their
        // internal clock (Wi-Fi stops on whole slots), and tick
        // boundaries must not drift with that rounding.
        let mut now = e.now();
        while now < self.horizon {
            if let Some(p) = e.profiler_mut() {
                p.begin(cellfi_obs::SpanId::HarnessTick);
            }
            offer(e, workload, now);
            let after = now + self.tick;
            e.run_until(after);
            if let Some(p) = e.profiler_mut() {
                p.end(cellfi_obs::SpanId::HarnessTick);
            }
            let current = e.delivered_bits_per_ue();
            for (u, (&cur, &prev)) in current.iter().zip(&last).enumerate() {
                if cur > prev {
                    deliver(workload, u, cur - prev, after);
                }
            }
            last = current;
            now = after;
        }
    }
}
