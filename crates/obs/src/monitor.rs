//! Online invariant monitors: deterministic per-tick checks over engine
//! facts, armed only when a run opts in (`exp --monitors`).
//!
//! Each monitor is a pure function `(facts, threshold) -> Option<value>`
//! evaluated against a [`TickFacts`] snapshot the engine assembles from
//! counters it already maintains — no allocation, no wall clock, no
//! iteration over entities, so the verdict is byte-identical for any
//! `CELLFI_THREADS` setting. A returned value is a violation: the
//! registry records the violating tick, the bin layer dumps the
//! flight-recorder ring ([`crate::trace::FlightRecorder`]) as
//! `FLIGHT_<exp>.jsonl`, and the run fails.
//!
//! The standard catalogue ([`MonitorRegistry::standard`]):
//!
//! | monitor            | invariant                                     |
//! |--------------------|-----------------------------------------------|
//! | `etsi_margin_us`   | every vacate beat its ETSI deadline (≥ 0 µs)  |
//! | `rlf_rate`         | RRC drops per UE-minute under a ceiling       |
//! | `sched_starvation` | no backlogged cell starved ≥ N whole epochs   |
//! | `cache_hit_floor`  | pooled per-column cache hit rate over a floor |
//!
//! Fleet runs (`exp spectrum_scale --monitors`) arm the fleet catalogue
//! ([`MonitorRegistry::fleet`]) instead:
//!
//! | monitor            | invariant                                     |
//! |--------------------|-----------------------------------------------|
//! | `etsi_margin_us`   | every vacate beat its deadline (≥ 0 µs)       |
//! | `fleet_lease_gate` | no AP transmits without a valid lease         |

/// A per-tick snapshot of the engine counters the monitors read.
///
/// All fields are running totals (or running extrema) the engine updates
/// incrementally on its hot path; assembling the snapshot is a plain
/// struct copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickFacts {
    /// Simulation time of the snapshot, microseconds.
    pub tick_us: u64,
    /// Attached client population (rate denominators).
    pub n_ues: u32,
    /// Cumulative RRC drops (radio-link failures) since start.
    pub rlf_drops: u64,
    /// Longest current run of *whole epochs* a backlogged, unmasked,
    /// active cell went unscheduled, maximized over cells.
    pub max_starved_epochs: u32,
    /// Cumulative cache probes served from memory: one per non-empty
    /// subchannel per interference-cache refresh, plus one per
    /// subchannel column per CQI-memo scan.
    pub cache_hits: u64,
    /// Cumulative cache probes that recomputed their column.
    pub cache_misses: u64,
    /// Worst PAWS vacate margin observed so far, microseconds before
    /// the ETSI deadline (negative = deadline missed). `i64::MAX` until
    /// the first vacate completes.
    pub min_margin_us: i64,
    /// Cumulative fleet lease-gate breaches: ticks where an AP
    /// transmitted on a channel that had been ground-truth-unavailable
    /// longer than its profile's vacate deadline. Always 0 outside
    /// fleet runs.
    pub lease_gate_breaches: u64,
}

impl Default for TickFacts {
    fn default() -> TickFacts {
        TickFacts {
            tick_us: 0,
            n_ues: 0,
            rlf_drops: 0,
            max_starved_epochs: 0,
            cache_hits: 0,
            cache_misses: 0,
            min_margin_us: i64::MAX,
            lease_gate_breaches: 0,
        }
    }
}

/// One invariant check: returns the observed value when the invariant
/// is violated, `None` while it holds. Plain `fn` — checks must not
/// capture state (determinism) nor allocate (cellfi-lint rule O).
pub type Check = fn(&TickFacts, f64) -> Option<f64>;

/// A named invariant with its threshold.
#[derive(Debug, Clone, Copy)]
pub struct Monitor {
    /// Stable name, used in verdicts and `FLIGHT_<exp>` file naming.
    pub name: &'static str,
    /// The threshold the check compares against.
    pub threshold: f64,
    /// The invariant.
    pub check: Check,
}

/// A recorded invariant violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// The violated monitor's name.
    pub monitor: &'static str,
    /// Simulation tick of the first violation, microseconds.
    pub tick_us: u64,
    /// The observed value that broke the invariant.
    pub value: f64,
    /// The threshold it broke.
    pub threshold: f64,
}

/// The monitor registry an engine owns. Default is disarmed (no
/// monitors): `check_tick` is then a no-op behind one branch.
#[derive(Debug, Clone, Default)]
pub struct MonitorRegistry {
    monitors: Vec<Monitor>,
    violations: Vec<Violation>,
    checks_run: u64,
}

impl MonitorRegistry {
    /// A disarmed registry (the default).
    pub fn disabled() -> MonitorRegistry {
        MonitorRegistry::default()
    }

    /// The standard catalogue with its default thresholds (documented
    /// in EXPERIMENTS.md): ETSI margin ≥ 0 µs, RLF ceiling 30 drops per
    /// UE-minute (after 1 s warmup), starvation ceiling 5 whole epochs,
    /// interference-cache hit floor 50 % (after 1024 probes).
    pub fn standard() -> MonitorRegistry {
        let mut reg = MonitorRegistry::default();
        reg.register("etsi_margin_us", 0.0, |f, thr| {
            if f.min_margin_us == i64::MAX {
                return None;
            }
            let margin = f.min_margin_us as f64;
            if margin < thr {
                Some(margin)
            } else {
                None
            }
        });
        reg.register("rlf_rate", 30.0, |f, thr| {
            if f.tick_us < 1_000_000 || f.n_ues == 0 {
                return None;
            }
            let minutes = f.tick_us as f64 / 60e6;
            let per_ue_min = f.rlf_drops as f64 / f.n_ues as f64 / minutes;
            if per_ue_min > thr {
                Some(per_ue_min)
            } else {
                None
            }
        });
        reg.register("sched_starvation", 5.0, |f, thr| {
            let epochs = f.max_starved_epochs as f64;
            if epochs >= thr {
                Some(epochs)
            } else {
                None
            }
        });
        reg.register("cache_hit_floor", 0.5, |f, thr| {
            let probes = f.cache_hits + f.cache_misses;
            if probes < 1024 {
                return None;
            }
            let rate = f.cache_hits as f64 / probes as f64;
            if rate < thr {
                Some(rate)
            } else {
                None
            }
        });
        reg
    }

    /// The fleet catalogue for multi-tenant spectrum-manager runs
    /// (`exp spectrum_scale --monitors`): the regulatory pair that must
    /// hold fleet-wide under arbitrary per-shard fault schedules —
    /// worst vacate margin ≥ 0 µs, and zero lease-gate breaches (no AP
    /// transmits on a channel unavailable past its vacate deadline).
    pub fn fleet() -> MonitorRegistry {
        let mut reg = MonitorRegistry::default();
        reg.register("etsi_margin_us", 0.0, |f, thr| {
            if f.min_margin_us == i64::MAX {
                return None;
            }
            let margin = f.min_margin_us as f64;
            if margin < thr {
                Some(margin)
            } else {
                None
            }
        });
        reg.register("fleet_lease_gate", 0.0, |f, thr| {
            let breaches = f.lease_gate_breaches as f64;
            if breaches > thr {
                Some(breaches)
            } else {
                None
            }
        });
        reg
    }

    /// Arm an invariant. `check` runs every tick once armed; keep it
    /// allocation-free (cellfi-lint rule O scans these call sites).
    pub fn register(&mut self, name: &'static str, threshold: f64, check: Check) {
        self.monitors.push(Monitor {
            name,
            threshold,
            check,
        });
    }

    /// Whether any monitor is armed.
    pub fn is_armed(&self) -> bool {
        !self.monitors.is_empty()
    }

    /// Evaluate every armed monitor against `facts`, recording the
    /// first violation per monitor.
    pub fn check_tick(&mut self, facts: &TickFacts) {
        for m in &self.monitors {
            self.checks_run += 1;
            if self.violations.iter().any(|v| v.monitor == m.name) {
                continue;
            }
            if let Some(value) = (m.check)(facts, m.threshold) {
                self.violations.push(Violation {
                    monitor: m.name,
                    tick_us: facts.tick_us,
                    value,
                    threshold: m.threshold,
                });
            }
        }
    }

    /// Every recorded violation, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The earliest recorded violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Total checks evaluated (monitors × ticks).
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// One-line deterministic verdict, byte-comparable across runs:
    /// `monitors: armed=A checks=C violations=V` plus ` first=<name>@<tick>`
    /// when a violation was recorded.
    pub fn verdict_line(&self) -> String {
        let mut line = format!(
            "monitors: armed={} checks={} violations={}",
            self.monitors.len(),
            self.checks_run,
            self.violations.len()
        );
        if let Some(v) = self.first_violation() {
            line.push_str(&format!(" first={}@{}", v.monitor, v.tick_us));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_registry_records_nothing() {
        let mut reg = MonitorRegistry::disabled();
        assert!(!reg.is_armed());
        reg.check_tick(&TickFacts::default());
        assert!(reg.violations().is_empty());
        assert_eq!(reg.checks_run(), 0);
        assert_eq!(
            reg.verdict_line(),
            "monitors: armed=0 checks=0 violations=0"
        );
    }

    #[test]
    fn standard_catalogue_holds_on_healthy_facts() {
        let mut reg = MonitorRegistry::standard();
        assert!(reg.is_armed());
        let facts = TickFacts {
            tick_us: 10_000_000,
            n_ues: 12,
            rlf_drops: 1,
            max_starved_epochs: 0,
            cache_hits: 5000,
            cache_misses: 100,
            min_margin_us: 55_000_000,
            lease_gate_breaches: 0,
        };
        reg.check_tick(&facts);
        assert!(reg.violations().is_empty(), "{:?}", reg.violations());
        assert_eq!(reg.checks_run(), 4);
    }

    #[test]
    fn fleet_catalogue_arms_two_and_gates_on_breaches() {
        let mut reg = MonitorRegistry::fleet();
        assert!(reg.is_armed());
        reg.check_tick(&TickFacts {
            tick_us: 1_000_000,
            n_ues: 64,
            min_margin_us: 12_000_000,
            ..TickFacts::default()
        });
        assert!(reg.violations().is_empty());
        assert_eq!(reg.checks_run(), 2);
        reg.check_tick(&TickFacts {
            tick_us: 2_000_000,
            n_ues: 64,
            min_margin_us: 12_000_000,
            lease_gate_breaches: 3,
            ..TickFacts::default()
        });
        let v = reg.first_violation().expect("breach always trips the gate");
        assert_eq!(v.monitor, "fleet_lease_gate");
        assert_eq!(v.value, 3.0);
        assert!(reg
            .verdict_line()
            .starts_with("monitors: armed=2 checks=4 violations=1"));
    }

    #[test]
    fn missed_etsi_deadline_fires_once_with_tick() {
        let mut reg = MonitorRegistry::standard();
        let bad = TickFacts {
            tick_us: 7_250_000,
            n_ues: 4,
            min_margin_us: -1,
            ..TickFacts::default()
        };
        reg.check_tick(&bad);
        reg.check_tick(&TickFacts {
            tick_us: 7_500_000,
            ..bad
        });
        let v: Vec<&Violation> = reg
            .violations()
            .iter()
            .filter(|v| v.monitor == "etsi_margin_us")
            .collect();
        assert_eq!(v.len(), 1, "first violation only");
        assert_eq!(v[0].tick_us, 7_250_000);
        assert_eq!(v[0].value, -1.0);
        assert!(reg.verdict_line().contains("first=etsi_margin_us@7250000"));
    }

    #[test]
    fn unvacated_run_never_trips_the_margin_monitor() {
        let mut reg = MonitorRegistry::standard();
        reg.check_tick(&TickFacts {
            tick_us: 1,
            n_ues: 1,
            ..TickFacts::default()
        });
        assert!(reg.violations().is_empty());
    }

    #[test]
    fn cache_floor_gated_by_minimum_probes() {
        let mut reg = MonitorRegistry::standard();
        let cold = TickFacts {
            tick_us: 5_000_000,
            n_ues: 1,
            cache_hits: 0,
            cache_misses: 500,
            ..TickFacts::default()
        };
        reg.check_tick(&cold);
        assert!(reg.violations().is_empty(), "under 1024 probes: no check");
        let warm = TickFacts {
            cache_misses: 2000,
            ..cold
        };
        reg.check_tick(&warm);
        assert_eq!(
            reg.first_violation().map(|v| v.monitor),
            Some("cache_hit_floor")
        );
    }

    #[test]
    fn starvation_ceiling_uses_whole_epochs() {
        let mut reg = MonitorRegistry::standard();
        reg.check_tick(&TickFacts {
            tick_us: 2_000_000,
            n_ues: 1,
            max_starved_epochs: 4,
            ..TickFacts::default()
        });
        assert!(reg.violations().is_empty());
        reg.check_tick(&TickFacts {
            tick_us: 2_200_000,
            n_ues: 1,
            max_starved_epochs: 5,
            ..TickFacts::default()
        });
        assert_eq!(
            reg.first_violation().map(|v| v.monitor),
            Some("sched_starvation")
        );
    }

    #[test]
    fn rlf_ceiling_scales_by_population_and_time() {
        let mut reg = MonitorRegistry::standard();
        // 100 drops over 2 s across 2 UEs = 1500 drops/UE-minute.
        reg.check_tick(&TickFacts {
            tick_us: 2_000_000,
            n_ues: 2,
            rlf_drops: 100,
            ..TickFacts::default()
        });
        let v = reg.first_violation().expect("ceiling exceeded");
        assert_eq!(v.monitor, "rlf_rate");
        assert!((v.value - 1500.0).abs() < 1e-9);
    }
}
