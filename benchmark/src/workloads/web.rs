//! `web_paired`: the fig9c web renewal traffic (think → page → drain)
//! over the pinned 10-AP topology, first through CellFi, then through
//! 802.11af. Both systems warm up untimed until most clients have
//! issued their first page, then run their measured legs.
//!
//! Every step advances 10 simulated ms. On the LTE leg a step is ten
//! subframes, with the workload polled every subframe and fed in the
//! engine's delivery order (the fig9c LTE loop). On the Wi-Fi leg a step
//! is one tick of the `SimHarness` loop: offer, `run_until`, report
//! per-client deliveries at the tick boundary.

use super::lte::engine_layers;
use super::{clock_ns, engine_monitors_hold, pinned_environment, Outcome, Pass};
use crate::alloc::allocations;
use crate::{Scale, Workload};
use cellfi_obs::Profiler;
use cellfi_sim::wifi_engine::WifiEngine;
use cellfi_sim::{ImMode, LteEngine, LteEngineConfig, Scenario, ScenarioConfig};
use cellfi_sim::{WebWorkload, WebWorkloadConfig};
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::{Duration, Instant};
use cellfi_wifi::sim::WifiConfig;
use std::time::Instant as Wall;

/// Simulated length of one step.
const TICK: Duration = Duration::from_millis(10);

/// One paired pass.
pub(crate) struct WebPaired {
    lte: LteEngine,
    lte_web: WebWorkload,
    /// Delivered bits not yet handed to the workload as whole bytes.
    bit_acc: Vec<u64>,
    handed: Vec<u64>,
    wifi: WifiEngine,
    wifi_web: WebWorkload,
    /// Wi-Fi delivered bytes per client at the previous tick boundary.
    wifi_last: Vec<u64>,
    lte_warm_steps: usize,
    lte_steps: usize,
    wifi_warm_steps: usize,
    wifi_steps: usize,
    windows: usize,
    traced: bool,
    workload_ns: u64,
    wifi_ns: u64,
    wifi_allocs: u64,
}

/// Run `f`, adding its wall time to `acc` when `on` (untraced passes
/// read no clock here).
fn timed<R>(on: bool, acc: &mut u64, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t = Wall::now();
    let r = f();
    *acc += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    r
}

fn median_load_s(web: &WebWorkload) -> f64 {
    let loads: Vec<f64> = web
        .completed
        .iter()
        .map(|p| p.duration().as_secs_f64())
        .collect();
    crate::stats::median(&loads)
}

impl WebPaired {
    pub(crate) fn new(seeds: SeedSeq, scale: Scale, traced: bool) -> WebPaired {
        // Simulated seconds: CellFi warm-up and measured leg, then
        // Wi-Fi warm-up and measured leg.
        let (n_aps, clients, [lte_warm_s, lte_s, wifi_warm_s, wifi_s], windows) = match scale {
            Scale::Full => (10, 6, [20, 120, 20, 30], 60),
            Scale::Smoke => (4, 3, [5, 15, 5, 15], 2),
        };
        let scenario = Scenario::generate(
            ScenarioConfig::paper_default(n_aps, clients),
            pinned_environment(Workload::WebPaired).child("topology"),
        );
        let n = scenario.n_ues();
        let lte = LteEngine::new(
            scenario.clone(),
            LteEngineConfig::paper_default(ImMode::CellFi),
            seeds.child("cellfi"),
        );
        // TCP retransmits what the MAC drops: persistent-retry mode.
        let wifi_config = WifiConfig {
            persistent_retry: true,
            ..WifiConfig::af_default()
        };
        let wifi = WifiEngine::new(&scenario, wifi_config, seeds.child("wifi"));
        let web = |leg: &str| WebWorkload::new(WebWorkloadConfig::default(), n, seeds.child(leg));
        let steps = |s: u64| (s * 1_000 / TICK.as_millis()) as usize;
        WebPaired {
            lte,
            lte_web: web("cellfi-web"),
            bit_acc: vec![0; n],
            handed: vec![0; n],
            wifi,
            wifi_web: web("wifi-web"),
            wifi_last: vec![0; n],
            lte_warm_steps: steps(lte_warm_s),
            lte_steps: steps(lte_s),
            wifi_warm_steps: steps(wifi_warm_s),
            wifi_steps: steps(wifi_s),
            windows,
            traced,
            workload_ns: 0,
            wifi_ns: 0,
            wifi_allocs: 0,
        }
    }

    fn lte_step(&mut self) {
        let on = self.traced;
        for _ in 0..TICK.as_millis() {
            let now = self.lte.now();
            let requests = timed(on, &mut self.workload_ns, || self.lte_web.poll(now));
            for (client, bytes) in requests {
                self.lte.enqueue(client, bytes * 8);
            }
            let deliveries = self.lte.step_subframe();
            let now = self.lte.now();
            let (web, bit_acc, handed) = (&mut self.lte_web, &mut self.bit_acc, &mut self.handed);
            timed(on, &mut self.workload_ns, || {
                for (ue, bits) in deliveries {
                    // Hand whole bytes over: truncating each delivery
                    // would leak bits and pages would never complete.
                    bit_acc[ue] += bits;
                    let bytes = bit_acc[ue] / 8;
                    if bytes > handed[ue] {
                        web.delivered(ue, bytes - handed[ue], now);
                        handed[ue] = bytes;
                    }
                }
            });
        }
    }

    fn wifi_step(&mut self, tick: usize) {
        let on = self.traced;
        let now = Instant::ZERO + TICK * tick as u64;
        let after = now + TICK;
        let requests = timed(on, &mut self.workload_ns, || self.wifi_web.poll(now));
        for (client, bytes) in requests {
            self.wifi.enqueue(client, bytes);
        }
        let before = allocations();
        timed(on, &mut self.wifi_ns, || self.wifi.run_until(after));
        if on {
            self.wifi_allocs += allocations() - before;
        }
        let (wifi, web, last) = (&self.wifi, &mut self.wifi_web, &mut self.wifi_last);
        timed(on, &mut self.workload_ns, || {
            for (u, (&bytes, last)) in wifi.delivered_bytes().iter().zip(last).enumerate() {
                if bytes > *last {
                    web.delivered(u, bytes - *last, after);
                    *last = bytes;
                }
            }
        });
    }
}

impl Pass for WebPaired {
    fn warm_up(&mut self) {
        let traced = std::mem::replace(&mut self.traced, false);
        for _ in 0..self.lte_warm_steps {
            self.lte_step();
        }
        for tick in 0..self.wifi_warm_steps {
            self.wifi_step(tick);
        }
        self.traced = traced;
        if self.traced {
            self.lte.obs_mut().profiler = Profiler::with_clock(clock_ns);
        }
    }

    fn steps(&self) -> usize {
        self.lte_steps + self.wifi_steps
    }

    fn step_sim_s(&self) -> f64 {
        TICK.as_secs_f64()
    }

    fn windows(&self) -> usize {
        self.windows
    }

    /// Window `k` holds the `k`-th equal slice of *each* leg, so every
    /// window rate weighs CellFi and Wi-Fi steps as the pass does.
    fn window(&self, i: usize) -> usize {
        if i < self.lte_steps {
            i * self.windows / self.lte_steps
        } else {
            (i - self.lte_steps) * self.windows / self.wifi_steps
        }
    }

    fn step(&mut self, i: usize) {
        if i < self.lte_steps {
            self.lte_step();
        } else {
            self.wifi_step(self.wifi_warm_steps + i - self.lte_steps);
        }
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = Outcome::default();
        out.output("cellfi_pages", self.lte_web.completed.len());
        out.output("cellfi_median_load_s", median_load_s(&self.lte_web));
        out.output("wifi_pages", self.wifi_web.completed.len());
        out.output("wifi_median_load_s", median_load_s(&self.wifi_web));
        out.checks.push((
            "pages complete on both systems",
            !self.lte_web.completed.is_empty() && !self.wifi_web.completed.is_empty(),
        ));
        out.checks
            .push(("engine monitors hold", engine_monitors_hold(&self.lte)));

        if self.traced {
            let stats = self.wifi.sim().stats();
            let attempts: u64 = stats.attempts.iter().sum();
            let failures: u64 = stats.failures.iter().sum();
            let ticks = self.steps() as f64;
            let wifi_ticks = self.wifi_steps as f64;
            let layers = &mut out.layers;
            layers.insert("workload.web_ns", self.workload_ns as f64 / ticks);
            layers.insert("wifi.run_until_us", self.wifi_ns as f64 / wifi_ticks / 1e3);
            layers.insert("wifi.attempts", attempts as f64);
            if attempts > 0 {
                layers.insert(
                    "wifi.tx_success_ratio",
                    (attempts - failures) as f64 / attempts as f64,
                );
            }
            layers.insert("wifi.allocs_per_tick", self.wifi_allocs as f64 / wifi_ticks);
            out.attributed_ns += self.workload_ns + self.wifi_ns;
            engine_layers(&self.lte, &mut out);
        }
        out
    }
}
