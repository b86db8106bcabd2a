//! The slotted CSMA/CA (DCF) simulator.
//!
//! A discrete-time model of the 802.11 distributed coordination function
//! at 9 µs slot granularity, covering everything the paper's Wi-Fi
//! arguments rest on (§3.2):
//!
//! * **DIFS + binary exponential backoff** — the per-access channel
//!   acquisition overhead that long-range networks cannot amortize;
//! * **energy-detect carrier sensing** on mean received power, so the
//!   carrier-sense footprint and the interference footprint diverge with
//!   the path-loss exponent — hidden and exposed terminals *emerge*;
//! * **propagation delay** — a transmission is sensed only after its
//!   wavefront arrives, widening the collision window on km links;
//! * **RTS/CTS with NAV** — clients' CTS silences hidden access points
//!   within energy-detect range of the *client*;
//! * **A-MPDU aggregation** up to 65 KB per exchange (§6.3.4), capped at
//!   the 4 ms TXOP of Table 1;
//! * **per-receiver SINR collision resolution** — overlapping frames are
//!   not automatically lost; capture happens when SINR still clears the
//!   MCS threshold.
//!
//! Simplifications (documented in DESIGN.md): CTS/ACK transmissions are
//! modelled through NAV and assumed decodable when the frame they answer
//! was; downlink traffic only (as in the paper's evaluation).
//!
//! Positions, antennas and node keys are fixed for a simulator's life,
//! so every mean link quantity the slot loop needs is computed once at
//! construction, from one [`cellfi_propagation::LinkBudget`] per pair,
//! into per-AP rows: which APs it senses and after how many slots of
//! propagation delay, the mean power it lands at each station, and whose
//! CTS sets its NAV. The slot loop only reads these tables and reuses its
//! buffers, so in steady state it allocates nothing. Each entry is the
//! value the loop would compute from the same pure function on the same
//! arguments, so results do not depend on the tables existing. Only the
//! SINR of a finished window still goes through
//! [`RadioEnvironment::subchannel_sinr`], since it reads block fading at
//! the checkpoint's time.

use crate::phy::{Mcs, McsTable, WifiBand};
use cellfi_propagation::link::{LinkEnd, Transmission};
use cellfi_propagation::RadioEnvironment;
use cellfi_types::time::{Duration, Instant};
use cellfi_types::units::Dbm;
use cellfi_types::SubchannelId;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// DCF configuration.
#[derive(Debug, Clone, Copy)]
pub struct WifiConfig {
    /// PHY band.
    pub band: WifiBand,
    /// Slot time (9 µs in 802.11ac; kept for 802.11af).
    pub slot: Duration,
    /// SIFS.
    pub sifs: Duration,
    /// Minimum contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// Enable RTS/CTS ("we use RTS/CTS as we have observed that it
    /// improves performance", §3.2).
    pub rts_cts: bool,
    /// A-MPDU cap in bytes (65 KB, §6.3.4).
    pub max_ampdu_bytes: usize,
    /// TXOP cap (Table 1: "up to 4 ms").
    pub max_tx_duration: Duration,
    /// Energy-detect carrier-sense threshold.
    pub cs_threshold: Dbm,
    /// Retry limit before an aggregate is dropped.
    pub retry_limit: u32,
    /// Client (station) transmit power for CTS/ACK. The paper's Wi-Fi
    /// RF settings use 30 dBm for both AP and client (§6.3.4).
    pub client_power: Dbm,
    /// When true, an aggregate that exhausts its MAC retries stays queued
    /// (the transport layer retransmits it); when false it is discarded.
    /// Web-workload experiments model TCP and set this.
    pub persistent_retry: bool,
    /// Preamble-capture margin: a reception is lost when any overlapping
    /// interferer arrives within this many dB of the signal, even if the
    /// aggregate SINR would clear the MCS threshold. Real receivers lose
    /// sync when a comparable-power frame lands mid-reception (ns-3, the
    /// paper's simulator, models no capture at all). 0 disables the rule
    /// (pure SINR capture).
    pub capture_margin_db: f64,
}

impl WifiConfig {
    /// The paper's 802.11af setup: 6 MHz, RTS/CTS on, 65 KB A-MPDU.
    pub fn af_default() -> WifiConfig {
        WifiConfig {
            band: WifiBand::Af6,
            slot: Duration::from_micros(9),
            sifs: Duration::from_micros(16),
            cw_min: 15,
            cw_max: 1023,
            rts_cts: true,
            max_ampdu_bytes: 65_535,
            max_tx_duration: Duration::from_millis(4),
            // Preamble-detect sensitivity: a long-range deployment hears
            // preambles close to the noise floor, not the −82 dBm minimum
            // the standard mandates for 20 MHz.
            cs_threshold: Dbm(-92.0),
            retry_limit: 7,
            client_power: Dbm(30.0),
            persistent_retry: false,
            capture_margin_db: 10.0,
        }
    }

    /// DIFS = SIFS + 2 slots.
    pub fn difs_slots(&self) -> u64 {
        // Rounded up to whole slots for the slotted model.
        let difs = self.sifs + self.slot * 2;
        difs.as_micros().div_ceil(self.slot.as_micros())
    }
}

/// Phase of an in-flight exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// RTS in the air; checkpoint at its end decides CTS.
    Rts,
    /// Data in the air; checkpoint at its end decides delivery.
    Data,
}

/// An in-flight frame exchange from one AP to one station.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    ap: usize,
    sta: usize,
    bytes: usize,
    mcs: Mcs,
    phase: Phase,
    /// Slot the current phase's airtime started.
    phase_start: u64,
    /// Slot the current phase's airtime ends (checkpoint).
    phase_end: u64,
    /// Slot the whole exchange will end if successful (for NAV).
    exchange_end: u64,
}

/// Radiated interval kept for SINR evaluation of overlapping receptions.
/// Only APs radiate data-bearing intervals, always at the simulator's AP
/// power.
#[derive(Debug, Clone, Copy)]
struct AirInterval {
    /// Index of the radiating AP.
    ap: usize,
    start: u64,
    end: u64,
}

/// How one AP's carrier sense hears another AP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Hearing {
    /// Propagation delay from the source, in whole slots (floor: a
    /// same-slot arrival still occupies that slot).
    delay: u64,
    /// Whether the source's mean power at AP power reaches the
    /// energy-detect threshold here.
    sensed: bool,
}

/// One AP's fixed view of the topology, computed at construction.
#[derive(Debug, Clone)]
struct ApLinks {
    /// How this AP hears each AP, indexed by the source AP (its own
    /// entry is unused).
    hears_ap: Vec<Hearing>,
    /// Mean power (dBm) this AP's transmission at AP power lands at each
    /// station: the capture signal, the interferer strength, and the
    /// mean-SNR rate ceiling.
    sta_rx_dbm: Vec<f64>,
    /// Whether each station's CTS at client power reaches the
    /// energy-detect threshold here, and so sets this AP's NAV.
    hears_cts: Vec<bool>,
    /// Stations associated with this AP, ascending: the round-robin order.
    stas: Vec<usize>,
}

/// Per-AP MAC state.
#[derive(Debug, Clone)]
struct ApMac {
    backoff: u64,
    cw: u32,
    retries: u32,
    idle_streak: u64,
    nav_until: u64,
    /// Next station index (into this AP's station list) for round-robin.
    rr: usize,
    /// Currently transmitting until this slot (busy lockout).
    busy_until: u64,
    /// Pending retry of a failed aggregate (sta, bytes).
    pending: Option<(usize, usize)>,
}

/// Counters reported by the simulator.
#[derive(Debug, Clone, Default)]
pub struct WifiStats {
    /// Bytes delivered per station.
    pub delivered_bytes: Vec<u64>,
    /// Exchange attempts per AP.
    pub attempts: Vec<u64>,
    /// Failed exchanges (RTS or data lost) per AP.
    pub failures: Vec<u64>,
    /// Aggregates dropped after the retry limit, per AP.
    pub drops: Vec<u64>,
}

/// The DCF simulator.
#[derive(Debug)]
pub struct WifiSimulator {
    env: RadioEnvironment,
    config: WifiConfig,
    table: McsTable,
    aps: Vec<LinkEnd>,
    ap_power: Dbm,
    stas: Vec<LinkEnd>,
    /// Per-AP link tables.
    links: Vec<ApLinks>,
    /// Downlink queue per station, bytes.
    queue: Vec<u64>,
    macs: Vec<ApMac>,
    exchanges: Vec<Exchange>,
    air: Vec<AirInterval>,
    /// Reused interferer list of [`WifiSimulator::window_sinr`].
    interferers: Vec<Transmission>,
    stats: WifiStats,
    slot_now: u64,
    rng: StdRng,
    /// Cached per-station MCS ceiling from mean SNR (`None` = unreachable).
    sta_mcs: Vec<Option<Mcs>>,
    /// Outer-loop rate adaptation: how many MCS steps below the SNR
    /// ceiling each station currently runs (stepped up on loss, back
    /// down after consecutive successes — Minstrel-style).
    mcs_backoff: Vec<u8>,
    /// Consecutive data successes per station (drives step-up).
    success_streak: Vec<u8>,
}

/// Consecutive successes before the rate adapter probes one MCS up.
const RATE_UP_STREAK: u8 = 10;

impl WifiSimulator {
    /// Build a simulator over fixed topology and association.
    pub fn new(
        env: RadioEnvironment,
        config: WifiConfig,
        aps: Vec<LinkEnd>,
        ap_power: Dbm,
        stas: Vec<LinkEnd>,
        assoc: Vec<usize>,
        seed: u64,
    ) -> WifiSimulator {
        assert_eq!(stas.len(), assoc.len(), "one association per station");
        assert!(
            assoc.iter().all(|&a| a < aps.len()),
            "association out of range"
        );
        let table = McsTable::new(config.band);
        let links = Self::link_tables(&env, &config, &aps, ap_power, &stas, &assoc);
        let floor = env.noise.floor(table.bandwidth());
        let sta_mcs: Vec<Option<Mcs>> = assoc
            .iter()
            .enumerate()
            .map(|(sta, &ap)| {
                let snr = Dbm(links[ap].sta_rx_dbm[sta]) - floor;
                table.select(snr).copied()
            })
            .collect();
        let n_ap = aps.len();
        let n_sta = stas.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let macs = (0..n_ap)
            .map(|_| ApMac {
                backoff: u64::from(rng.gen_range(0..=15u32)),
                cw: config.cw_min,
                retries: 0,
                idle_streak: 0,
                nav_until: 0,
                rr: 0,
                busy_until: 0,
                pending: None,
            })
            .collect();
        WifiSimulator {
            env,
            config,
            table,
            aps,
            ap_power,
            stas,
            links,
            queue: vec![0; n_sta],
            macs,
            exchanges: Vec::new(),
            air: Vec::new(),
            interferers: Vec::new(),
            stats: WifiStats {
                delivered_bytes: vec![0; n_sta],
                attempts: vec![0; n_ap],
                failures: vec![0; n_ap],
                drops: vec![0; n_ap],
            },
            slot_now: 0,
            rng,
            sta_mcs,
            mcs_backoff: vec![0; n_sta],
            success_streak: vec![0; n_sta],
        }
    }

    /// Every AP's link tables, from one link budget per AP pair and per
    /// (AP, station) pair: AP→AP at AP power both ways for carrier
    /// sensing, AP→station at AP power, and station→AP at client power
    /// for the CTS.
    fn link_tables(
        env: &RadioEnvironment,
        config: &WifiConfig,
        aps: &[LinkEnd],
        ap_power: Dbm,
        stas: &[LinkEnd],
        assoc: &[usize],
    ) -> Vec<ApLinks> {
        let cs = config.cs_threshold.value();
        let slot_us = config.slot.as_micros() as f64;
        let mut links: Vec<ApLinks> = (0..aps.len())
            .map(|ap| ApLinks {
                hears_ap: vec![Hearing::default(); aps.len()],
                sta_rx_dbm: Vec::with_capacity(stas.len()),
                hears_cts: Vec::with_capacity(stas.len()),
                stas: (0..stas.len()).filter(|&s| assoc[s] == ap).collect(),
            })
            .collect();
        for (a, end_a) in aps.iter().enumerate() {
            for (b, end_b) in aps.iter().enumerate().skip(a + 1) {
                let budget = env.link_budget(end_a, end_b);
                let d = end_a.position.distance(end_b.position).value();
                let us = d / 299.792_458; // metres per µs of light travel
                let delay = (us / slot_us).floor() as u64;
                links[b].hears_ap[a] = Hearing {
                    delay,
                    sensed: budget.a_to_b(ap_power).value() >= cs,
                };
                links[a].hears_ap[b] = Hearing {
                    delay,
                    sensed: budget.b_to_a(ap_power).value() >= cs,
                };
            }
        }
        for (end_ap, row) in aps.iter().zip(&mut links) {
            for end_sta in stas {
                let budget = env.link_budget(end_ap, end_sta);
                row.sta_rx_dbm.push(budget.a_to_b(ap_power).value());
                row.hears_cts
                    .push(budget.b_to_a(config.client_power).value() >= cs);
            }
        }
        links
    }

    /// The MCS the rate adapter currently uses for a station: the mean-SNR
    /// ceiling minus the outer-loop backoff.
    fn current_mcs(&self, sta: usize) -> Option<Mcs> {
        let ceiling = self.sta_mcs[sta]?;
        let idx = ceiling.index.saturating_sub(self.mcs_backoff[sta]);
        Some(self.table.entries()[idx as usize])
    }

    /// Enqueue downlink bytes for a station.
    pub fn enqueue(&mut self, sta: usize, bytes: u64) {
        self.queue[sta] += bytes;
    }

    /// Stats so far.
    pub fn stats(&self) -> &WifiStats {
        &self.stats
    }

    /// Bytes still queued for a station.
    pub fn queued(&self, sta: usize) -> u64 {
        self.queue[sta]
    }

    /// Whether the station can be served at all (mean SNR ≥ MCS 0).
    pub fn reachable(&self, sta: usize) -> bool {
        self.sta_mcs[sta].is_some()
    }

    /// Current simulation time.
    pub fn now(&self) -> Instant {
        Instant::from_micros(self.slot_now * self.config.slot.as_micros())
    }

    fn slots_of(&self, d: Duration) -> u64 {
        d.as_micros().div_ceil(self.config.slot.as_micros()).max(1)
    }

    /// Largest A-MPDU payload that fits the TXOP cap at `mcs` (Table 1:
    /// 802.11af transmissions last at most ~4 ms).
    fn max_bytes_in_txop(&self, mcs: &Mcs) -> usize {
        let usable = self
            .config
            .max_tx_duration
            .saturating_sub(self.table.preamble());
        let symbols = usable.as_micros() / self.table.symbol_duration().as_micros();
        let bits_per_symbol =
            f64::from(self.table.data_subcarriers()) * f64::from(mcs.bits) * mcs.code_rate;
        ((symbols as f64 * bits_per_symbol / 8.0) as usize).max(1)
    }

    /// Energy-detect: is the medium busy at `ap` this slot? An interval
    /// is sensed once its wavefront arrives and until its tail passes.
    fn medium_busy(&self, ap: usize) -> bool {
        let hears = &self.links[ap].hears_ap;
        self.air.iter().any(|iv| {
            let Hearing { delay, sensed } = hears[iv.ap];
            iv.ap != ap && sensed && (iv.start + delay..iv.end + delay).contains(&self.slot_now)
        })
    }

    /// Strongest overlapping interferer's mean rx power (dBm) at a
    /// station for a window, or None when the window is clean.
    fn strongest_interferer_dbm(&self, ap: usize, sta: usize, start: u64, end: u64) -> Option<f64> {
        self.air
            .iter()
            .filter(|iv| iv.ap != ap && iv.start < end && iv.end > start)
            .map(|iv| self.links[iv.ap].sta_rx_dbm[sta])
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.max(p)))
            })
    }

    /// Whether the receiver can hold sync on the frame: no overlapping
    /// interferer within the capture margin of the signal.
    fn window_captured(&self, ap: usize, sta: usize, start: u64, end: u64) -> bool {
        if self.config.capture_margin_db <= 0.0 {
            return true;
        }
        let signal = self.links[ap].sta_rx_dbm[sta];
        match self.strongest_interferer_dbm(ap, sta, start, end) {
            Some(i) => signal - i >= self.config.capture_margin_db,
            None => true,
        }
    }

    /// SINR at a station for a window, against all other radiated
    /// intervals overlapping it.
    fn window_sinr(&mut self, ap: usize, sta: usize, start: u64, end: u64) -> f64 {
        let mut interferers = std::mem::take(&mut self.interferers);
        interferers.clear();
        interferers.extend(
            self.air
                .iter()
                .filter(|iv| iv.ap != ap && iv.start < end && iv.end > start)
                .map(|iv| Transmission {
                    from: self.aps[iv.ap],
                    power: self.ap_power,
                }),
        );
        let serving = Transmission {
            from: self.aps[ap],
            power: self.ap_power,
        };
        // Wi-Fi transmissions span the whole channel: use subchannel 0 of
        // the fading process as the common wideband realization.
        let sinr = self
            .env
            .subchannel_sinr(
                &serving,
                &self.stas[sta],
                &interferers,
                SubchannelId::new(0),
                self.now(),
                self.table.bandwidth(),
            )
            .value();
        self.interferers = interferers;
        sinr
    }

    /// Pick the next backlogged, reachable station of an AP (round-robin).
    fn next_sta(&mut self, ap: usize) -> Option<usize> {
        let mine = &self.links[ap].stas;
        if mine.is_empty() {
            return None;
        }
        let start = self.macs[ap].rr;
        for k in 0..mine.len() {
            let s = mine[(start + k) % mine.len()];
            if self.queue[s] > 0 && self.sta_mcs[s].is_some() {
                self.macs[ap].rr = (start + k + 1) % mine.len();
                return Some(s);
            }
        }
        None
    }

    fn draw_backoff(&mut self, cw: u32) -> u64 {
        u64::from(self.rng.gen_range(0..=cw))
    }

    /// Begin an exchange at the current slot.
    fn start_exchange(&mut self, ap: usize, sta: usize, bytes: usize) {
        let mcs = self.current_mcs(sta).expect("reachable station");
        let data_slots = {
            let d = self
                .table
                .frame_duration(bytes, &mcs)
                .min(self.config.max_tx_duration);
            self.slots_of(d)
        };
        let sifs_slots = self.slots_of(self.config.sifs);
        let ctrl_slots = self.slots_of(self.table.control_duration(20));
        let (phase, phase_end, exchange_end) = if self.config.rts_cts {
            let rts_end = self.slot_now + ctrl_slots;
            let end = rts_end
                + sifs_slots
                + ctrl_slots
                + sifs_slots
                + data_slots
                + sifs_slots
                + ctrl_slots;
            (Phase::Rts, rts_end, end)
        } else {
            let data_end = self.slot_now + data_slots;
            (Phase::Data, data_end, data_end + sifs_slots + ctrl_slots)
        };
        self.stats.attempts[ap] += 1;
        // The AP radiates from now to the end of its data portion.
        self.air.push(AirInterval {
            ap,
            start: self.slot_now,
            end: exchange_end,
        });
        self.macs[ap].busy_until = exchange_end;
        self.exchanges.push(Exchange {
            ap,
            sta,
            bytes,
            mcs,
            phase,
            phase_start: self.slot_now,
            phase_end,
            exchange_end,
        });
    }

    /// Handle a failed exchange: exponential backoff, retry or drop.
    fn fail_exchange(&mut self, ap: usize, sta: usize, bytes: usize) {
        self.stats.failures[ap] += 1;
        let mac = &mut self.macs[ap];
        mac.retries += 1;
        if mac.retries > self.config.retry_limit {
            self.stats.drops[ap] += 1;
            if !self.config.persistent_retry {
                self.queue[sta] = self.queue[sta].saturating_sub(bytes as u64);
            }
            mac.retries = 0;
            mac.cw = self.config.cw_min;
            mac.pending = None;
        } else {
            mac.cw = (mac.cw * 2 + 1).min(self.config.cw_max);
            mac.pending = Some((sta, bytes));
        }
        let cw = self.macs[ap].cw;
        self.macs[ap].backoff = self.draw_backoff(cw);
        self.macs[ap].idle_streak = 0;
    }

    /// Resolve exchange checkpoints due at the current slot, in reverse
    /// index order. Handling one removes at most that exchange, and an RTS
    /// that advances to its data phase moves its checkpoint into the
    /// future, so the walk sees exactly the checkpoints due on entry.
    fn resolve_checkpoints(&mut self) {
        for i in (0..self.exchanges.len()).rev() {
            let e = self.exchanges[i];
            if e.phase_end != self.slot_now {
                continue;
            }
            match e.phase {
                Phase::Rts => {
                    let sinr = self.window_sinr(e.ap, e.sta, e.phase_start, e.phase_end);
                    let base_thr = self.table.entries()[0].sinr_threshold.value();
                    let ok = sinr >= base_thr
                        && self.window_captured(e.ap, e.sta, e.phase_start, e.phase_end);
                    if ok {
                        // CTS: set NAV at every AP that hears the station.
                        for (a, (links, mac)) in self.links.iter().zip(&mut self.macs).enumerate() {
                            if a != e.ap && links.hears_cts[e.sta] {
                                mac.nav_until = mac.nav_until.max(e.exchange_end);
                            }
                        }
                        // Advance to the data phase.
                        let sifs = self.slots_of(self.config.sifs);
                        let ctrl = self.slots_of(self.table.control_duration(20));
                        let data_slots =
                            e.exchange_end - (e.phase_end + sifs + ctrl + sifs) - (sifs + ctrl);
                        let ex = &mut self.exchanges[i];
                        ex.phase = Phase::Data;
                        ex.phase_start = e.phase_end + sifs + ctrl + sifs;
                        ex.phase_end = ex.phase_start + data_slots;
                    } else {
                        // No CTS: abort, free the medium early.
                        self.truncate_air(e.ap, self.slot_now);
                        self.macs[e.ap].busy_until = self.slot_now;
                        self.exchanges.remove(i);
                        self.fail_exchange(e.ap, e.sta, e.bytes);
                    }
                }
                Phase::Data => {
                    let sinr = self.window_sinr(e.ap, e.sta, e.phase_start, e.phase_end);
                    let captured = self.window_captured(e.ap, e.sta, e.phase_start, e.phase_end);
                    self.exchanges.remove(i);
                    if sinr >= e.mcs.sinr_threshold.value() && captured {
                        let drained = (e.bytes as u64).min(self.queue[e.sta]);
                        self.queue[e.sta] -= drained;
                        self.stats.delivered_bytes[e.sta] += drained;
                        // Rate adapter: probe one MCS up after a clean run.
                        self.success_streak[e.sta] = self.success_streak[e.sta].saturating_add(1);
                        if self.success_streak[e.sta] >= RATE_UP_STREAK
                            && self.mcs_backoff[e.sta] > 0
                        {
                            self.mcs_backoff[e.sta] -= 1;
                            self.success_streak[e.sta] = 0;
                        }
                        let mac = &mut self.macs[e.ap];
                        mac.retries = 0;
                        mac.cw = self.config.cw_min;
                        mac.pending = None;
                        let cw = self.macs[e.ap].cw;
                        self.macs[e.ap].backoff = self.draw_backoff(cw);
                        self.macs[e.ap].idle_streak = 0;
                    } else {
                        // Rate adapter: step down towards MCS 0 on loss.
                        self.success_streak[e.sta] = 0;
                        if let Some(ceiling) = self.sta_mcs[e.sta] {
                            if self.mcs_backoff[e.sta] < ceiling.index {
                                self.mcs_backoff[e.sta] += 1;
                            }
                        }
                        self.fail_exchange(e.ap, e.sta, e.bytes);
                    }
                }
            }
        }
    }

    fn truncate_air(&mut self, ap: usize, at: u64) {
        for iv in self.air.iter_mut() {
            if iv.ap == ap && iv.end > at && iv.start <= at {
                iv.end = at;
            }
        }
    }

    /// Drop air intervals that can no longer affect anything.
    fn compact_air(&mut self) {
        // Max propagation delay in this model is well under 64 slots.
        let horizon = self.slot_now.saturating_sub(64);
        self.air.retain(|iv| iv.end >= horizon);
    }

    /// Advance one slot.
    fn step_slot(&mut self) {
        self.slot_now += 1;
        self.resolve_checkpoints();
        let difs = self.config.difs_slots();
        for ap in 0..self.aps.len() {
            if self.macs[ap].busy_until > self.slot_now {
                continue; // transmitting
            }
            if self.macs[ap].nav_until > self.slot_now {
                self.macs[ap].idle_streak = 0;
                continue; // deferring to NAV
            }
            // Anything to send?
            let work = match self.macs[ap].pending {
                Some((sta, bytes)) => Some((sta, bytes)),
                None => self.next_sta(ap).map(|sta| {
                    let mcs = self.current_mcs(sta).expect("next_sta is reachable");
                    let cap = self
                        .config
                        .max_ampdu_bytes
                        .min(self.max_bytes_in_txop(&mcs));
                    let bytes = (self.queue[sta].min(cap as u64)) as usize;
                    (sta, bytes)
                }),
            };
            let Some((sta, bytes)) = work else { continue };
            if bytes == 0 {
                continue;
            }
            if self.macs[ap].pending.is_none() {
                self.macs[ap].pending = Some((sta, bytes));
            }
            if self.medium_busy(ap) {
                self.macs[ap].idle_streak = 0;
                continue;
            }
            self.macs[ap].idle_streak += 1;
            if self.macs[ap].idle_streak <= difs {
                continue; // still in DIFS
            }
            if self.macs[ap].backoff > 0 {
                self.macs[ap].backoff -= 1;
                continue;
            }
            // Backoff expired on an idle slot: transmit.
            let (sta, bytes) = self.macs[ap].pending.take().expect("work staged");
            self.macs[ap].pending = Some((sta, bytes)); // kept until success/drop
            self.start_exchange(ap, sta, bytes);
        }
        if self.slot_now.is_multiple_of(1024) {
            self.compact_air();
        }
    }

    /// Run the simulator until `t`.
    pub fn run_until(&mut self, t: Instant) {
        let target = t.as_micros() / self.config.slot.as_micros();
        while self.slot_now < target {
            self.step_slot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellfi_propagation::antenna::Antenna;
    use cellfi_propagation::fading::BlockFading;
    use cellfi_propagation::noise::NoiseModel;
    use cellfi_propagation::pathloss::PathLossModel;
    use cellfi_propagation::shadowing::Shadowing;
    use cellfi_types::geo::Point;
    use cellfi_types::rng::SeedSeq;
    use cellfi_types::units::{Db, Hertz};

    fn env() -> RadioEnvironment {
        let seeds = SeedSeq::new(21);
        RadioEnvironment {
            pathloss: PathLossModel::tvws_urban(),
            shadowing: Shadowing::disabled(seeds),
            fading: BlockFading::disabled(seeds),
            noise: NoiseModel::typical(),
            frequency: Hertz(700e6),
        }
    }

    fn ap(node: u32, x: f64) -> LinkEnd {
        LinkEnd::new(
            node,
            Point::new(x, 0.0),
            Antenna::Isotropic { gain: Db(6.0) },
        )
    }

    fn sta(node: u32, x: f64, y: f64) -> LinkEnd {
        LinkEnd::new(node, Point::new(x, y), Antenna::client())
    }

    fn single_cell(rts: bool) -> WifiSimulator {
        let cfg = WifiConfig {
            rts_cts: rts,
            ..WifiConfig::af_default()
        };
        WifiSimulator::new(
            env(),
            cfg,
            vec![ap(0, 0.0)],
            Dbm(30.0),
            vec![sta(100, 200.0, 0.0)],
            vec![0],
            1,
        )
    }

    #[test]
    fn lone_link_delivers_all_traffic() {
        let mut sim = single_cell(true);
        sim.enqueue(0, 200_000);
        sim.run_until(Instant::from_millis(500));
        assert_eq!(sim.stats().delivered_bytes[0], 200_000);
        assert_eq!(sim.queued(0), 0);
        assert_eq!(sim.stats().failures[0], 0);
    }

    #[test]
    fn throughput_bounded_by_phy_rate() {
        let mut sim = single_cell(false);
        sim.enqueue(0, 100_000_000);
        sim.run_until(Instant::from_secs(1));
        let bits = sim.stats().delivered_bytes[0] as f64 * 8.0;
        // 6 MHz af peak is ~27 Mbps; MAC overhead must keep goodput below.
        assert!(bits < 27e6, "goodput {bits} above PHY peak");
        assert!(bits > 5e6, "goodput {bits} implausibly low for a lone link");
    }

    #[test]
    fn rts_cts_costs_airtime_on_a_clean_link() {
        let mut with = single_cell(true);
        let mut without = single_cell(false);
        with.enqueue(0, 100_000_000);
        without.enqueue(0, 100_000_000);
        with.run_until(Instant::from_secs(1));
        without.run_until(Instant::from_secs(1));
        assert!(
            without.stats().delivered_bytes[0] > with.stats().delivered_bytes[0],
            "RTS/CTS should cost throughput without contention"
        );
    }

    #[test]
    fn unreachable_station_gets_nothing() {
        let mut sim = WifiSimulator::new(
            env(),
            WifiConfig::af_default(),
            vec![ap(0, 0.0)],
            Dbm(30.0),
            vec![sta(100, 5_000.0, 0.0)], // way past MCS0 range
            vec![0],
            1,
        );
        assert!(!sim.reachable(0));
        sim.enqueue(0, 10_000);
        sim.run_until(Instant::from_millis(200));
        assert_eq!(sim.stats().delivered_bytes[0], 0);
        assert_eq!(sim.stats().attempts[0], 0);
    }

    #[test]
    fn co_located_aps_share_via_carrier_sense() {
        // Two APs in CS range with one client each: both should get
        // roughly half, nobody starves.
        let mut sim = WifiSimulator::new(
            env(),
            WifiConfig::af_default(),
            vec![ap(0, 0.0), ap(1, 300.0)],
            Dbm(30.0),
            vec![sta(100, 50.0, 100.0), sta(101, 250.0, 100.0)],
            vec![0, 1],
            3,
        );
        sim.enqueue(0, 50_000_000);
        sim.enqueue(1, 50_000_000);
        sim.run_until(Instant::from_secs(1));
        let a = sim.stats().delivered_bytes[0] as f64;
        let b = sim.stats().delivered_bytes[1] as f64;
        assert!(a > 0.0 && b > 0.0, "starvation: {a} {b}");
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 3.0, "unfair split {a} vs {b}");
        // And the shared medium halves each AP's throughput vs alone.
        let mut solo = single_cell(true);
        solo.enqueue(0, 50_000_000);
        solo.run_until(Instant::from_secs(1));
        let solo_bytes = solo.stats().delivered_bytes[0] as f64;
        assert!(a < 0.8 * solo_bytes, "no contention visible");
    }

    #[test]
    fn hidden_terminals_collide_without_rts() {
        // Two APs far outside each other's CS range, both serving clients
        // in the middle: without RTS/CTS the middle is a collision zone.
        let cfg = WifiConfig {
            rts_cts: false,
            ..WifiConfig::af_default()
        };
        let mut sim = WifiSimulator::new(
            env(),
            cfg,
            // APs 1.11 km apart: mutual power below carrier sense (CS
            // range ≈ 1.10 km at these powers), so they cannot hear each
            // other. AP0's client at 400 m decodes at MCS 4, but AP1's
            // signal reaches it 8 dB above... enough to kill MCS 4 data
            // while still letting the base-rate RTS through.
            vec![ap(0, 0.0), ap(1, 1_110.0)],
            Dbm(30.0),
            vec![sta(100, 400.0, 0.0), sta(101, 1_210.0, 0.0)],
            vec![0, 1],
            5,
        );
        assert!(sim.reachable(0) && sim.reachable(1));
        sim.enqueue(0, 50_000_000);
        sim.enqueue(1, 50_000_000);
        sim.run_until(Instant::from_secs(1));
        let failures = sim.stats().failures[0];
        let attempts = sim.stats().attempts[0];
        assert!(
            failures as f64 > 0.3 * attempts as f64,
            "expected heavy hidden-terminal losses: {failures}/{attempts}"
        );
    }

    #[test]
    fn rts_cts_mitigates_hidden_terminals() {
        // The textbook NAV win: two mutually hidden APs (1.11 km apart,
        // below carrier sense) serving clients in the contested middle,
        // where each client's SINR under overlap is ~0 dB — below MCS 0,
        // so no rate adaptation can save a collided frame. Both clients'
        // 30 dBm CTSes reach the opposite AP (~565 m), so a successful
        // RTS reserves the air and the data goes out clean.
        let build = |rts: bool, seed: u64| {
            let cfg = WifiConfig {
                rts_cts: rts,
                ..WifiConfig::af_default()
            };
            let mut sim = WifiSimulator::new(
                env(),
                cfg,
                vec![ap(0, 0.0), ap(1, 1_110.0)],
                Dbm(30.0),
                vec![sta(100, 545.0, 30.0), sta(101, 565.0, -30.0)],
                vec![0, 1],
                seed,
            );
            sim.enqueue(0, 20_000_000);
            sim.enqueue(1, 20_000_000);
            sim.run_until(Instant::from_secs(2));
            sim.stats().delivered_bytes.iter().sum::<u64>()
        };
        let total_no = build(false, 23);
        let total_yes = build(true, 23);
        assert!(
            total_yes > 5 * total_no,
            "RTS/CTS should transform mutual starvation: {total_yes} vs {total_no}"
        );
    }

    #[test]
    fn retry_limit_eventually_drops() {
        // A station reachable at mean SNR but permanently jammed by a
        // co-channel transmitter that ignores CSMA (modelled by a second
        // AP pair far enough to be hidden): drops must occur.
        let cfg = WifiConfig {
            rts_cts: false,
            retry_limit: 3,
            ..WifiConfig::af_default()
        };
        let mut sim = WifiSimulator::new(
            env(),
            cfg,
            vec![ap(0, 0.0), ap(1, 1_110.0)],
            Dbm(30.0),
            vec![sta(100, 400.0, 0.0), sta(101, 1_210.0, 0.0)],
            vec![0, 1],
            11,
        );
        sim.enqueue(0, 5_000_000);
        sim.enqueue(1, 5_000_000);
        sim.run_until(Instant::from_secs(2));
        let drops: u64 = sim.stats().drops.iter().sum();
        assert!(drops > 0, "retry limit never hit");
    }

    #[test]
    fn capture_margin_blocks_comparable_power_overlap() {
        // Victim's signal is ~6 dB above the interferer: SINR clears
        // MCS 0 but the 10 dB capture margin does not — the receiver
        // cannot hold sync, so the victim starves (the ns-3-like
        // no-capture behaviour the paper's Fig 9 Wi-Fi numbers reflect).
        let cfg = WifiConfig {
            rts_cts: false,
            ..WifiConfig::af_default()
        };
        let mut sim = WifiSimulator::new(
            env(),
            cfg,
            vec![ap(0, 0.0), ap(1, 1_110.0)],
            Dbm(30.0),
            vec![sta(100, 400.0, 0.0), sta(101, 1_210.0, 0.0)],
            vec![0, 1],
            21,
        );
        sim.enqueue(0, 10_000_000);
        sim.enqueue(1, 10_000_000);
        sim.run_until(Instant::from_secs(1));
        // sta 100 fails whenever AP1 overlaps; with AP1's high duty cycle
        // it gets through only in AP1's contention gaps.
        let near = sim.stats().delivered_bytes[1];
        let victim = sim.stats().delivered_bytes[0];
        assert!(near > 0);
        assert!(
            (victim as f64) < 0.25 * near as f64,
            "capture margin should suppress the victim: {victim} vs {near}"
        );
    }

    #[test]
    fn zero_margin_restores_pure_sinr_capture() {
        let build = |margin: f64| {
            let cfg = WifiConfig {
                rts_cts: false,
                capture_margin_db: margin,
                ..WifiConfig::af_default()
            };
            let mut sim = WifiSimulator::new(
                env(),
                cfg,
                vec![ap(0, 0.0), ap(1, 1_110.0)],
                Dbm(30.0),
                vec![sta(100, 200.0, 0.0), sta(101, 1_210.0, 0.0)],
                vec![0, 1],
                23,
            );
            sim.enqueue(0, 20_000_000);
            sim.enqueue(1, 20_000_000);
            sim.run_until(Instant::from_secs(1));
            sim.stats().delivered_bytes[0]
        };
        // At 200 m the victim's SINR under interference is high; only the
        // capture rule can hurt it, and 200 m leaves > 10 dB of margin, so
        // both configurations deliver similarly.
        let with = build(10.0);
        let without = build(0.0);
        assert!(with > 0 && without > 0);
        let ratio = with as f64 / without as f64;
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio}");
    }

    /// Stations per AP in [`asymmetric_drop`]: station `s` is AP
    /// `s / STAS_PER_AP`'s.
    const STAS_PER_AP: usize = 4;

    /// A drop that breaks the paper drop's symmetries: sector APs with
    /// distinct boresights (so each AP pair's two directions add their
    /// gains in different orders) and clients at 20 dBm against 30 dBm
    /// APs (so a CTS is not the AP's own signal reversed). Shadowing and
    /// fading are on.
    fn asymmetric_drop(config: WifiConfig) -> WifiSimulator {
        let seeds = SeedSeq::new(77);
        let env = RadioEnvironment {
            shadowing: Shadowing::new(seeds.child("shadow"), 6.0),
            fading: BlockFading::pedestrian(seeds.child("fading")),
            ..env()
        };
        let mut rng = seeds.rng("drop");
        let aps: Vec<LinkEnd> = (0..8)
            .map(|i| {
                let p = Point::new(rng.gen_range(0.0..2_500.0), rng.gen_range(0.0..2_500.0));
                let boresight = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
                LinkEnd::new(i, p, Antenna::paper_sector(boresight))
            })
            .collect();
        let mut stas = Vec::new();
        let mut assoc = Vec::new();
        for (a, end) in aps.iter().enumerate() {
            for _ in 0..STAS_PER_AP {
                let r = rng.gen_range(50.0..700.0);
                let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                let p = end.position.offset(theta, cellfi_types::units::Meters(r));
                stas.push(LinkEnd::new(100 + stas.len() as u32, p, Antenna::client()));
                assoc.push(a);
            }
        }
        let config = WifiConfig {
            client_power: Dbm(20.0),
            ..config
        };
        WifiSimulator::new(env, config, aps, Dbm(30.0), stas, assoc, 9)
    }

    /// Every link table entry equals the slot loop's former on-the-fly
    /// value bit for bit: `mean_rx_power` and the propagation-delay
    /// formula, in the right direction for every ordered pair.
    #[test]
    fn link_tables_equal_mean_rx_power_bit_for_bit() {
        // Put the carrier-sense threshold exactly on one direction of an
        // AP pair whose two directions round apart, so that the pair is
        // sensed one way only and a transposed AP table cannot pass.
        let probe = asymmetric_drop(WifiConfig::af_default());
        let (env, aps, p) = (probe.env, &probe.aps, probe.ap_power);
        let threshold = (0..aps.len())
            .flat_map(|a| (0..aps.len()).map(move |b| (a, b)))
            .map(|(a, b)| {
                let ab = env.mean_rx_power(&aps[a], p, &aps[b]);
                let ba = env.mean_rx_power(&aps[b], p, &aps[a]);
                (ab, ba)
            })
            .find(|(ab, ba)| ab.value().to_bits() != ba.value().to_bits())
            .map(|(ab, ba)| Dbm(ab.value().max(ba.value())))
            .expect("the sector drop has an AP pair whose two directions round apart");
        let sim = asymmetric_drop(WifiConfig {
            cs_threshold: threshold,
            ..WifiConfig::af_default()
        });
        let (env, cfg) = (sim.env, sim.config);
        let cs = cfg.cs_threshold.value();
        let mut one_way = 0;
        for (dst, links) in sim.links.iter().enumerate() {
            for (src, hearing) in links.hears_ap.iter().enumerate() {
                if src == dst {
                    continue;
                }
                let (a, b) = (&sim.aps[src], &sim.aps[dst]);
                let us = a.position.distance(b.position).value() / 299.792_458;
                let delay = (us / cfg.slot.as_micros() as f64).floor() as u64;
                let sensed = env.mean_rx_power(a, sim.ap_power, b).value() >= cs;
                assert_eq!(*hearing, Hearing { delay, sensed }, "AP {src} → AP {dst}");
                one_way += usize::from(sensed != sim.links[src].hears_ap[dst].sensed);
            }
            for (s, sta) in sim.stas.iter().enumerate() {
                let rx = env.mean_rx_power(&sim.aps[dst], sim.ap_power, sta).value();
                assert_eq!(
                    links.sta_rx_dbm[s].to_bits(),
                    rx.to_bits(),
                    "AP {dst} → sta {s}"
                );
                let cts = env
                    .mean_rx_power(sta, cfg.client_power, &sim.aps[dst])
                    .value();
                assert_eq!(links.hears_cts[s], cts >= cs, "sta {s} CTS → AP {dst}");
            }
            let mine: Vec<usize> = (dst * STAS_PER_AP..(dst + 1) * STAS_PER_AP).collect();
            assert_eq!(links.stas, mine, "AP {dst} stations ascend");
        }
        assert_eq!(one_way, 2, "the threshold splits exactly one AP pair");
        // Some station's CTS verdict must differ between client and AP
        // power, or a CTS table built at AP power could pass.
        let split = (0..sim.aps.len()).any(|a| {
            (0..sim.stas.len()).any(|s| {
                let at = |power| env.mean_rx_power(&sim.stas[s], power, &sim.aps[a]).value() >= cs;
                at(sim.ap_power) != at(cfg.client_power)
            })
        });
        assert!(split, "client power must change some CTS verdict");
        let bw = sim.table.bandwidth();
        for (s, sta) in sim.stas.iter().enumerate() {
            let snr = env.mean_snr(&sim.aps[s / STAS_PER_AP], sim.ap_power, sta, bw);
            assert_eq!(sim.sta_mcs[s], sim.table.select(snr).copied(), "sta {s}");
        }
    }

    /// A multi-second RTS/CTS run over the asymmetric drop reproduces
    /// the counters of the simulator that recomputed every link budget
    /// in the slot loop.
    #[test]
    fn asymmetric_drop_stats_are_pinned() {
        let mut sim = asymmetric_drop(WifiConfig::af_default());
        for s in 0..sim.stas.len() {
            sim.enqueue(s, 4_000_000);
        }
        sim.run_until(Instant::from_secs(2));
        let st = sim.stats();
        #[rustfmt::skip]
        let delivered = [
            50_182, 0, 0, 0, 875_769, 0, 480_969, 552_097,
            156_330, 157_304, 137_997, 248_045, 0, 222_940, 548_237, 632_223,
            2_895, 0, 0, 8_687, 399_541, 0, 0, 2_253_537,
            0, 0, 4_825, 8_685, 55_970, 0, 165_047, 305_975,
        ];
        assert_eq!(st.delivered_bytes, delivered);
        assert_eq!(st.attempts, [916, 386, 411, 246, 43, 397, 97, 157]);
        assert_eq!(st.failures, [884, 46, 108, 28, 41, 46, 85, 33]);
        assert_eq!(st.drops, [109, 0, 5, 0, 4, 3, 8, 0]);
    }

    #[test]
    fn difs_slots_computation() {
        let cfg = WifiConfig::af_default();
        // SIFS 16 µs + 2×9 µs = 34 µs → 4 slots of 9 µs.
        assert_eq!(cfg.difs_slots(), 4);
    }
}
