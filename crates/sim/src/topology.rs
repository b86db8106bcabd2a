//! Scenario generation.
//!
//! The paper's large-scale setting (§6.3.4): "We simulate an area of
//! 2 km × 2 km, with a varying network density as controlled by the
//! number of simulated APs. Base stations are randomly placed in this
//! area with varying number of clients per AP." Client transmit power is
//! 20 dBm (TVWS cap); AP power 30 dBm; propagation is the calibrated
//! urban model. Every scenario is reproducible from its seed, and the
//! same scenario drives the CellFi, plain-LTE, Wi-Fi and oracle runs so
//! comparisons are paired.

use crate::spatial::UniformGrid;
use cellfi_propagation::antenna::Antenna;
use cellfi_propagation::fading::BlockFading;
use cellfi_propagation::link::LinkEnd;
use cellfi_propagation::noise::NoiseModel;
use cellfi_propagation::pathloss::PathLossModel;
use cellfi_propagation::shadowing::Shadowing;
use cellfi_propagation::RadioEnvironment;
use cellfi_types::geo::Point;
use cellfi_types::rng::SeedSeq;
use cellfi_types::units::{Db, Dbm, Hertz};
use rand::Rng;
use std::ops::Range;

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Area side length (m); the paper uses 2000.
    pub area: f64,
    /// Number of access points.
    pub n_aps: usize,
    /// Clients per AP.
    pub clients_per_ap: usize,
    /// Maximum client distance from its AP. The paper drops clients
    /// "within the corresponding range of each access point" — TVWS
    /// coverage promises "1 km and above" (§2), so the default radius is
    /// 1 km for both technologies.
    pub cell_radius: f64,
    /// AP transmit power (conducted; paper: 30 dBm).
    pub ap_power: Dbm,
    /// Client transmit power (TVWS cap: 20 dBm).
    pub ue_power: Dbm,
    /// Log-normal shadowing σ (dB); 0 disables.
    pub shadowing_sigma: f64,
    /// Enable per-subchannel Rayleigh block fading.
    pub fading: bool,
    /// Received-power culling floor (dBm). `None` — the default — keeps
    /// the interference model dense: every AP is a candidate for every
    /// UE and existing results stay byte-identical. `Some(floor)` culls
    /// links whose best-case mean received power (TX power + antenna
    /// gains + shadowing/fading headroom) cannot reach `floor`; the
    /// neighbor tables then carry only near-field candidates, which is
    /// what makes metro-scale (10k cells / 1M UEs) tractable.
    pub cull_floor_dbm: Option<f64>,
}

impl ScenarioConfig {
    /// The paper's default large-scale settings.
    pub fn paper_default(n_aps: usize, clients_per_ap: usize) -> ScenarioConfig {
        ScenarioConfig {
            area: 2_000.0,
            n_aps,
            clients_per_ap,
            cell_radius: 1_000.0,
            ap_power: Dbm(30.0),
            ue_power: Dbm(20.0),
            shadowing_sigma: 4.0,
            fading: true,
            cull_floor_dbm: None,
        }
    }
}

/// Compact neighbor tables built from the spatial index: per-UE
/// candidate-AP lists, per-AP interferer sets, the transpose listener
/// lists, and the per-AP client partition — everything the engine needs
/// to replace all-pairs loops with near-field iteration.
///
/// All four tables are CSR-packed (`offsets` + flat payload) and every
/// row ascends, so iteration order — and therefore every float
/// accumulation order downstream — matches the dense engine's ascending
/// AP/UE loops exactly. With no cull radius the tables are the dense
/// sets and the engine's arithmetic is byte-identical to the
/// pre-spatial-index code.
///
/// Until an engine takes it, a table remembers the placement it was
/// built from, so [`Scenario::index_is_fresh`] can tell exactly whether
/// a scenario was hand-edited since.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeighborTable {
    /// The cull radius (m) the tables were built with; `None` = dense.
    pub cull_radius_m: Option<f64>,
    /// Maximum candidate-AP row length over all UEs. A statistic of the
    /// cull (reported by fig9metro and the benchmark); it sizes nothing,
    /// since per-link arrays are laid out by [`NeighborTable::links`].
    pub max_neighbors: usize,
    /// CSR boundaries for `ue_aps`, `n_ues + 1` entries.
    ue_offsets: Vec<u32>,
    /// Per-UE candidate AP ids, ascending; always includes the serving
    /// AP.
    ue_aps: Vec<u32>,
    /// CSR boundaries for `ap_aps`, `n_aps + 1` entries.
    ap_offsets: Vec<u32>,
    /// Per-AP interferer AP ids, ascending, self excluded.
    ap_aps: Vec<u32>,
    /// CSR boundaries for the listener arrays, `n_aps + 1` entries.
    listener_offsets: Vec<u32>,
    /// Transpose of `ue_aps`: for AP `a`, the UEs that carry `a` in
    /// their candidate row, ascending by UE.
    listener_ues: Vec<u32>,
    /// Parallel to `listener_ues`: the neighbor slot `a` occupies in
    /// that UE's candidate row.
    listener_slots: Vec<u32>,
    /// CSR boundaries for `clients`, `n_aps + 1` entries.
    clients_offsets: Vec<u32>,
    /// Per-AP attached clients (ascending UE index).
    clients: Vec<u32>,
    /// The AP positions, then the UE positions, a culled table was
    /// built from; empty once an engine took the table. Empty for a
    /// dense table too: its rows depend on the node counts and `assoc`
    /// alone, and `clients` records `assoc`.
    placed: Vec<Point>,
}

/// Best-case link-budget headroom (dB) above the mean path-loss curve:
/// peak antenna gains at both ends plus shadowing (3σ) and, when block
/// fading is on, a fading allowance. The cull radius derived from it is
/// deliberately a *superset* bound — a culled link could not have
/// reached the floor even with every favourable term stacked.
fn cull_headroom_db(config: &ScenarioConfig) -> f64 {
    let antenna = 14.0;
    let shadow = 3.0 * config.shadowing_sigma.max(0.0);
    let fade = if config.fading { 12.0 } else { 0.0 };
    antenna + shadow + fade
}

/// The culling radius (m) for `config`, or `None` when the floor is off.
/// A floor so high that even the reference distance cannot reach it
/// degenerates to radius 0 (only the serving AP survives the cull).
fn cull_radius(config: &ScenarioConfig, env: &RadioEnvironment) -> Option<f64> {
    let floor = config.cull_floor_dbm?;
    let target = config.ap_power.value() + cull_headroom_db(config) - floor;
    Some(
        env.pathloss
            .range_for_loss(env.frequency, Db(target))
            .map(|m| m.value())
            .unwrap_or(0.0),
    )
}

impl NeighborTable {
    /// Build the tables for one scenario. Deterministic: the spatial
    /// index answers radius queries exactly equal to brute-force
    /// distance filtering, sorted ascending.
    pub fn build(
        config: &ScenarioConfig,
        aps: &[LinkEnd],
        ues: &[LinkEnd],
        assoc: &[usize],
        env: &RadioEnvironment,
    ) -> NeighborTable {
        let n_ap = aps.len();
        let n_ue = ues.len();
        let radius = cull_radius(config, env);
        let mut ue_offsets = Vec::with_capacity(n_ue + 1);
        let mut ue_aps: Vec<u32>;
        let mut ap_offsets = Vec::with_capacity(n_ap + 1);
        let mut ap_aps: Vec<u32>;
        let mut placed = Vec::new();
        ue_offsets.push(0);
        ap_offsets.push(0);
        match radius {
            None => {
                // Dense: every AP is a candidate of every UE and an
                // interferer of every other AP, ascending.
                ue_aps = Vec::with_capacity(n_ue * n_ap);
                for _ in 0..n_ue {
                    ue_aps.extend(0..n_ap as u32);
                    ue_offsets.push(ue_aps.len() as u32);
                }
                ap_aps = Vec::with_capacity(n_ap.saturating_sub(1) * n_ap);
                for a in 0..n_ap as u32 {
                    ap_aps.extend((0..n_ap as u32).filter(|&b| b != a));
                    ap_offsets.push(ap_aps.len() as u32);
                }
            }
            Some(r) => {
                placed.extend(aps.iter().chain(ues).map(|n| n.position));
                let grid = UniformGrid::build(&placed[..n_ap], r.max(1.0));
                let mut buf = Vec::new();
                ue_aps = Vec::new();
                for (u, ue) in ues.iter().enumerate() {
                    grid.within_into(ue.position, r, &mut buf);
                    // The serving AP is never culled, wherever it is.
                    let serving = assoc[u] as u32;
                    if let Err(pos) = buf.binary_search(&serving) {
                        buf.insert(pos, serving);
                    }
                    ue_aps.extend_from_slice(&buf);
                    ue_offsets.push(ue_aps.len() as u32);
                }
                ap_aps = Vec::new();
                for (a, ap) in aps.iter().enumerate() {
                    grid.within_into(ap.position, r, &mut buf);
                    buf.retain(|&b| b != a as u32);
                    ap_aps.extend_from_slice(&buf);
                    ap_offsets.push(ap_aps.len() as u32);
                }
            }
        }
        let max_neighbors = (0..n_ue)
            .map(|u| (ue_offsets[u + 1] - ue_offsets[u]) as usize)
            .max()
            .unwrap_or(0);
        // Transpose candidates into per-AP (ue, slot) listener lists via
        // a stable counting sort — ascending UE within each AP.
        let mut counts = vec![0u32; n_ap + 1];
        for &a in &ue_aps {
            counts[a as usize + 1] += 1;
        }
        for a in 1..counts.len() {
            counts[a] += counts[a - 1];
        }
        let listener_offsets = counts.clone();
        let mut cursor = counts;
        let mut listener_ues = vec![0u32; ue_aps.len()];
        let mut listener_slots = vec![0u32; ue_aps.len()];
        for u in 0..n_ue {
            let lo = ue_offsets[u] as usize;
            let hi = ue_offsets[u + 1] as usize;
            for (slot, &a) in ue_aps[lo..hi].iter().enumerate() {
                let at = cursor[a as usize] as usize;
                listener_ues[at] = u as u32;
                listener_slots[at] = slot as u32;
                cursor[a as usize] += 1;
            }
        }
        // Per-AP client partition (the `clients` CSR), same sort.
        let mut counts = vec![0u32; n_ap + 1];
        for &a in assoc {
            counts[a + 1] += 1;
        }
        for a in 1..counts.len() {
            counts[a] += counts[a - 1];
        }
        let clients_offsets = counts.clone();
        let mut cursor = counts;
        let mut clients = vec![0u32; assoc.len()];
        for (u, &a) in assoc.iter().enumerate() {
            clients[cursor[a] as usize] = u as u32;
            cursor[a] += 1;
        }
        NeighborTable {
            cull_radius_m: radius,
            max_neighbors,
            ue_offsets,
            ue_aps,
            ap_offsets,
            ap_aps,
            listener_offsets,
            listener_ues,
            listener_slots,
            clients_offsets,
            clients,
            placed,
        }
    }

    /// Drop the record of the placement the table was built from. An
    /// engine does so when it takes the table: it owns the placement
    /// from then on (`move_ue`, handovers) and checks re-derived rows
    /// against the laid-out ones instead, so the record would only hold
    /// memory (16 bytes a node, 1.6 MB at metro scale). A culled table
    /// without it is never fresh.
    pub(crate) fn forget_placement(&mut self) {
        self.placed = Vec::new();
    }

    /// UE `u`'s link ids. A link is one (UE, candidate AP) pair, and its
    /// id is its position in the CSR candidate payload: link
    /// `links(u).start + sl` pairs `u` with `candidates(u)[sl]`. Every
    /// per-link array of the engine is indexed by it, so one UE's links
    /// are one contiguous run and memory scales with [`Self::n_links`].
    #[inline]
    pub fn links(&self, u: usize) -> Range<usize> {
        self.ue_offsets[u] as usize..self.ue_offsets[u + 1] as usize
    }

    /// Total number of (UE, candidate AP) links.
    #[inline]
    pub fn n_links(&self) -> usize {
        self.ue_aps.len()
    }

    /// UE `u`'s candidate AP ids, ascending (serving always present).
    #[inline]
    pub fn candidates(&self, u: usize) -> &[u32] {
        &self.ue_aps[self.links(u)]
    }

    /// The slot AP `ap` occupies in UE `u`'s candidate row, or `None`
    /// when the row does not carry it: the one reverse mapping from a
    /// global AP id to a neighbor slot (binary search over the
    /// ascending row).
    #[inline]
    pub fn slot(&self, u: usize, ap: usize) -> Option<usize> {
        self.candidates(u).binary_search(&(ap as u32)).ok()
    }

    /// AP `a`'s interferer link ids: positions in the CSR interferer
    /// payload, as [`Self::links`] is for UEs. Link
    /// `interferer_links(a).start + sl` pairs `a` with
    /// `interferers(a)[sl]`.
    #[inline]
    pub fn interferer_links(&self, a: usize) -> Range<usize> {
        self.ap_offsets[a] as usize..self.ap_offsets[a + 1] as usize
    }

    /// Total number of (AP, interferer AP) links.
    #[inline]
    pub fn n_interferer_links(&self) -> usize {
        self.ap_aps.len()
    }

    /// AP `a`'s interferer AP ids, ascending, self excluded.
    #[inline]
    pub fn interferers(&self, a: usize) -> &[u32] {
        &self.ap_aps[self.interferer_links(a)]
    }

    /// Whether `other` has the same candidate and interferer rows (ids
    /// and offsets), i.e. the same link ids: arrays laid out behind one
    /// table stay valid under the other.
    pub(crate) fn same_links(&self, other: &NeighborTable) -> bool {
        self.ue_offsets == other.ue_offsets
            && self.ue_aps == other.ue_aps
            && self.ap_offsets == other.ap_offsets
            && self.ap_aps == other.ap_aps
    }

    /// The UEs that can hear AP `a` (i.e. carry it as a candidate),
    /// ascending, paired with the neighbor slot `a` occupies in each
    /// UE's row.
    #[inline]
    pub fn listeners(&self, a: usize) -> (&[u32], &[u32]) {
        let lo = self.listener_offsets[a] as usize;
        let hi = self.listener_offsets[a + 1] as usize;
        (&self.listener_ues[lo..hi], &self.listener_slots[lo..hi])
    }

    /// AP `a`'s attached clients, ascending.
    #[inline]
    pub fn clients(&self, a: usize) -> &[u32] {
        let lo = self.clients_offsets[a] as usize;
        let hi = self.clients_offsets[a + 1] as usize;
        &self.clients[lo..hi]
    }
}

/// A generated scenario: node placement plus the radio environment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Configuration it was drawn from.
    pub config: ScenarioConfig,
    /// Access-point terminals (node keys `0..n_aps`).
    pub aps: Vec<LinkEnd>,
    /// Client terminals (node keys `max(UE_NODE_BASE, n_aps) + i`).
    pub ues: Vec<LinkEnd>,
    /// Client → serving AP index (the AP it was dropped around).
    pub assoc: Vec<usize>,
    /// The shared propagation environment.
    pub env: RadioEnvironment,
    /// Spatial-index neighbor tables, built at generation time. After
    /// hand-editing `aps`/`ues`/`assoc`, call [`Scenario::rebuild_index`]
    /// before reading them; the engine rebuilds them at construction
    /// only when [`Scenario::index_is_fresh`] says the placement
    /// changed.
    pub nbr: NeighborTable,
}

/// Node-key offset for clients (AP keys start at 0). A drop with more
/// APs than this starts its client keys at `n_aps` instead, so no client
/// shares a key (and with it shadowing and fading draws) with an AP.
pub const UE_NODE_BASE: u32 = 1_000;

impl Scenario {
    /// Generate a scenario deterministically from `seeds`.
    pub fn generate(config: ScenarioConfig, seeds: SeedSeq) -> Scenario {
        let mut rng = seeds.rng("topology");
        let mut aps = Vec::with_capacity(config.n_aps);
        for i in 0..config.n_aps {
            let p = Point::new(
                rng.gen_range(0.0..config.area),
                rng.gen_range(0.0..config.area),
            );
            aps.push(LinkEnd::new(
                i as u32,
                p,
                Antenna::Isotropic { gain: Db(6.0) },
            ));
        }
        // Stream client drops straight into flat preallocated arrays —
        // no intermediate per-node collections, so peak memory at 1M
        // UEs is the final arrays themselves.
        let n_clients = config.n_aps * config.clients_per_ap;
        let ue_base = UE_NODE_BASE.max(config.n_aps as u32);
        let mut ues = Vec::with_capacity(n_clients);
        let mut assoc = Vec::with_capacity(n_clients);
        for (ap_idx, ap) in aps.iter().enumerate() {
            for _ in 0..config.clients_per_ap {
                // Uniform over the disc (sqrt radius), clipped to the area.
                let p = loop {
                    let r = config.cell_radius * rng.gen::<f64>().sqrt();
                    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                    let p = ap.position.offset(theta, cellfi_types::units::Meters(r));
                    if p.within(config.area, config.area) {
                        break p;
                    }
                };
                ues.push(LinkEnd::new(
                    ue_base + ues.len() as u32,
                    p,
                    Antenna::client(),
                ));
                assoc.push(ap_idx);
            }
        }
        let env = RadioEnvironment {
            pathloss: PathLossModel::tvws_urban(),
            shadowing: if config.shadowing_sigma > 0.0 {
                Shadowing::new(seeds.child("shadow"), config.shadowing_sigma)
            } else {
                Shadowing::disabled(seeds.child("shadow"))
            },
            fading: if config.fading {
                BlockFading::pedestrian(seeds.child("fading"))
            } else {
                BlockFading::disabled(seeds.child("fading"))
            },
            noise: NoiseModel::typical(),
            frequency: Hertz(700e6),
        };
        let nbr = NeighborTable::build(&config, &aps, &ues, &assoc, &env);
        Scenario {
            config,
            aps,
            ues,
            assoc,
            env,
            nbr,
        }
    }

    /// Two cells on a line with one client between them — the Fig 7
    /// outdoor interference layout (serving cell, interfering cell, and a
    /// client walked along a path).
    pub fn two_cell_interference(separation: f64, seeds: SeedSeq) -> Scenario {
        let config = ScenarioConfig {
            area: separation + 1_000.0,
            n_aps: 2,
            clients_per_ap: 0,
            cell_radius: 500.0,
            ap_power: Dbm(23.0), // the E40's power in the testbed
            ue_power: Dbm(20.0),
            shadowing_sigma: 0.0,
            fading: false,
            cull_floor_dbm: None,
        };
        let aps = vec![
            LinkEnd::new(0, Point::new(0.0, 0.0), Antenna::paper_sector(0.0)),
            LinkEnd::new(
                1,
                Point::new(separation, 0.0),
                Antenna::paper_sector(std::f64::consts::PI),
            ),
        ];
        let env = RadioEnvironment {
            pathloss: PathLossModel::tvws_urban(),
            shadowing: Shadowing::disabled(seeds.child("shadow")),
            fading: BlockFading::disabled(seeds.child("fading")),
            noise: NoiseModel::typical(),
            frequency: Hertz(700e6),
        };
        let nbr = NeighborTable::build(&config, &aps, &[], &[], &env);
        Scenario {
            config,
            aps,
            ues: Vec::new(),
            assoc: Vec::new(),
            env,
            nbr,
        }
    }

    /// Rebuild the neighbor tables from the current placement. Call
    /// after hand-editing `aps`/`ues`/`assoc`. It always rebuilds: an
    /// engine asks [`Scenario::index_is_fresh`] first.
    pub fn rebuild_index(&mut self) {
        self.nbr = NeighborTable::build(&self.config, &self.aps, &self.ues, &self.assoc, &self.env);
    }

    /// Whether `nbr` is exactly what [`Scenario::rebuild_index`] would
    /// build from the current placement: the configuration's cull
    /// radius, the node counts and `assoc` as the table was built, and,
    /// for a culled table, every AP and UE position where it was. Any
    /// hand edit of those makes it false, even one that would leave
    /// every row as it is, and so does an engine's taking the table
    /// (it drops the culled table's record of the placement).
    pub fn index_is_fresh(&self) -> bool {
        let nbr = &self.nbr;
        let radius = cull_radius(&self.config, &self.env);
        if radius.map(f64::to_bits) != nbr.cull_radius_m.map(f64::to_bits)
            || nbr.ap_offsets.len() != self.aps.len() + 1
            || nbr.ue_offsets.len() != self.ues.len() + 1
            || nbr.clients.len() != self.assoc.len()
        {
            return false;
        }
        // `clients` lists every UE exactly once, so it matches `assoc`
        // only if every UE sits under its own AP.
        let same_assoc = (0..self.aps.len())
            .all(|a| nbr.clients(a).iter().all(|&u| self.assoc[u as usize] == a));
        let positions = self.aps.iter().chain(&self.ues).map(|n| n.position);
        same_assoc && (radius.is_none() || positions.eq(nbr.placed.iter().copied()))
    }

    /// Total number of clients.
    pub fn n_ues(&self) -> usize {
        self.ues.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(seed: u64) -> Scenario {
        Scenario::generate(ScenarioConfig::paper_default(6, 4), SeedSeq::new(seed))
    }

    #[test]
    fn generates_requested_counts() {
        let s = scenario(1);
        assert_eq!(s.aps.len(), 6);
        assert_eq!(s.n_ues(), 24);
        assert_eq!(s.assoc.len(), 24);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = scenario(7);
        let b = scenario(7);
        assert_eq!(a.aps[3].position, b.aps[3].position);
        assert_eq!(a.ues[10].position, b.ues[10].position);
    }

    #[test]
    fn different_seeds_differ() {
        let a = scenario(1);
        let b = scenario(2);
        assert_ne!(a.aps[0].position, b.aps[0].position);
    }

    #[test]
    fn everything_inside_area() {
        let s = scenario(3);
        for n in s.aps.iter().chain(s.ues.iter()) {
            assert!(n.position.within(2_000.0, 2_000.0), "{}", n.position);
        }
    }

    #[test]
    fn clients_within_cell_radius() {
        let s = scenario(4);
        for (u, ue) in s.ues.iter().enumerate() {
            let ap = &s.aps[s.assoc[u]];
            let d = ap.position.distance(ue.position).value();
            assert!(d <= 1_000.0 + 1e-9, "client {u} at {d} m");
        }
    }

    #[test]
    fn node_keys_unique() {
        // Past UE_NODE_BASE APs, client keys must start above the AP keys.
        let mut big = ScenarioConfig::paper_default(1_001, 1);
        big.cull_floor_dbm = Some(-60.0);
        for s in [scenario(5), Scenario::generate(big, SeedSeq::new(5))] {
            let mut keys: Vec<u32> = s.aps.iter().chain(s.ues.iter()).map(|e| e.node).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), s.aps.len() + s.ues.len());
        }
    }

    #[test]
    fn clients_of_partitions_everyone() {
        let s = scenario(6);
        let total: usize = (0..s.aps.len()).map(|a| s.nbr.clients(a).len()).sum();
        assert_eq!(total, s.n_ues());
        assert_eq!(s.nbr.clients(0).len(), 4);
    }

    #[test]
    fn dense_tables_cover_all_pairs() {
        let s = scenario(8);
        assert!(s.nbr.cull_radius_m.is_none());
        assert_eq!(s.nbr.max_neighbors, s.aps.len());
        let all: Vec<u32> = (0..s.aps.len() as u32).collect();
        for u in 0..s.n_ues() {
            assert_eq!(s.nbr.candidates(u), &all[..]);
        }
        for a in 0..s.aps.len() {
            let others: Vec<u32> = all.iter().copied().filter(|&b| b != a as u32).collect();
            assert_eq!(s.nbr.interferers(a), &others[..]);
            let (ues, slots) = s.nbr.listeners(a);
            assert_eq!(ues.len(), s.n_ues(), "dense: every UE hears every AP");
            // Dense rows are 0..n_ap, so AP a sits at slot a everywhere.
            assert!(slots.iter().all(|&sl| sl == a as u32));
        }
    }

    #[test]
    fn culled_tables_match_brute_force_and_keep_serving() {
        let mut config = ScenarioConfig::paper_default(12, 3);
        config.cull_floor_dbm = Some(-70.0);
        let s = Scenario::generate(config, SeedSeq::new(21));
        let r = s.nbr.cull_radius_m.expect("floor set implies a radius");
        // Link ids tile each CSR payload in row order: a row's range is
        // as long as the row and starts where the previous one ended.
        let mut next_link = 0;
        for u in 0..s.n_ues() {
            let links = s.nbr.links(u);
            assert_eq!(links.start, next_link, "ue {u}");
            assert_eq!(links.len(), s.nbr.candidates(u).len(), "ue {u}");
            next_link = links.end;
            let want: Vec<u32> = (0..s.aps.len() as u32)
                .filter(|&a| {
                    a == s.assoc[u] as u32
                        || s.aps[a as usize]
                            .position
                            .distance(s.ues[u].position)
                            .value()
                            <= r
                })
                .collect();
            assert_eq!(s.nbr.candidates(u), &want[..], "ue {u}");
            assert!(s.nbr.candidates(u).contains(&(s.assoc[u] as u32)));
        }
        assert_eq!(next_link, s.nbr.n_links());
        let mut next_link = 0;
        for a in 0..s.aps.len() {
            let links = s.nbr.interferer_links(a);
            assert_eq!(links.start, next_link, "ap {a}");
            assert_eq!(links.len(), s.nbr.interferers(a).len(), "ap {a}");
            next_link = links.end;
            let want: Vec<u32> = (0..s.aps.len() as u32)
                .filter(|&b| {
                    b != a as u32
                        && s.aps[a]
                            .position
                            .distance(s.aps[b as usize].position)
                            .value()
                            <= r
                })
                .collect();
            assert_eq!(s.nbr.interferers(a), &want[..], "ap {a}");
        }
        assert_eq!(next_link, s.nbr.n_interferer_links());
    }

    #[test]
    fn listener_lists_are_the_candidate_transpose() {
        let mut config = ScenarioConfig::paper_default(10, 4);
        config.cull_floor_dbm = Some(-75.0);
        let s = Scenario::generate(config, SeedSeq::new(33));
        for a in 0..s.aps.len() {
            let (ues, slots) = s.nbr.listeners(a);
            assert!(ues.windows(2).all(|w| w[0] < w[1]), "ascending UEs");
            for (&u, &slot) in ues.iter().zip(slots) {
                assert_eq!(s.nbr.candidates(u as usize)[slot as usize], a as u32);
                assert_eq!(s.nbr.slot(u as usize, a), Some(slot as usize));
            }
        }
        // An AP outside a UE's row has no slot there.
        let mut outside = 0;
        for u in 0..s.n_ues() {
            for a in 0..=s.aps.len() {
                if !s.nbr.candidates(u).contains(&(a as u32)) {
                    assert_eq!(s.nbr.slot(u, a), None, "ue {u} ap {a}");
                    outside += 1;
                }
            }
        }
        assert!(outside > s.n_ues(), "the floor must cull some AP");
        // Every (ue, candidate) pair appears in exactly one listener row.
        let total: usize = (0..s.aps.len()).map(|a| s.nbr.listeners(a).0.len()).sum();
        let expect: usize = (0..s.n_ues()).map(|u| s.nbr.candidates(u).len()).sum();
        assert_eq!(total, expect);
    }

    /// `index_is_fresh` holds right after generation and after
    /// `rebuild_index`, and any edit of what a table was built from
    /// makes it false: the association and node counts always, the
    /// positions for a culled table. A dense table's rows ignore
    /// positions, so a moved UE leaves it fresh; a culled table whose
    /// placement record was dropped is never fresh.
    #[test]
    fn index_freshness_follows_the_placement() {
        let mut culled = ScenarioConfig::paper_default(10, 3);
        culled.cull_floor_dbm = Some(-75.0);
        let dense = Scenario::generate(ScenarioConfig::paper_default(6, 3), SeedSeq::new(9));
        let culled = Scenario::generate(culled, SeedSeq::new(9));
        assert!(dense.index_is_fresh() && culled.index_is_fresh());
        type Edit = (&'static str, fn(&mut Scenario));
        let edits: [Edit; 5] = [
            ("assoc", |s| s.assoc[2] = (s.assoc[2] + 1) % s.aps.len()),
            ("added UE", |s| {
                s.ues.push(s.ues[0]);
                s.assoc.push(0);
            }),
            ("cull floor", |s| {
                s.config.cull_floor_dbm = Some(s.config.cull_floor_dbm.unwrap_or(-75.0) - 1.0)
            }),
            ("AP position", |s| s.aps[1].position.x += 1.0),
            ("UE position", |s| s.ues[4].position.y += 1.0),
        ];
        for (what, edit) in edits {
            for s in [&dense, &culled] {
                let mut s = s.clone();
                edit(&mut s);
                let dense_move = s.nbr.cull_radius_m.is_none() && what.ends_with("position");
                assert_eq!(s.index_is_fresh(), dense_move, "{what}");
                s.rebuild_index();
                assert!(s.index_is_fresh(), "{what} after rebuild_index");
            }
        }
        // Without its placement record a culled table is never fresh.
        for s in [&dense, &culled] {
            let mut s = s.clone();
            s.nbr.forget_placement();
            assert_eq!(s.index_is_fresh(), s.nbr.cull_radius_m.is_none());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        /// Random topologies and floors: the spatial-index candidate
        /// lists equal brute-force distance filtering (plus the serving
        /// union), and the interferer sets equal the AP-to-AP filter.
        #[test]
        fn neighbor_tables_equal_brute_force(
            seed in 0u64..1_000,
            n_aps in 1usize..14,
            clients in 0usize..5,
            floor in -110.0f64..-40.0,
        ) {
            let mut config = ScenarioConfig::paper_default(n_aps, clients);
            config.cull_floor_dbm = Some(floor);
            let s = Scenario::generate(config, SeedSeq::new(seed));
            let r = s.nbr.cull_radius_m.unwrap();
            for u in 0..s.n_ues() {
                let want: Vec<u32> = (0..n_aps as u32)
                    .filter(|&a| {
                        a == s.assoc[u] as u32
                            || s.aps[a as usize].position.distance(s.ues[u].position).value()
                                <= r
                    })
                    .collect();
                proptest::prop_assert_eq!(s.nbr.candidates(u), &want[..]);
            }
            for a in 0..n_aps {
                let want: Vec<u32> = (0..n_aps as u32)
                    .filter(|&b| {
                        b != a as u32
                            && s.aps[a].position.distance(s.aps[b as usize].position).value()
                                <= r
                    })
                    .collect();
                proptest::prop_assert_eq!(s.nbr.interferers(a), &want[..]);
            }
        }
    }

    #[test]
    fn two_cell_layout_faces_antennas_inward() {
        let s = Scenario::two_cell_interference(400.0, SeedSeq::new(1));
        assert_eq!(s.aps.len(), 2);
        // Serving cell's boresight points at the interferer and vice versa.
        let mid = Point::new(200.0, 0.0);
        let g0 = s.aps[0]
            .antenna
            .gain_towards(s.aps[0].position.bearing_to(mid));
        assert!((g0.value() - 7.0).abs() < 0.1);
    }
}
