//! Engine behaviour tests, spanning the PHY/MAC/IM layers.
//!
//! These lived inside the monolithic engine file before the layered
//! split; they exercise cross-layer behaviour (scheduling against
//! cached SINR, IM convergence, LBT duty cycles, PRACH hearing), so
//! they sit beside the layer modules rather than inside any one.

#[cfg(test)]
mod all {
    use crate::engine::cache::InterferenceCache;
    use crate::engine::{ImMode, LteEngine, LteEngineConfig};
    use crate::topology::{Scenario, ScenarioConfig};
    use cellfi_types::rng::SeedSeq;
    use cellfi_types::time::Instant;
    use cellfi_types::units::Db;
    use cellfi_types::ApId;
    use cellfi_types::SubchannelId;

    fn small_scenario(n_aps: usize, clients: usize, seed: u64) -> Scenario {
        let mut cfg = ScenarioConfig::paper_default(n_aps, clients);
        cfg.shadowing_sigma = 0.0;
        cfg.fading = false;
        Scenario::generate(cfg, SeedSeq::new(seed))
    }

    /// A controlled two-cell scenario: cells 800 m apart, one client each
    /// placed between them (interference-limited at the edge).
    fn edge_scenario() -> Scenario {
        use cellfi_propagation::antenna::Antenna;
        use cellfi_propagation::link::LinkEnd;
        use cellfi_types::geo::Point;
        let mut s = small_scenario(2, 0, 1);
        s.aps = vec![
            LinkEnd::new(
                0,
                Point::new(0.0, 0.0),
                Antenna::Isotropic { gain: Db(6.0) },
            ),
            LinkEnd::new(
                1,
                Point::new(800.0, 0.0),
                Antenna::Isotropic { gain: Db(6.0) },
            ),
        ];
        // Each client sits *closer to the other cell* than to its own
        // (a routine outcome of shadowed association in dense unplanned
        // deployments): interference exceeds signal, the plain-LTE
        // starvation regime of §3.2.
        s.ues = vec![
            LinkEnd::new(1000, Point::new(500.0, 0.0), Antenna::client()),
            LinkEnd::new(1001, Point::new(300.0, 0.0), Antenna::client()),
        ];
        s.assoc = vec![0, 1];
        s
    }

    fn engine(s: Scenario, mode: ImMode, seed: u64) -> LteEngine {
        LteEngine::new(s, LteEngineConfig::paper_default(mode), SeedSeq::new(seed))
    }

    #[test]
    fn lone_cell_hits_near_peak_throughput() {
        let mut s = small_scenario(1, 1, 2);
        s.ues[0].position =
            cellfi_types::geo::Point::new(s.aps[0].position.x + 100.0, s.aps[0].position.y);
        let mut e = engine(s, ImMode::PlainLte, 3);
        e.enqueue(0, 200_000_000);
        e.run_until(Instant::from_secs(2));
        let tput = e.throughputs_bps()[0] / 1e6;
        // 5 MHz, TDD 0.77 DL, CQI 15 → ≈ 12.8 Mbps ceiling.
        assert!((8.0..14.0).contains(&tput), "throughput {tput} Mbps");
    }

    #[test]
    fn deliveries_never_exceed_enqueued() {
        let mut e = engine(small_scenario(3, 2, 4), ImMode::CellFi, 5);
        e.backlog_all(1_000_000);
        e.run_until(Instant::from_secs(1));
        for u in 0..e.scenario().n_ues() {
            assert!(e.delivered_bits()[u] <= 1_000_000);
            assert_eq!(
                e.delivered_bits()[u] + e.queued_bits(u),
                1_000_000,
                "conservation for ue {u}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e = engine(small_scenario(3, 2, 4), ImMode::CellFi, 5);
            e.backlog_all(10_000_000);
            e.run_until(Instant::from_secs(2));
            e.delivered_bits().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plain_lte_starves_edge_client_cellfi_rescues() {
        // The paper's core claim in miniature (Fig 9b): an edge client
        // under full-channel inter-cell interference starves on plain
        // LTE but gets service once CellFi partitions the subchannels.
        let run = |mode: ImMode| {
            let mut e = engine(edge_scenario(), mode, 7);
            e.backlog_all(200_000_000);
            e.run_until(Instant::from_secs(8));
            e.throughputs_bps()
        };
        let plain = run(ImMode::PlainLte);
        let cellfi = run(ImMode::CellFi);
        let plain_min = plain.iter().cloned().fold(f64::INFINITY, f64::min);
        let cellfi_min = cellfi.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            plain_min < 200_000.0,
            "plain LTE edge client should starve, got {plain_min} bps"
        );
        assert!(
            cellfi_min > 500_000.0,
            "CellFi edge client should get service, got {cellfi_min} bps"
        );
    }

    #[test]
    fn oracle_masks_are_conflict_free() {
        let mut e = engine(edge_scenario(), ImMode::Oracle, 9);
        e.backlog_all(100_000_000);
        e.run_until(Instant::from_secs(2));
        let m0 = e.cell_mask(0);
        let m1 = e.cell_mask(1);
        let overlap = m0.iter().zip(&m1).filter(|(a, b)| **a && **b).count();
        assert_eq!(overlap, 0, "oracle let conflicting cells share subchannels");
    }

    #[test]
    fn cellfi_managers_converge_to_disjoint_masks() {
        let mut e = engine(edge_scenario(), ImMode::CellFi, 11);
        e.backlog_all(500_000_000);
        e.run_until(Instant::from_secs(15));
        let m0 = e.cell_mask(0);
        let m1 = e.cell_mask(1);
        let overlap = m0.iter().zip(&m1).filter(|(a, b)| **a && **b).count();
        assert!(
            overlap <= 1,
            "CellFi cells still overlap on {overlap} subchannels after 15 s"
        );
        assert!(m0.iter().filter(|&&b| b).count() >= 4);
        assert!(m1.iter().filter(|&&b| b).count() >= 4);
    }

    #[test]
    fn plain_lte_mask_never_changes() {
        let mut e = engine(edge_scenario(), ImMode::PlainLte, 13);
        e.backlog_all(10_000_000);
        e.run_until(Instant::from_secs(3));
        assert!(e.cell_mask(0).iter().all(|&b| b));
        assert!(e.cell_mask(1).iter().all(|&b| b));
    }

    #[test]
    fn idle_network_delivers_nothing() {
        let mut e = engine(small_scenario(2, 2, 6), ImMode::CellFi, 15);
        e.run_until(Instant::from_secs(1));
        assert!(e.delivered_bits().iter().all(|&b| b == 0));
    }

    #[test]
    fn throughput_degrades_with_link_distance() {
        let mut s = small_scenario(1, 0, 8);
        use cellfi_propagation::link::LinkEnd;
        use cellfi_types::geo::Point;
        let apx = s.aps[0].position;
        s.ues = vec![
            LinkEnd::new(
                1000,
                Point::new(apx.x + 100.0, apx.y),
                cellfi_propagation::antenna::Antenna::client(),
            ),
            LinkEnd::new(
                1001,
                Point::new(apx.x, apx.y + 620.0),
                cellfi_propagation::antenna::Antenna::client(),
            ),
        ];
        s.assoc = vec![0, 0];
        let mut e = engine(s, ImMode::PlainLte, 17);
        e.enqueue(0, 40_000_000);
        e.run_until(Instant::from_secs(2));
        let near = e.delivered_bits()[0];
        e.enqueue(1, 40_000_000);
        e.run_until(Instant::from_secs(4));
        let far = e.delivered_bits()[1];
        assert!(
            near as f64 > 1.5 * far as f64,
            "near {near} should beat far {far}"
        );
    }

    #[test]
    fn fading_cache_matches_direct_computation() {
        // With fading enabled, the cached linear gains must agree with
        // the RadioEnvironment's direct per-call computation.
        let mut cfg = ScenarioConfig::paper_default(2, 1);
        cfg.shadowing_sigma = 0.0;
        cfg.fading = true;
        let s = Scenario::generate(cfg, SeedSeq::new(44));
        let e = engine(s, ImMode::PlainLte, 19);
        let sc = SubchannelId::new(3);
        let env = &e.scenario.env;
        for u in 0..e.scenario.n_ues() {
            for a in 0..e.scenario.aps.len() {
                let sc_power = e.grid.subchannel_tx_power(e.scenario.config.ap_power, sc);
                let direct = env
                    .rx_power(
                        &e.scenario.aps[a],
                        sc_power,
                        &e.scenario.ues[u],
                        sc,
                        Instant::ZERO,
                    )
                    .to_milliwatts()
                    .value();
                let sl = e.scenario.nbr.slot(u, a).expect("dense candidate set");
                let cached = e.lin_mw.at(e.scenario.nbr.links(u).start + sl, sc.index());
                assert!(
                    (direct - cached).abs() / direct < 1e-9,
                    "cache mismatch ue {u} ap {a}"
                );
            }
        }
    }

    mod interference_cache_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// The incremental interference accumulator must agree with
            /// direct recomputation for *any* transmitter sets presented
            /// after an arbitrary stretch of simulation (mid-run fading
            /// rolls, epoch mask changes, HARQ churn) — both the raw
            /// power totals and the SINR assembled from them.
            #[test]
            fn interference_cache_matches_direct_recomputation(
                seed in 0u64..1_000,
                millis in 20u64..120,
                txmask in proptest::collection::vec(any::<bool>(), 13 * 3),
            ) {
                let mut cfg = ScenarioConfig::paper_default(3, 2);
                cfg.shadowing_sigma = 0.0;
                cfg.fading = true;
                let s = Scenario::generate(cfg, SeedSeq::new(seed));
                let mut e = LteEngine::new(
                    s,
                    LteEngineConfig::paper_default(ImMode::CellFi),
                    SeedSeq::new(seed ^ 0x5eed),
                );
                e.backlog_all(5_000_000);
                for _ in 0..millis {
                    let _ = e.step_subframe();
                }
                let n_sub = e.grid.num_subchannels() as usize;
                let n_ap = e.scenario.aps.len();
                let tx: Vec<Vec<usize>> = (0..n_sub)
                    .map(|s| (0..n_ap).filter(|&c| txmask[s * n_ap + c]).collect())
                    .collect();
                // Present the sets through the engine's own tracker: the
                // cache keys on its id namespace, and ids from a foreign
                // tracker could collide with already-cached columns.
                e.tracker.observe(&tx);
                e.interf.refresh(e.gain_gen, &e.tracker, &e.scenario.nbr, &e.lin_mw);
                for (s, tx_s) in tx.iter().enumerate() {
                    for ue in 0..e.scenario.n_ues() {
                        let direct = InterferenceCache::direct_total(
                            &e.tracker,
                            &e.scenario.nbr,
                            &e.lin_mw,
                            ue,
                            s,
                        );
                        let cached = e.interf.total(s, ue);
                        prop_assert!(
                            (direct - cached).abs() <= direct.abs() * 1e-12,
                            "total mismatch s={s} ue={ue}: cached {cached} direct {direct}"
                        );
                        let ap = e.scenario.assoc[ue];
                        let signal = e.lin_mw.at(e.serving_link(ue), s);
                        let own = if tx_s.contains(&ap) { signal } else { 0.0 };
                        let from_cache = 10.0
                            * (signal / ((cached - own).max(0.0) + e.noise_mw[s])).log10();
                        let reference = e.sinr_db(ue, s, tx_s);
                        prop_assert!(
                            (from_cache - reference).abs() < 1e-6,
                            "sinr mismatch s={s} ue={ue}: cache {from_cache} dB, \
                             direct {reference} dB"
                        );
                    }
                }
                // A second refresh with unchanged keys must be a pure
                // cache hit and leave every column intact.
                let n_ue = e.scenario.n_ues();
                let snapshot = move |i: &InterferenceCache| -> Vec<f64> {
                    (0..n_sub)
                        .flat_map(|s| (0..n_ue).map(move |ue| i.total(s, ue)))
                        .collect::<Vec<f64>>()
                };
                let before = snapshot(&e.interf);
                e.interf.refresh(e.gain_gen, &e.tracker, &e.scenario.nbr, &e.lin_mw);
                prop_assert_eq!(before, snapshot(&e.interf));
            }
        }
    }

    /// The refresh splits stale columns over UE rows. On the culled
    /// district drop (576 UEs, nine workers' worth) every total must
    /// equal `direct_total` bit for bit, at 1 thread and at 2.
    #[test]
    fn interference_cache_rows_match_direct_totals_when_split() {
        let cfg = crate::experiments::fig9metro::district_config();
        let totals = |threads: usize| {
            crate::parallel::with_threads(threads, || {
                let s = Scenario::generate(cfg, SeedSeq::new(17));
                assert!(s.n_ues() >= 512 && s.nbr.max_neighbors < s.aps.len());
                let mut e = LteEngine::new(
                    s,
                    LteEngineConfig::paper_default(ImMode::CellFi),
                    SeedSeq::new(18),
                );
                e.backlog_all(5_000_000);
                e.run_until(Instant::from_millis(30));
                // A set the run never produced on any subchannel, so
                // every column is stale.
                let n_sub = e.grid.num_subchannels() as usize;
                let n_ap = e.scenario.aps.len();
                let tx: Vec<Vec<usize>> = (0..n_sub)
                    .map(|s| (0..n_ap).filter(|&c| (c + s) % 3 != 0).collect())
                    .collect();
                e.tracker.observe(&tx);
                e.interf
                    .refresh(e.gain_gen, &e.tracker, &e.scenario.nbr, &e.lin_mw);
                let mut bits = Vec::new();
                for ue in 0..e.scenario.n_ues() {
                    for s in 0..n_sub {
                        let direct = InterferenceCache::direct_total(
                            &e.tracker,
                            &e.scenario.nbr,
                            &e.lin_mw,
                            ue,
                            s,
                        );
                        let cached = e.interf.total(s, ue);
                        assert_eq!(
                            cached.to_bits(),
                            direct.to_bits(),
                            "threads={threads} ue={ue} s={s}"
                        );
                        bits.push(cached.to_bits());
                    }
                }
                bits
            })
        };
        assert_eq!(totals(1), totals(2));
    }

    /// Step 3b clears every grant bit step 2 set: on the district drop
    /// (576 UEs, two HARQ workers at 2 threads), through a handover and
    /// a lease flip, `grant_mask` is all zero after every subframe.
    #[test]
    fn grant_masks_are_clear_after_every_subframe() {
        let cfg = crate::experiments::fig9metro::district_config();
        let mut e = engine(
            Scenario::generate(cfg, SeedSeq::new(17)),
            ImMode::CellFi,
            18,
        );
        e.backlog_all(5_000_000);
        let mut granted = 0;
        let mut step = |e: &mut LteEngine, subframes: usize| {
            for _ in 0..subframes {
                crate::parallel::with_threads(2, || e.step_subframe());
                assert!(e.grant_mask.iter().all(|&m| m == 0), "at {:?}", e.now());
                granted += e.granted_scratch.len();
            }
        };
        step(&mut e, 20);
        // Carry UE 0 next to another of its candidate cells.
        let serving = e.scenario().assoc[0];
        let candidates = e.scenario().nbr.candidates(0).iter();
        let target = candidates
            .map(|&c| c as usize)
            .find(|&c| c != serving)
            .expect("a second candidate");
        let ap = e.scenario().aps[target].position;
        e.move_ue(0, cellfi_types::geo::Point::new(ap.x + 10.0, ap.y));
        assert_eq!(e.check_handover(0, 3.0), Some(target));
        step(&mut e, 10);
        e.set_lease_ok(target, false);
        step(&mut e, 10);
        e.set_lease_ok(target, true);
        step(&mut e, 10);
        assert!(granted > 0, "no subframe granted anything");
    }

    #[test]
    fn laa_cells_in_sensing_range_time_share() {
        // Two co-located backlogged cells under LBT must alternate TXOPs:
        // both served, neither starved, aggregate below a lone cell.
        let mut s = small_scenario(2, 0, 31);
        use cellfi_propagation::link::LinkEnd;
        use cellfi_types::geo::Point;
        s.aps = vec![
            LinkEnd::new(
                0,
                Point::new(0.0, 0.0),
                Antenna::Isotropic { gain: Db(6.0) },
            ),
            LinkEnd::new(
                1,
                Point::new(200.0, 0.0),
                Antenna::Isotropic { gain: Db(6.0) },
            ),
        ];
        s.ues = vec![
            LinkEnd::new(1000, Point::new(50.0, 80.0), Antenna::client()),
            LinkEnd::new(1001, Point::new(150.0, -80.0), Antenna::client()),
        ];
        s.assoc = vec![0, 1];
        let mut e = engine(s, ImMode::Laa, 33);
        e.backlog_all(u64::MAX / 4);
        e.run_until(Instant::from_secs(4));
        let t = e.throughputs_bps();
        assert!(t[0] > 1e6 && t[1] > 1e6, "both must be served: {t:?}");
        // Time sharing: each gets well below the ~12.8 Mbps lone-cell peak.
        assert!(t[0] < 9e6 && t[1] < 9e6, "no time sharing visible: {t:?}");
    }

    #[test]
    fn laa_hidden_cells_pay_the_duty_cycle_tax() {
        // The edge cells are 800 m apart: mutual AP power ≈ −87 dBm, far
        // below the −72 dBm LBT threshold, so sensing never engages.
        // What LBT *does* impose is its mandatory contention gaps: ~8 ms
        // MCOT followed by ~7.5 ms of backoff ≈ 52 % duty cycle. The
        // desynchronized gaps incidentally rescue the victims plain LTE
        // starves — but every cell pays the airtime tax whether or not
        // anyone is nearby, which is the §8 long-range inefficiency.
        let mut laa = engine(edge_scenario(), ImMode::Laa, 35);
        laa.backlog_all(u64::MAX / 4);
        laa.run_until(Instant::from_secs(6));
        let t = laa.throughputs_bps();
        let mut plain = engine(edge_scenario(), ImMode::PlainLte, 35);
        plain.backlog_all(u64::MAX / 4);
        plain.run_until(Instant::from_secs(6));
        let plain_worst = plain
            .throughputs_bps()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        // Gaps rescue the victims relative to plain LTE...
        assert!(
            plain_worst < 100_000.0,
            "premise: plain LTE starves, got {plain_worst}"
        );
        assert!(
            t.iter().all(|&v| v > 500_000.0),
            "LAA gaps should serve both: {t:?}"
        );
        // ...but each cell is capped near the ~52 % duty cycle of the
        // 12.8 Mbps lone-cell ceiling (and loses more to residual
        // collisions during TXOP overlap).
        assert!(
            t.iter().all(|&v| v < 0.62 * 12_800_000.0),
            "duty-cycle tax missing: {t:?}"
        );
    }

    use cellfi_propagation::antenna::Antenna;

    /// PRACH hearing reads each uplink SNR as the mean uplink power
    /// minus one channel noise floor. That must equal the
    /// `RadioEnvironment::mean_snr` reference bit for bit at every
    /// (UE, neighbor slot), on a dense scenario and on the fig9metro
    /// pocket drop, whose cull floor keeps only near-field APs.
    #[test]
    fn derived_uplink_snr_is_mean_snr_bit_for_bit() {
        let pocket = crate::experiments::fig9metro::pocket_config();
        for config in [ScenarioConfig::paper_default(6, 3), pocket] {
            let e = engine(
                Scenario::generate(config, SeedSeq::new(61)),
                ImMode::CellFi,
                61,
            );
            let s = &e.scenario;
            if config.cull_floor_dbm.is_some() {
                assert!(s.nbr.max_neighbors < s.aps.len(), "the floor must cull");
            }
            let bandwidth = e.grid.bandwidth().bandwidth();
            for u in 0..s.n_ues() {
                for (link, &a) in s.nbr.links(u).zip(s.nbr.candidates(u)) {
                    let reference = s
                        .env
                        .mean_snr(&s.ues[u], s.config.ue_power, &s.aps[a as usize], bandwidth)
                        .value();
                    let derived = e.ul_mean_dbm[link] - e.ul_noise_dbm;
                    assert_eq!(derived.to_bits(), reference.to_bits(), "ue {u} link {link}");
                }
            }
        }
    }

    #[test]
    fn conflict_graph_reflects_geometry() {
        let e = engine(edge_scenario(), ImMode::Oracle, 21);
        assert!(e.conflict.has_edge(ApId::new(0), ApId::new(1)));
    }

    /// The flat-slab gain pipeline (batched dB→linear kernel over
    /// contiguous lanes, lane-filled fading draws) must be *bit*
    /// identical to the naive reference that computes each element
    /// independently: `Dbm(mean + offset + split).to_milliwatts() ×
    /// fading_power.max(1e-12)`. Exercised after mid-run fading rolls,
    /// an EIRP offset change, and a client move, so every slab rebuild
    /// path is covered. Inputs: dense paper drops with fading on, where
    /// every candidate row holds every AP, and the culled fig9metro
    /// pocket drop with fading off (one gain slab) and on, where
    /// candidate rows differ in length. The gain slabs must hold exactly
    /// the kept links, no padding.
    #[test]
    fn flat_slab_matches_nested_vec_reference() {
        use cellfi_types::geo::Point;
        use cellfi_types::units::Dbm;
        let mut paper = ScenarioConfig::paper_default(3, 2);
        paper.fading = true;
        let pocket = crate::experiments::fig9metro::pocket_config();
        let mut pocket_fading = pocket;
        pocket_fading.fading = true;
        let inputs = [
            (paper, 3u64),
            (paper, 29),
            (paper, 71),
            (pocket, 3),
            (pocket_fading, 29),
        ];
        for (cfg, seed) in inputs {
            let s = Scenario::generate(cfg, SeedSeq::new(seed));
            let mut e = engine(s, ImMode::CellFi, seed ^ 0x51ab);
            e.backlog_all(10_000_000);
            e.run_until(Instant::from_millis(137)); // several fading blocks
            e.set_power_offset_db(1, -3.0); // full static-slab rebuild
            e.move_ue(0, Point::new(110.0, 45.0)); // single-row rebuild
                                                   // The EIRP change invalidates the fading block; step past it
                                                   // so the engine re-derives `lin_mw` from the new statics.
            e.run_until(Instant::from_millis(142));
            let n_sub = e.grid.num_subchannels() as usize;
            let scen = &e.scenario;
            let fading = !scen.env.fading.is_disabled();
            assert_eq!(fading, cfg.fading);
            let kept: usize = (0..scen.n_ues())
                .map(|u| scen.nbr.candidates(u).len())
                .sum();
            if cfg.cull_floor_dbm.is_some() {
                assert!(
                    kept < scen.n_ues() * scen.nbr.max_neighbors,
                    "the pocket drop's rows must differ in length (seed {seed})"
                );
            }
            assert_eq!(e.lin_mw.as_slice().len(), kept * n_sub, "seed {seed}");
            let n_static = if fading { kept * n_sub } else { 0 };
            assert_eq!(
                e.static_mw.as_slice().len(),
                n_static,
                "one gain slab without fading (seed {seed})"
            );
            // Reconstruct the instant of the current fading block so the
            // per-element draws land in the same coherence window the
            // engine's last refresh used (without fading, every instant
            // draws exactly 1.0).
            let coherence = scen.env.fading.coherence();
            let t_block = if fading {
                Instant::from_micros(e.fading_block * coherence.as_micros())
            } else {
                e.now
            };
            for u in 0..scen.n_ues() {
                let ue_node = scen.ues[u].node;
                for (link, &a) in scen.nbr.links(u).zip(scen.nbr.candidates(u)) {
                    let a = a as usize;
                    let ap_node = scen.aps[a].node;
                    let mean = scen
                        .env
                        .mean_rx_power(&scen.aps[a], scen.config.ap_power, &scen.ues[u])
                        .value();
                    for sc in 0..n_sub {
                        let db = mean + e.power_offset_db[a] + e.split_db[sc];
                        let static_ref = Dbm(db).to_milliwatts().value();
                        if fading {
                            assert_eq!(
                                static_ref.to_bits(),
                                e.static_mw.at(link, sc).to_bits(),
                                "static slab diverges at ue {u} ap {a} sc {sc} (seed {seed})"
                            );
                        }
                        let p = scen.env.fading.power(
                            ap_node,
                            ue_node,
                            SubchannelId::new(sc as u32),
                            t_block,
                        );
                        let lin_ref = static_ref * p.max(1e-12);
                        assert_eq!(
                            lin_ref.to_bits(),
                            e.lin_mw.at(link, sc).to_bits(),
                            "instantaneous slab diverges at ue {u} ap {a} sc {sc} (seed {seed})"
                        );
                    }
                }
            }
        }
    }

    /// `rebuild_spatial` re-derives the neighbor rows but never the
    /// per-link arrays laid out behind them, so it must refuse a
    /// placement that changes a row, in release builds too. Unchanged
    /// positions pass; a UE carried out of its near field panics.
    #[test]
    #[should_panic(expected = "link ids never move under an engine")]
    fn rebuild_spatial_refuses_a_changed_row() {
        let s = Scenario::generate(
            crate::experiments::fig9metro::pocket_config(),
            SeedSeq::new(61),
        );
        let mut e = engine(s, ImMode::CellFi, 61);
        e.rebuild_spatial();
        let s = e.scenario();
        let here = s.ues[0].position;
        let far = (0..s.aps.len())
            .max_by(|&a, &b| {
                let d = |x: usize| s.aps[x].position.distance(here).value();
                d(a).total_cmp(&d(b))
            })
            .expect("the pocket drop always has APs");
        assert!(
            s.nbr.slot(0, far).is_none(),
            "premise: the farthest AP is culled from UE 0's row"
        );
        let target = s.aps[far].position;
        e.move_ue(0, target);
        e.rebuild_spatial();
    }

    /// A handover into a busy cell: UE 0 moves next to the next AP
    /// while every UE is backlogged, and the new cell's PF scheduler
    /// must treat it as a fresh UE (average 1.0), not carry over the
    /// average it built up at its old cell. The per-UE totals are pinned
    /// from the keyed-scheduler implementation; carrying the average
    /// across the handover changes them.
    #[test]
    fn handover_into_a_busy_cell_restarts_pf_state() {
        use cellfi_types::geo::Point;
        let pinned: [(u64, [u64; 12]); 2] = [
            (
                3,
                [
                    2_648_319, 420_580, 1_267_032, 5_353_933, 566_924, 32_315, 1_225_429,
                    1_239_084, 608_106, 3_035_599, 340_239, 1_581_253,
                ],
            ),
            (
                11,
                [
                    3_581_125, 1_160_197, 16_268, 951_626, 5_729, 311_548, 513_625, 0, 224_973,
                    403_319, 821_287, 535_570,
                ],
            ),
        ];
        for (seed, delivered) in pinned {
            let s = Scenario::generate(ScenarioConfig::paper_default(3, 4), SeedSeq::new(seed));
            let mut e = engine(s, ImMode::PlainLte, seed);
            e.backlog_all(u64::MAX / 4);
            e.run_until(Instant::from_millis(800));
            let target = (e.scenario().assoc[0] + 1) % 3;
            let ap = e.scenario().aps[target].position;
            e.move_ue(0, Point::new(ap.x + 30.0, ap.y + 30.0));
            assert_eq!(e.check_handover(0, 3.0), Some(target), "seed {seed}");
            e.run_until(Instant::from_millis(1_600));
            assert_eq!(e.delivered_bits(), &delivered, "seed {seed}");
        }
    }
}
