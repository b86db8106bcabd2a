//! Engine behaviour tests, spanning the PHY/MAC/IM layers.
//!
//! These lived inside the monolithic engine file before the layered
//! split; they exercise cross-layer behaviour (scheduling against
//! cached SINR, IM convergence, LBT duty cycles, uplink concentration),
//! so they sit beside the layer modules rather than inside any one.

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
                let cached = e.lin_mw.at(u, sl, sc.index());
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
                        let signal = e.lin_mw.at(ue, e.serving_slot[ue] as usize, s);
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

    #[test]
    fn uplink_delivers_and_conserves() {
        let mut s = small_scenario(1, 1, 41);
        s.ues[0].position =
            cellfi_types::geo::Point::new(s.aps[0].position.x + 150.0, s.aps[0].position.y);
        let mut e = engine(s, ImMode::PlainLte, 43);
        e.enqueue_ul(0, 2_000_000);
        e.run_until(Instant::from_secs(3));
        assert_eq!(
            e.ul_delivered_bits()[0] + e.ul_queued_bits(0),
            2_000_000,
            "uplink conservation"
        );
        assert!(e.ul_delivered_bits()[0] > 1_500_000, "uplink barely moved");
    }

    #[test]
    fn uplink_capacity_matches_tdd_share() {
        // TDD config 4 gives the uplink 2 of 10 subframes: a backlogged
        // near client should see roughly 0.2/0.77 of the downlink rate.
        let mut s = small_scenario(1, 1, 45);
        s.ues[0].position =
            cellfi_types::geo::Point::new(s.aps[0].position.x + 100.0, s.aps[0].position.y);
        let mut e = engine(s, ImMode::PlainLte, 47);
        e.enqueue(0, u64::MAX / 4);
        e.enqueue_ul(0, u64::MAX / 4);
        e.run_until(Instant::from_secs(4));
        let dl = e.throughputs_bps()[0];
        let ul = e.ul_throughputs_bps()[0];
        let ratio = ul / dl;
        assert!(
            (0.15..0.45).contains(&ratio),
            "UL/DL ratio {ratio} (dl {dl}, ul {ul})"
        );
    }

    #[test]
    fn uplink_power_concentration_reaches_the_edge() {
        // A cell-edge client (1 km, 20 dBm) cannot close the uplink if it
        // spreads power across the carrier, but concentrating into one
        // granted subchannel buys 10·log10(25/1) ≈ 14 dB — §3.1's uplink
        // OFDMA advantage. The scheduler grants only what the small ACK
        // stream needs, so the edge uplink still flows.
        let mut s = small_scenario(1, 1, 49);
        s.ues[0].position =
            cellfi_types::geo::Point::new(s.aps[0].position.x + 950.0, s.aps[0].position.y);
        let mut e = engine(s, ImMode::PlainLte, 51);
        e.enqueue_ul(0, 100_000); // a thin ACK-like stream
        e.run_until(Instant::from_secs(3));
        assert!(
            e.ul_delivered_bits()[0] >= 100_000,
            "edge uplink failed: {} of 100000",
            e.ul_delivered_bits()[0]
        );
    }

    #[test]
    fn uplink_respects_interference_management_masks() {
        // Two CellFi cells: after convergence, concurrent uplinks use
        // disjoint subchannels, so both UL flows progress.
        let mut e = engine(edge_scenario(), ImMode::CellFi, 53);
        e.backlog_all(u64::MAX / 4); // downlink load drives the IM epochs
        for u in 0..2 {
            e.enqueue_ul(u, 5_000_000);
        }
        e.run_until(Instant::from_secs(20));
        for u in 0..2 {
            assert!(
                e.ul_delivered_bits()[u] > 1_000_000,
                "ue {u} uplink starved: {}",
                e.ul_delivered_bits()[u]
            );
        }
    }

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
                for (sl, &a) in s.nbr.candidates(u).iter().enumerate() {
                    let reference = s
                        .env
                        .mean_snr(&s.ues[u], s.config.ue_power, &s.aps[a as usize], bandwidth)
                        .value();
                    let derived = e.ul_mean_dbm.at(u, sl) - e.ul_noise_dbm;
                    assert_eq!(derived.to_bits(), reference.to_bits(), "ue {u} slot {sl}");
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
    /// identical to the naive nested-Vec reference that computes each
    /// element independently: `Dbm(mean + offset + split).to_milliwatts()
    /// × fading_power.max(1e-12)`. Exercised after mid-run fading rolls,
    /// an EIRP offset change, and a client move, so every slab rebuild
    /// path is covered.
    #[test]
    fn flat_slab_matches_nested_vec_reference() {
        use cellfi_types::geo::Point;
        use cellfi_types::units::Dbm;
        for seed in [3u64, 29, 71] {
            let mut cfg = ScenarioConfig::paper_default(3, 2);
            cfg.fading = true;
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
            // Reconstruct the instant of the current fading block so the
            // per-element draws land in the same coherence window the
            // engine's last refresh used.
            let coherence = e.scenario.env.fading.coherence();
            let t_block = Instant::from_micros(e.fading_block * coherence.as_micros());
            for u in 0..e.scenario.n_ues() {
                let ue_node = e.scenario.ues[u].node;
                for a in 0..e.scenario.aps.len() {
                    let ap_node = e.scenario.aps[a].node;
                    let sl = e.scenario.nbr.slot(u, a).expect("dense candidate set");
                    for sc in 0..n_sub {
                        let db = e.dl_mean_dbm.at(u, sl) + e.power_offset_db[a] + e.split_db[sc];
                        let static_ref = Dbm(db).to_milliwatts().value();
                        assert_eq!(
                            static_ref.to_bits(),
                            e.static_mw.at(u, sl, sc).to_bits(),
                            "static slab diverges at ue {u} ap {a} sc {sc} (seed {seed})"
                        );
                        let p = e.scenario.env.fading.power(
                            ap_node,
                            ue_node,
                            SubchannelId::new(sc as u32),
                            t_block,
                        );
                        let lin_ref = static_ref * p.max(1e-12);
                        assert_eq!(
                            lin_ref.to_bits(),
                            e.lin_mw.at(u, sl, sc).to_bits(),
                            "instantaneous slab diverges at ue {u} ap {a} sc {sc} (seed {seed})"
                        );
                    }
                }
            }
        }
    }

    /// Quiescence detection: a settled plain-LTE network (fixed masks,
    /// no mobility, warmed transmitter sets) reports a growing run of
    /// quiescent epochs, and a [`SimHarness`] configured with
    /// `stop_when_quiescent` ends the run well before its horizon.
    #[test]
    fn quiescence_detected_and_harness_stops_early() {
        use crate::engine::system::{SimHarness, SystemEngine};
        use cellfi_types::time::Duration;
        let mut e = engine(small_scenario(2, 1, 11), ImMode::PlainLte, 11);
        assert_eq!(e.quiescent_epochs(), 0);
        e.backlog_all(u64::MAX / 4);
        e.run_until(Instant::from_secs(4));
        assert!(
            e.quiescent_epochs() >= 2,
            "settled network never went quiescent: {}",
            e.quiescent_epochs()
        );

        let mut e2 = engine(small_scenario(2, 1, 11), ImMode::PlainLte, 11);
        e2.backlog_all(u64::MAX / 4);
        let horizon = Instant::from_secs(60);
        let h = SimHarness::new(Duration::from_millis(1), horizon).stop_when_quiescent(2);
        h.run(&mut e2, &mut (), |_, _, _| {}, |_, _, _, _| {});
        assert!(
            SystemEngine::now(&e2) < horizon,
            "quiescence stop never fired"
        );
        assert!(e2.quiescent_epochs() >= 2);
    }
}
