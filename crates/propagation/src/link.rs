//! Combined link budget and SINR computation.
//!
//! [`RadioEnvironment`] is the single source of truth for "what power does
//! node B receive from node A on subchannel k at time t". Both the LTE and
//! Wi-Fi engines, the interference-management sensing model, and the
//! experiment drivers all go through it, so every comparison in the
//! reproduction shares one propagation reality.
//!
//! The budget composes: TX power + TX antenna gain towards RX − path loss
//! − shadowing + fading + RX antenna gain towards TX. Interference is
//! summed in the linear domain; noise comes from [`NoiseModel`].
//!
//! Everything in a mean received power except the transmit power is
//! static while the two ends stay put. [`RadioEnvironment::link_budget`]
//! computes that part once as a [`LinkBudget`], and both directions of
//! the link read their mean power from it: distance and shadowing are
//! symmetric in the two ends, and each direction adds the transmitter's
//! gain first, so [`LinkBudget::a_to_b`] and [`LinkBudget::b_to_a`] are
//! bit for bit the [`RadioEnvironment::mean_rx_power`] of their
//! direction. Simulators over fixed positions (the Wi-Fi DCF tables, the
//! LTE engine's mean-gain matrices) build their tables from budgets
//! instead of re-deriving path loss, shadowing and bearings per query.

use crate::antenna::Antenna;
use crate::fading::BlockFading;
use crate::noise::NoiseModel;
use crate::pathloss::PathLossModel;
use crate::shadowing::Shadowing;
use cellfi_types::geo::Point;
use cellfi_types::time::Instant;
use cellfi_types::units::{sinr, Db, Dbm, Hertz, MilliWatts};
use cellfi_types::SubchannelId;

/// One end of a radio link: a node with a position and an antenna.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEnd {
    /// Global node key, unique across APs and clients in one scenario.
    pub node: u32,
    /// Position in the simulation plane.
    pub position: Point,
    /// Azimuth antenna pattern.
    pub antenna: Antenna,
}

impl LinkEnd {
    /// Convenience constructor.
    pub fn new(node: u32, position: Point, antenna: Antenna) -> LinkEnd {
        LinkEnd {
            node,
            position,
            antenna,
        }
    }

    /// This end's antenna gain towards `other`. The bearing is computed
    /// only for a directional pattern; an isotropic gain never reads it.
    fn gain_towards(&self, other: &LinkEnd) -> Db {
        match self.antenna {
            Antenna::Isotropic { gain } => gain,
            Antenna::Sector { .. } => self
                .antenna
                .gain_towards(self.position.bearing_to(other.position)),
        }
    }
}

/// The static part of one link's budget between ends `a` and `b`:
/// everything in the mean received power but the transmit power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Path loss over the link's length.
    path_loss: Db,
    /// Log-normal shadowing of the link (symmetric in its ends).
    shadowing: Db,
    /// Gain of `a`'s antenna towards `b`.
    gain_a: Db,
    /// Gain of `b`'s antenna towards `a`.
    gain_b: Db,
}

impl LinkBudget {
    /// Mean power at `b` when `a` transmits `power`: bit for bit
    /// [`RadioEnvironment::mean_rx_power`]`(a, power, b)`.
    pub fn a_to_b(&self, power: Dbm) -> Dbm {
        power + self.gain_a + self.gain_b - self.path_loss - self.shadowing
    }

    /// Mean power at `a` when `b` transmits `power`: bit for bit
    /// [`RadioEnvironment::mean_rx_power`]`(b, power, a)`, since the
    /// transmitter's gain is added first there too.
    pub fn b_to_a(&self, power: Dbm) -> Dbm {
        power + self.gain_b + self.gain_a - self.path_loss - self.shadowing
    }
}

/// An active transmission: a source and its conducted TX power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// Transmitting terminal.
    pub from: LinkEnd,
    /// Conducted power fed into the antenna (EIRP = power + antenna gain).
    pub power: Dbm,
}

/// The composed propagation environment.
#[derive(Debug, Clone, Copy)]
pub struct RadioEnvironment {
    /// Large-scale path loss law.
    pub pathloss: PathLossModel,
    /// Per-link log-normal shadowing field.
    pub shadowing: Shadowing,
    /// Per-subchannel block fading process.
    pub fading: BlockFading,
    /// Receiver noise model.
    pub noise: NoiseModel,
    /// Carrier frequency.
    pub frequency: Hertz,
}

impl RadioEnvironment {
    /// The static budget of the link between `a` and `b`, from which
    /// both directions' mean received powers are assembled.
    pub fn link_budget(&self, a: &LinkEnd, b: &LinkEnd) -> LinkBudget {
        let d = a.position.distance(b.position);
        LinkBudget {
            path_loss: self.pathloss.path_loss(self.frequency, d),
            shadowing: self.shadowing.link_shadow(a.node, b.node),
            gain_a: a.gain_towards(b),
            gain_b: b.gain_towards(a),
        }
    }

    /// Mean received power (path loss + shadowing + antennas, *no*
    /// fast fading). This is what RSSI measurement, cell association and
    /// carrier sensing react to.
    pub fn mean_rx_power(&self, tx: &LinkEnd, tx_power: Dbm, rx: &LinkEnd) -> Dbm {
        self.link_budget(tx, rx).a_to_b(tx_power)
    }

    /// Instantaneous received power on one subchannel, including block
    /// fading.
    pub fn rx_power(
        &self,
        tx: &LinkEnd,
        tx_power: Dbm,
        rx: &LinkEnd,
        subchannel: SubchannelId,
        now: Instant,
    ) -> Dbm {
        self.mean_rx_power(tx, tx_power, rx) + self.fading.gain(tx.node, rx.node, subchannel, now)
    }

    /// SINR at `rx` for the `serving` transmission on `subchannel`, given
    /// concurrent `interferers`, over `bandwidth` of noise.
    pub fn subchannel_sinr(
        &self,
        serving: &Transmission,
        rx: &LinkEnd,
        interferers: &[Transmission],
        subchannel: SubchannelId,
        now: Instant,
        bandwidth: Hertz,
    ) -> Db {
        let s = self
            .rx_power(&serving.from, serving.power, rx, subchannel, now)
            .to_milliwatts();
        let i: MilliWatts = interferers
            .iter()
            .filter(|t| t.from.node != serving.from.node)
            .map(|t| {
                self.rx_power(&t.from, t.power, rx, subchannel, now)
                    .to_milliwatts()
            })
            .sum();
        sinr(s, i, self.noise.floor_mw(bandwidth))
    }

    /// Mean SNR (no fading, no interference) — the quantity the paper's
    /// Fig 2 equalizes between the 802.11ac and 802.11af scenarios.
    pub fn mean_snr(&self, tx: &LinkEnd, tx_power: Dbm, rx: &LinkEnd, bandwidth: Hertz) -> Db {
        self.mean_rx_power(tx, tx_power, rx) - self.noise.floor(bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellfi_types::rng::SeedSeq;
    use cellfi_types::units::Meters;

    fn quiet_env() -> RadioEnvironment {
        let seeds = SeedSeq::new(11);
        RadioEnvironment {
            pathloss: PathLossModel::tvws_urban(),
            shadowing: Shadowing::disabled(seeds),
            fading: BlockFading::disabled(seeds),
            noise: NoiseModel::typical(),
            frequency: Hertz(700e6),
        }
    }

    /// The mean received power as composed before link budgets existed:
    /// both bearings always computed, gains added transmitter first.
    fn reference_mean_rx_power(
        env: &RadioEnvironment,
        tx: &LinkEnd,
        tx_power: Dbm,
        rx: &LinkEnd,
    ) -> Dbm {
        let d = tx.position.distance(rx.position);
        let pl = env.pathloss.path_loss(env.frequency, d);
        let sh = env.shadowing.link_shadow(tx.node, rx.node);
        let g_tx = tx.antenna.gain_towards(tx.position.bearing_to(rx.position));
        let g_rx = rx.antenna.gain_towards(rx.position.bearing_to(tx.position));
        tx_power + g_tx + g_rx - pl - sh
    }

    fn ap_at(node: u32, x: f64, y: f64) -> LinkEnd {
        LinkEnd::new(node, Point::new(x, y), Antenna::Isotropic { gain: Db(6.0) })
    }

    fn ue_at(node: u32, x: f64, y: f64) -> LinkEnd {
        LinkEnd::new(node, Point::new(x, y), Antenna::client())
    }

    #[test]
    fn budget_composes_gains_and_loss() {
        let env = quiet_env();
        let ap = ap_at(0, 0.0, 0.0);
        let ue = ue_at(1, 500.0, 0.0);
        let rx = env.mean_rx_power(&ap, Dbm(29.0), &ue);
        let expected =
            29.0 + 6.0 + 0.0 - env.pathloss.path_loss(env.frequency, Meters(500.0)).value();
        assert!((rx.value() - expected).abs() < 1e-9, "rx {rx}");
    }

    #[test]
    fn paper_range_anchor_one_mbps_at_1_3km() {
        // 29 dBm + 6 dBi ≈ 35–36 dBm EIRP must land near the −100 dBm floor
        // at 1.3 km: the Fig 1(a) cell edge.
        let env = quiet_env();
        let ap = ap_at(0, 0.0, 0.0);
        let ue = ue_at(1, 1300.0, 0.0);
        let snr = env.mean_snr(&ap, Dbm(30.0), &ue, Hertz::from_mhz(5.0));
        assert!(
            snr.value() > -2.5 && snr.value() < 2.5,
            "edge SNR {snr} out of calibration"
        );
    }

    #[test]
    fn sinr_without_interferers_equals_snr() {
        let env = quiet_env();
        let ap = ap_at(0, 0.0, 0.0);
        let ue = ue_at(1, 400.0, 0.0);
        let tx = Transmission {
            from: ap,
            power: Dbm(30.0),
        };
        let sinr = env.subchannel_sinr(
            &tx,
            &ue,
            &[],
            SubchannelId::new(0),
            Instant::ZERO,
            Hertz::from_mhz(5.0),
        );
        let snr = env.mean_snr(&ap, Dbm(30.0), &ue, Hertz::from_mhz(5.0));
        assert!((sinr.value() - snr.value()).abs() < 1e-9);
    }

    #[test]
    fn equidistant_equal_power_interferer_gives_near_zero_sinr() {
        let env = quiet_env();
        let serving = ap_at(0, 0.0, 0.0);
        let interferer = ap_at(2, 800.0, 0.0);
        let ue = ue_at(1, 400.0, 0.0);
        let s = Transmission {
            from: serving,
            power: Dbm(30.0),
        };
        let i = Transmission {
            from: interferer,
            power: Dbm(30.0),
        };
        let v = env.subchannel_sinr(
            &s,
            &ue,
            &[i],
            SubchannelId::new(0),
            Instant::ZERO,
            Hertz::from_mhz(5.0),
        );
        assert!(v.value() < 0.5 && v.value() > -1.0, "sinr {v}");
    }

    #[test]
    fn serving_cell_excluded_from_its_own_interference() {
        let env = quiet_env();
        let serving = ap_at(0, 0.0, 0.0);
        let ue = ue_at(1, 300.0, 0.0);
        let s = Transmission {
            from: serving,
            power: Dbm(30.0),
        };
        // Pass the serving transmission in the interferer list too; it must
        // be filtered by node key.
        let with = env.subchannel_sinr(
            &s,
            &ue,
            &[s],
            SubchannelId::new(0),
            Instant::ZERO,
            Hertz::from_mhz(5.0),
        );
        let without = env.subchannel_sinr(
            &s,
            &ue,
            &[],
            SubchannelId::new(0),
            Instant::ZERO,
            Hertz::from_mhz(5.0),
        );
        assert_eq!(with, without);
    }

    #[test]
    fn sector_antenna_shapes_the_cell() {
        let seeds = SeedSeq::new(11);
        let env = RadioEnvironment {
            pathloss: PathLossModel::tvws_urban(),
            shadowing: Shadowing::disabled(seeds),
            fading: BlockFading::disabled(seeds),
            noise: NoiseModel::typical(),
            frequency: Hertz(700e6),
        };
        let ap = LinkEnd::new(0, Point::ORIGIN, Antenna::paper_sector(0.0));
        let front = ue_at(1, 400.0, 0.0);
        let back = ue_at(2, -400.0, 0.0);
        let f = env.mean_rx_power(&ap, Dbm(29.0), &front);
        let b = env.mean_rx_power(&ap, Dbm(29.0), &back);
        // Parabolic pattern: 27 dB front-to-rear difference (see antenna tests).
        assert!(((f - b).value() - 27.0).abs() < 0.1, "front/back {f} {b}");
    }

    #[test]
    fn fading_moves_subchannels_independently() {
        let seeds = SeedSeq::new(11);
        let env = RadioEnvironment {
            pathloss: PathLossModel::tvws_urban(),
            shadowing: Shadowing::disabled(seeds),
            fading: BlockFading::pedestrian(seeds),
            noise: NoiseModel::typical(),
            frequency: Hertz(700e6),
        };
        let ap = ap_at(0, 0.0, 0.0);
        let ue = ue_at(1, 600.0, 0.0);
        let p0 = env.rx_power(&ap, Dbm(30.0), &ue, SubchannelId::new(0), Instant::ZERO);
        let p1 = env.rx_power(&ap, Dbm(30.0), &ue, SubchannelId::new(1), Instant::ZERO);
        assert_ne!(p0, p1);
    }

    mod budget_props {
        use super::*;
        use proptest::prelude::*;
        use std::f64::consts::PI;

        /// Antenna `kind` 0 is isotropic, 1 the paper's sector, 2 a
        /// narrower sector whose front-to-back clamp binds.
        fn antenna(kind: u8, gain: f64, boresight: f64) -> Antenna {
            match kind {
                0 => Antenna::Isotropic { gain: Db(gain) },
                1 => Antenna::paper_sector(boresight),
                _ => Antenna::Sector {
                    boresight,
                    beamwidth: 65f64.to_radians(),
                    gain: Db(gain),
                    front_to_back: Db(20.0),
                },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Both directions of a budget equal the pre-budget formula
            /// bit for bit, for any placement (coincident ends included),
            /// any pattern at either end, shadowing on or off, and any
            /// power in each direction.
            #[test]
            fn budget_directions_equal_reference_bit_for_bit(
                (ax, ay, bx, by) in (-3e3f64..3e3, -3e3f64..3e3, -3e3f64..3e3, -3e3f64..3e3),
                coincident in any::<bool>(),
                (kind_a, kind_b, gain_a, gain_b) in (0u8..3, 0u8..3, -3.0f64..12.0, -3.0f64..12.0),
                (bore_a, bore_b) in (-PI..PI, -PI..PI),
                (node_a, node_b, shadowed) in (0u32..5_000, 0u32..5_000, any::<bool>()),
                (p_a, p_b) in (-10.0f64..40.0, -10.0f64..40.0),
            ) {
                let seeds = SeedSeq::new(u64::from(node_a) ^ 0x5eed);
                let env = RadioEnvironment {
                    shadowing: if shadowed {
                        Shadowing::new(seeds, 6.0)
                    } else {
                        Shadowing::disabled(seeds)
                    },
                    ..quiet_env()
                };
                let a = LinkEnd::new(node_a, Point::new(ax, ay), antenna(kind_a, gain_a, bore_a));
                let b_at = if coincident { Point::new(ax, ay) } else { Point::new(bx, by) };
                let b = LinkEnd::new(node_b, b_at, antenna(kind_b, gain_b, bore_b));
                let budget = env.link_budget(&a, &b);
                let bits = |p: Dbm| p.value().to_bits();
                prop_assert_eq!(
                    bits(budget.a_to_b(Dbm(p_a))),
                    bits(reference_mean_rx_power(&env, &a, Dbm(p_a), &b))
                );
                prop_assert_eq!(
                    bits(budget.b_to_a(Dbm(p_b))),
                    bits(reference_mean_rx_power(&env, &b, Dbm(p_b), &a))
                );
                prop_assert_eq!(
                    bits(env.mean_rx_power(&b, Dbm(p_b), &a)),
                    bits(reference_mean_rx_power(&env, &b, Dbm(p_b), &a))
                );
            }
        }
    }
}
