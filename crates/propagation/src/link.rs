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
    /// Mean received power (path loss + shadowing + antennas, *no*
    /// fast fading). This is what RSSI measurement, cell association and
    /// carrier sensing react to.
    pub fn mean_rx_power(&self, tx: &LinkEnd, tx_power: Dbm, rx: &LinkEnd) -> Dbm {
        let d = tx.position.distance(rx.position);
        let pl = self.pathloss.path_loss(self.frequency, d);
        let sh = self.shadowing.link_shadow(tx.node, rx.node);
        let g_tx = tx.antenna.gain_towards(tx.position.bearing_to(rx.position));
        let g_rx = rx.antenna.gain_towards(rx.position.bearing_to(tx.position));
        tx_power + g_tx + g_rx - pl - sh
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
}
