//! Per-subchannel block fading.
//!
//! Small-scale fading is what makes OFDMA worth having: different 180 kHz
//! resource blocks fade independently, so an LTE scheduler can put a weak
//! client on whichever subchannel currently peaks (paper §3.1, Fig 1c).
//! It also drives two paper mechanisms directly:
//!
//! * the CQI interference detector must not confuse a fade with an
//!   interferer (Fig 8), and
//! * Theorem 1's fading assumption — a freshly acquired subchannel is
//!   unusable with probability `p`, independently across hops.
//!
//! We model block fading: the power gain on a (link, subchannel) pair is
//! constant within a coherence block and redrawn independently across
//! blocks. Gains are Rayleigh (power ~ Exp(1)) by default, or Rician with
//! K-factor for strong line-of-sight links. Everything is derived
//! deterministically from (seed, link, subchannel, block index), so runs
//! are repeatable and MAC variants see identical channels.

use cellfi_types::rng::SeedSeq;
use cellfi_types::time::{Duration, Instant};
use cellfi_types::units::Db;
use cellfi_types::SubchannelId;
use rand::Rng;
use rand::SeedableRng;

/// Small-scale fading distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingKind {
    /// No fading: unit power gain. For exact-budget unit tests.
    None,
    /// Rayleigh fading: power gain ~ Exp(1) (0 dB mean).
    Rayleigh,
    /// Rician fading with linear K-factor (LOS-to-scatter power ratio).
    Rician {
        /// Ratio of line-of-sight power to scattered power (linear).
        k: f64,
    },
}

/// Deterministic per-(link, subchannel) block-fading process.
#[derive(Debug, Clone, Copy)]
pub struct BlockFading {
    kind: FadingKind,
    coherence: Duration,
    /// `seeds.seed("fading")`, hashed once at construction so per-draw
    /// seeding is a pure integer mix (no string hashing in hot loops).
    label_seed: u64,
}

impl BlockFading {
    /// Create a fading process. `coherence` is the block length: gains are
    /// constant within a block, independent across blocks.
    pub fn new(seeds: SeedSeq, kind: FadingKind, coherence: Duration) -> BlockFading {
        assert!(
            coherence > Duration::ZERO,
            "coherence time must be positive"
        );
        BlockFading {
            kind,
            coherence,
            label_seed: seeds.seed("fading"),
        }
    }

    /// Fading disabled (always 0 dB).
    pub fn disabled(seeds: SeedSeq) -> BlockFading {
        BlockFading::new(seeds, FadingKind::None, Duration::from_millis(100))
    }

    /// Pedestrian-speed outdoor default: Rayleigh with 100 ms coherence
    /// (≈ 3 km/h at 700 MHz).
    pub fn pedestrian(seeds: SeedSeq) -> BlockFading {
        BlockFading::new(seeds, FadingKind::Rayleigh, Duration::from_millis(100))
    }

    /// Whether the process is [`FadingKind::None`]: every power gain is
    /// exactly 1.0 at every instant.
    pub fn is_disabled(&self) -> bool {
        matches!(self.kind, FadingKind::None)
    }

    /// The coherence block length.
    pub fn coherence(&self) -> Duration {
        self.coherence
    }

    /// Power gain in dB for the given link (symmetric node pair),
    /// subchannel and instant.
    pub fn gain(&self, a: u32, b: u32, subchannel: SubchannelId, now: Instant) -> Db {
        if self.is_disabled() {
            return Db::ZERO;
        }
        Db(10.0 * self.power(a, b, subchannel, now).max(1e-12).log10())
    }

    /// Linear power gain for the given link, subchannel and instant. The
    /// draw sequence is shared with [`BlockFading::gain`]; `None` fading
    /// reports exactly 1.0.
    pub fn power(&self, a: u32, b: u32, subchannel: SubchannelId, now: Instant) -> f64 {
        if self.is_disabled() {
            return 1.0;
        }
        let key = self
            .lane_base(a, b, now)
            .wrapping_add(u64::from(subchannel.0) << 48);
        let mut rng = rand::rngs::StdRng::seed_from_u64(SeedSeq::seed_with(self.label_seed, key));
        self.draw_power(&mut rng)
    }

    /// Fill `out[s]` with the linear power gain of subchannel `s` for one
    /// link at one instant — the batched form of [`BlockFading::power`]
    /// used by the engine's flat-lane fading refresh. Bit-identical to
    /// per-subchannel `power` calls.
    pub fn fill_power_lane(&self, a: u32, b: u32, now: Instant, out: &mut [f64]) {
        if self.is_disabled() {
            out.fill(1.0);
            return;
        }
        let base = self.lane_base(a, b, now);
        for (s, o) in out.iter_mut().enumerate() {
            let key = base.wrapping_add((s as u64) << 48);
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(SeedSeq::seed_with(self.label_seed, key));
            *o = self.draw_power(&mut rng);
        }
    }

    /// Fold link and block into the subchannel-independent part of the
    /// stream index (the full key adds `subchannel << 48`).
    fn lane_base(&self, a: u32, b: u32, now: Instant) -> u64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let block = now.as_micros() / self.coherence.as_micros();
        let link_key = (u64::from(lo) << 32) | u64::from(hi);
        link_key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(block)
    }

    fn draw_power(&self, rng: &mut rand::rngs::StdRng) -> f64 {
        match self.kind {
            FadingKind::None => 1.0,
            FadingKind::Rayleigh => {
                // Power ~ Exp(1): −ln U.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -u.ln()
            }
            FadingKind::Rician { k } => {
                // Complex Gaussian with LOS component; unit mean power.
                let sigma2 = 1.0 / (2.0 * (k + 1.0));
                let los = (k / (k + 1.0)).sqrt();
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen::<f64>();
                let r = (-2.0 * u1.ln()).sqrt();
                let g_re = r * (2.0 * std::f64::consts::PI * u2).cos() * sigma2.sqrt() + los;
                let g_im = r * (2.0 * std::f64::consts::PI * u2).sin() * sigma2.sqrt();
                g_re * g_re + g_im * g_im
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rayleigh() -> BlockFading {
        BlockFading::pedestrian(SeedSeq::new(7))
    }

    #[test]
    fn constant_within_coherence_block() {
        let f = rayleigh();
        let sc = SubchannelId::new(4);
        let a = f.gain(1, 2, sc, Instant::from_millis(10));
        let b = f.gain(1, 2, sc, Instant::from_millis(99));
        assert_eq!(a, b);
    }

    #[test]
    fn changes_across_blocks() {
        let f = rayleigh();
        let sc = SubchannelId::new(4);
        let a = f.gain(1, 2, sc, Instant::from_millis(10));
        let b = f.gain(1, 2, sc, Instant::from_millis(110));
        assert_ne!(a, b);
    }

    #[test]
    fn independent_across_subchannels() {
        let f = rayleigh();
        let t = Instant::from_millis(5);
        let a = f.gain(1, 2, SubchannelId::new(0), t);
        let b = f.gain(1, 2, SubchannelId::new(1), t);
        assert_ne!(a, b);
    }

    #[test]
    fn symmetric_in_link_endpoints() {
        let f = rayleigh();
        let t = Instant::from_millis(5);
        let sc = SubchannelId::new(3);
        assert_eq!(f.gain(4, 9, sc, t), f.gain(9, 4, sc, t));
    }

    #[test]
    fn disabled_is_zero_db() {
        let f = BlockFading::disabled(SeedSeq::new(1));
        assert!(f.is_disabled() && !rayleigh().is_disabled());
        assert_eq!(
            f.gain(0, 1, SubchannelId::new(0), Instant::from_millis(3)),
            Db::ZERO
        );
    }

    #[test]
    fn power_and_lane_fill_share_the_gain_draw_sequence() {
        for f in [
            rayleigh(),
            BlockFading::new(
                SeedSeq::new(7),
                FadingKind::Rician { k: 4.0 },
                Duration::from_millis(100),
            ),
            BlockFading::disabled(SeedSeq::new(7)),
        ] {
            let t = Instant::from_millis(37);
            let mut lane = vec![0.0; 13];
            f.fill_power_lane(3, 11, t, &mut lane);
            for (s, &p) in lane.iter().enumerate() {
                let sc = SubchannelId::new(s as u32);
                assert_eq!(p.to_bits(), f.power(3, 11, sc, t).to_bits());
                let from_power = Db(10.0 * p.max(1e-12).log10());
                let g = f.gain(3, 11, sc, t);
                assert_eq!(g.value().to_bits(), from_power.value().to_bits());
            }
        }
    }

    #[test]
    fn disabled_power_is_exactly_unity() {
        let f = BlockFading::disabled(SeedSeq::new(5));
        assert_eq!(f.power(0, 1, SubchannelId::new(2), Instant::ZERO), 1.0);
    }

    #[test]
    fn rayleigh_mean_power_is_unity() {
        let f = rayleigh();
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|i| {
                f.gain(i, i + 1_000_000, SubchannelId::new(0), Instant::ZERO)
                    .to_linear()
            })
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 1.0).abs() < 0.08, "mean linear power {mean}");
    }

    #[test]
    fn rician_concentrates_with_large_k() {
        let seeds = SeedSeq::new(3);
        let strong_los = BlockFading::new(
            seeds,
            FadingKind::Rician { k: 50.0 },
            Duration::from_millis(100),
        );
        let n = 2000;
        let var: f64 = {
            let vals: Vec<f64> = (0..n)
                .map(|i| {
                    strong_los
                        .gain(i, i + 500_000, SubchannelId::new(0), Instant::ZERO)
                        .to_linear()
                })
                .collect();
            let mean = vals.iter().sum::<f64>() / f64::from(n);
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / f64::from(n)
        };
        // Rayleigh variance of linear power is 1; K=50 shrinks it hard.
        assert!(var < 0.1, "variance {var} too large for K=50");
    }

    #[test]
    fn deep_fade_probability_matches_exponential() {
        // P(power < 0.1) for Exp(1) is 1 − e^−0.1 ≈ 0.095. This is the `p`
        // in Theorem 1's fading assumption.
        let f = rayleigh();
        let n = 8000;
        let deep = (0..n)
            .filter(|&i| {
                f.gain(i, i + 2_000_000, SubchannelId::new(0), Instant::ZERO)
                    .to_linear()
                    < 0.1
            })
            .count();
        let frac = deep as f64 / f64::from(n);
        assert!((frac - 0.095).abs() < 0.02, "deep fade fraction {frac}");
    }
}
