//! PRACH: Zadoff–Chu preambles and the paper's low-complexity detector.
//!
//! CellFi estimates the number of contending clients by *overhearing*
//! PRACH preambles of clients it is not serving (§5.1, §6.3.3). The
//! challenge: an eavesdropping access point knows neither the preamble
//! sequence number nor the timing. The paper's trick exploits Zadoff–Chu
//! structure — a time offset of the received preamble appears as a phase
//! ramp, and both the cyclic shift (preamble id) and the delay show up as
//! a single shifted correlation peak. So the detector only needs to
//! compute the correlation power profile against the *root* sequence and
//! check its peak: "one \[correlation\] to detect the most likely cyclic
//! shift and another to check its correlation value".
//!
//! This module implements:
//!
//! * ZC root sequence and cyclically shifted preamble generation
//!   (`N_ZC = 839`, format 0);
//! * an AWGN channel for Monte-Carlo detection tests;
//! * [`PrachDetector`] — the frequency-domain correlation detector with a
//!   peak-to-average threshold, timing- and sequence-number-free;
//! * [`detection_threshold_snr`] / [`heard`] — the −10 dB rule the
//!   system simulations use for neighbour-client counting (§6.3.4).

use cellfi_types::units::Db;
use rand::Rng;

/// ZC sequence length for preamble formats 0–3 (TS 36.211).
pub const N_ZC: usize = 839;

/// PRACH format 0 useful-part duration: 800 µs. One correlation per
/// occasion must complete within this to keep up with line rate.
pub const PREAMBLE_DURATION_US: f64 = 800.0;

pub use crate::dsp::Complex;

/// Generate ZC root sequence `u`: `x_u(n) = e^{−jπ u n(n+1)/N_ZC}`.
pub fn zc_root(u: u32) -> Vec<Complex> {
    assert!(u >= 1 && (u as usize) < N_ZC, "root must be 1..N_ZC");
    (0..N_ZC)
        .map(|n| {
            let n = n as f64;
            let phase = -std::f64::consts::PI * f64::from(u) * n * (n + 1.0) / N_ZC as f64;
            Complex::cis(phase)
        })
        .collect()
}

/// A preamble: the root cyclically shifted by `shift` samples
/// (`x_{u,v}(n) = x_u((n + C_v) mod N_ZC)`).
pub fn preamble(root: &[Complex], shift: usize) -> Vec<Complex> {
    assert_eq!(root.len(), N_ZC);
    (0..N_ZC).map(|n| root[(n + shift) % N_ZC]).collect()
}

/// Apply a further *time* offset (circular, modelling unknown arrival
/// time within the observation window) and AWGN at the given per-sample
/// SNR. Returns the received samples.
pub fn awgn_channel<R: Rng>(
    tx: &[Complex],
    time_offset: usize,
    snr: Db,
    rng: &mut R,
) -> Vec<Complex> {
    let n = tx.len();
    let noise_power = 1.0 / snr.to_linear(); // signal power is 1 per sample
    let sigma = (noise_power / 2.0).sqrt();
    (0..n)
        .map(|i| {
            let s = tx[(i + time_offset) % n];
            let (g1, g2) = gaussian_pair(rng);
            s + Complex::new(g1 * sigma, g2 * sigma)
        })
        .collect()
}

/// Noise-only samples of unit noise power.
pub fn noise_only<R: Rng>(n: usize, rng: &mut R) -> Vec<Complex> {
    let sigma = (0.5f64).sqrt();
    (0..n)
        .map(|_| {
            let (g1, g2) = gaussian_pair(rng);
            Complex::new(g1 * sigma, g2 * sigma)
        })
        .collect()
}

fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let th = 2.0 * std::f64::consts::PI * u2;
    (r * th.cos(), r * th.sin())
}

/// Result of a detection attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Whether a preamble was declared present.
    pub detected: bool,
    /// The most likely combined cyclic shift (preamble id ⊕ delay).
    pub shift: usize,
    /// Peak-to-average power ratio of the correlation profile.
    pub peak_to_average: f64,
}

/// The timing-free PRACH detector.
///
/// ```
/// use cellfi_lte::prach::{zc_root, preamble, PrachDetector};
/// let det = PrachDetector::new(129);
/// // A preamble with unknown cyclic shift is found, shift recovered.
/// let rx = preamble(&zc_root(129), 419);
/// let d = det.detect(&rx);
/// assert!(d.detected);
/// assert_eq!(d.shift, 419);
/// ```
///
/// Correlates the received window against the known root sequence for
/// every cyclic shift (the circular cross-correlation power profile) and
/// declares a preamble when the profile's peak-to-average ratio exceeds
/// the threshold. The shift of the peak is the combined preamble-id/delay
/// shift — exactly what the paper's detector recovers, and all it needs,
/// since CellFi only counts *that a client raced*, not which one.
#[derive(Debug, Clone)]
pub struct PrachDetector {
    root_conj: Vec<Complex>,
    /// [`CONV_LEN`]-point FFT of the correlation kernel
    /// `g[i] = root*[N_ZC−1−i]` (precomputed once per root).
    kernel_fft: Vec<Complex>,
    /// Shared radix-2 plan for the convolution FFTs.
    plan: std::sync::Arc<crate::dsp::Pow2Plan>,
    /// Peak-to-average ratio above which a preamble is declared.
    pub threshold: f64,
}

/// FFT length of the detector's correlation convolution. The profile
/// needs linear-convolution lags `N_ZC−1 .. 2·N_ZC−2` of a
/// `(2·N_ZC−1)`-sample window against an `N_ZC`-tap kernel; a
/// `CONV_LEN`-point circular convolution only aliases lags below
/// `3·N_ZC−2−CONV_LEN < N_ZC−1`, so every needed lag is exact. This is
/// the smallest power of two with that property (`CONV_LEN > 2·N_ZC−2`).
const CONV_LEN: usize = 2048;

impl PrachDetector {
    /// Detector for ZC root `u`. With the default threshold of 20 the
    /// noise-only false-alarm probability per window is ~1e-6 (the profile
    /// bins are iid exponential under noise, so `P(max > 20·mean) ≈
    /// 839·e^−20`), while the 839-chip coherent gain keeps the peak around
    /// 80× the bin mean even at −10 dB SNR.
    pub fn new(u: u32) -> PrachDetector {
        let root = zc_root(u);
        let plan = crate::dsp::pow2_plan(CONV_LEN);
        // Time-reversed conjugate root: convolution with it is
        // correlation with the root.
        let mut kernel = vec![Complex::default(); CONV_LEN];
        for (i, c) in kernel.iter_mut().take(N_ZC).enumerate() {
            *c = root[N_ZC - 1 - i].conj();
        }
        plan.fft(&mut kernel, false);
        PrachDetector {
            root_conj: root.iter().map(|c| c.conj()).collect(),
            kernel_fft: kernel,
            plan,
            threshold: 20.0,
        }
    }

    /// Circular cross-correlation power profile `P(s) = |Σ_n y(n+s)·x*(n)|²`.
    ///
    /// Rather than prime-length DFTs (Bluestein costs four power-of-two
    /// FFTs per profile: two in the forward DFT, two in the inverse),
    /// the circular correlation is computed directly as a linear
    /// convolution of the doubled window `rx ∥ rx[..N_ZC−1]` with the
    /// time-reversed conjugate root, whose spectrum is precomputed. That
    /// is **two** [`CONV_LEN`]-point FFTs per window — the optimisation
    /// that lifts the detector well past line rate (`cellfi-bench`'s
    /// `lte.prach.line_rate_x` row): `P(s) = |conv[s + N_ZC − 1]|²`.
    pub fn correlation_profile(&self, rx: &[Complex]) -> Vec<f64> {
        assert_eq!(rx.len(), N_ZC, "expected one {N_ZC}-sample window");
        let mut y = vec![Complex::default(); CONV_LEN];
        for (j, c) in y.iter_mut().take(2 * N_ZC - 1).enumerate() {
            *c = rx[j % N_ZC];
        }
        self.plan.fft(&mut y, false);
        for (a, b) in y.iter_mut().zip(&self.kernel_fft) {
            *a = *a * *b;
        }
        self.plan.fft(&mut y, true);
        y[N_ZC - 1..]
            .iter()
            .take(N_ZC)
            .map(|c| c.norm_sq())
            .collect()
    }

    /// Reference O(N²) time-domain profile (tests check the FFT path
    /// against it).
    pub fn correlation_profile_naive(&self, rx: &[Complex]) -> Vec<f64> {
        let n = N_ZC;
        assert_eq!(rx.len(), n, "expected one {n}-sample window");
        let mut profile = vec![0.0f64; n];
        for (s, p) in profile.iter_mut().enumerate() {
            let mut acc = Complex::default();
            for i in 0..n {
                acc = acc + rx[(i + s) % n] * self.root_conj[i];
            }
            *p = acc.norm_sq();
        }
        profile
    }

    /// Run detection on one received window: the paper's "two
    /// correlations" — find the most likely shift, then test its value.
    pub fn detect(&self, rx: &[Complex]) -> Detection {
        let profile = self.correlation_profile(rx);
        let mut peak = 0.0f64;
        let mut arg = 0usize;
        let mut total = 0.0f64;
        for (s, &p) in profile.iter().enumerate() {
            total += p;
            if p > peak {
                peak = p;
                arg = s;
            }
        }
        let mean = total / profile.len() as f64;
        let par = if mean > 0.0 { peak / mean } else { 0.0 };
        // The profile peaks at lag `s` where rx advanced by `s` aligns with
        // the root, i.e. at `N_ZC − shift`; convert back to the shift that
        // was applied to the root.
        Detection {
            detected: par > self.threshold,
            shift: (N_ZC - arg) % N_ZC,
            peak_to_average: par,
        }
    }
}

/// The SNR above which the system simulations count an overheard client
/// ("we count only the users whose PRACH can be heard at −10 dB", §6.3.4).
pub const fn detection_threshold_snr() -> Db {
    Db(-10.0)
}

/// The neighbour-counting rule: an access point hears a client's PRACH
/// when the client's per-sample SNR at the AP is at least −10 dB.
pub fn heard(snr_at_ap: Db) -> bool {
    snr_at_ap.value() >= detection_threshold_snr().value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn zc_sequences_have_unit_amplitude() {
        let root = zc_root(129);
        for c in &root {
            assert!((c.norm_sq() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zc_ideal_autocorrelation() {
        // Periodic autocorrelation of a ZC root is zero at all non-zero lags.
        let root = zc_root(129);
        for lag in [1usize, 7, 100, 418] {
            let mut acc = Complex::default();
            for n in 0..N_ZC {
                acc = acc + root[(n + lag) % N_ZC] * root[n].conj();
            }
            assert!(
                acc.norm_sq() < 1e-12 * (N_ZC as f64).powi(2),
                "lag {lag}: {}",
                acc.norm_sq()
            );
        }
    }

    #[test]
    fn clean_preamble_detected_with_correct_shift() {
        let det = PrachDetector::new(129);
        let root = zc_root(129);
        for shift in [0usize, 13, 419, 800] {
            let tx = preamble(&root, shift);
            let d = det.detect(&tx);
            assert!(d.detected, "shift {shift} not detected");
            assert_eq!(d.shift, shift);
        }
    }

    #[test]
    fn time_offset_appears_as_shift_not_miss() {
        // The paper's key point: unknown timing does not break detection;
        // it only moves the peak.
        let det = PrachDetector::new(129);
        let root = zc_root(129);
        let tx = preamble(&root, 100);
        let mut r = rng(1);
        let rx = awgn_channel(&tx, 250, Db(20.0), &mut r);
        let d = det.detect(&rx);
        assert!(d.detected);
        assert_eq!(d.shift, (100 + 250) % N_ZC);
    }

    #[test]
    fn detects_reliably_at_minus_10_db() {
        // The paper (citing [21]) uses −10 dB as the reliable-detection
        // point; the 839-chip correlation gain (~29 dB) makes this easy.
        let det = PrachDetector::new(129);
        let root = zc_root(129);
        let mut r = rng(2);
        let mut hits = 0;
        let trials = 40;
        for t in 0..trials {
            let tx = preamble(&root, (t * 37) % N_ZC);
            let rx = awgn_channel(&tx, (t * 91) % N_ZC, detection_threshold_snr(), &mut r);
            if det.detect(&rx).detected {
                hits += 1;
            }
        }
        assert!(hits >= trials * 95 / 100, "hits {hits}/{trials}");
    }

    #[test]
    fn noise_only_rarely_fires() {
        let det = PrachDetector::new(129);
        let mut r = rng(3);
        let mut alarms = 0;
        for _ in 0..30 {
            let rx = noise_only(N_ZC, &mut r);
            if det.detect(&rx).detected {
                alarms += 1;
            }
        }
        assert_eq!(alarms, 0, "false alarms on pure noise");
    }

    #[test]
    fn misses_deeply_buried_preamble() {
        // At −30 dB even the correlation gain is not enough; detection
        // should mostly fail (sanity check that the test isn't vacuous).
        let det = PrachDetector::new(129);
        let root = zc_root(129);
        let mut r = rng(4);
        let mut hits = 0;
        for t in 0..20 {
            let tx = preamble(&root, (t * 11) % N_ZC);
            let rx = awgn_channel(&tx, 0, Db(-30.0), &mut r);
            if det.detect(&rx).detected {
                hits += 1;
            }
        }
        assert!(hits <= 4, "hits {hits} at -30 dB");
    }

    #[test]
    fn foreign_root_not_detected() {
        // A preamble built from a different root correlates flat — the
        // detector is root-specific, matching per-cell root planning.
        let det = PrachDetector::new(129);
        let other = zc_root(130);
        let tx = preamble(&other, 50);
        let d = det.detect(&tx);
        assert!(!d.detected, "cross-root PAR {}", d.peak_to_average);
    }

    #[test]
    fn fft_profile_matches_naive() {
        let det = PrachDetector::new(129);
        let root = zc_root(129);
        let mut r = rng(8);
        let rx = awgn_channel(&preamble(&root, 321), 77, Db(-5.0), &mut r);
        let fast = det.correlation_profile(&rx);
        let slow = det.correlation_profile_naive(&rx);
        let scale: f64 = slow.iter().sum::<f64>() / fast.iter().sum::<f64>();
        assert!((scale - 1.0).abs() < 1e-6, "global scale {scale}");
        for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * slow.iter().cloned().fold(0.0, f64::max),
                "bin {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn heard_rule_matches_paper_threshold() {
        assert!(heard(Db(-10.0)));
        assert!(heard(Db(0.0)));
        assert!(!heard(Db(-10.1)));
    }

    #[test]
    #[should_panic(expected = "root must be")]
    fn invalid_root_panics() {
        let _ = zc_root(0);
    }
}
