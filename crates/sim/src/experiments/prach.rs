//! §6.3.3: PRACH preamble detection.
//!
//! Two claims to reproduce with the real detector over synthetic I/Q:
//!
//! * preambles are detected reliably at −10 dB SNR without knowing the
//!   sequence number or timing;
//! * the two-correlation detector is fast — the paper's ran 16× faster
//!   than line rate on an i7 (the `cellfi-bench` benchmark reports ours
//!   as `lte.prach.line_rate_x`).

use super::{ExpConfig, ExpReport};
use crate::report::table;
use cellfi_lte::prach::{awgn_channel, noise_only, preamble, zc_root, PrachDetector, N_ZC};
use cellfi_types::rng::SeedSeq;
use cellfi_types::units::Db;
use rand::SeedableRng;

/// Detection probability at one SNR over `trials` Monte-Carlo runs.
pub fn detection_probability(snr: Db, trials: u32, seed: u64) -> f64 {
    let det = PrachDetector::new(129);
    let root = zc_root(129);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut hits = 0;
    for t in 0..trials {
        let tx = preamble(&root, (t as usize * 37) % N_ZC);
        let rx = awgn_channel(&tx, (t as usize * 91) % N_ZC, snr, &mut rng);
        if det.detect(&rx).detected {
            hits += 1;
        }
    }
    f64::from(hits) / f64::from(trials)
}

/// Run the PRACH experiment.
pub fn run(config: ExpConfig) -> ExpReport {
    let mut rep = ExpReport::new("prach");
    let seeds = SeedSeq::new(config.seed).child("prach");
    let trials = if config.quick { 12 } else { 60 };

    let snrs = [-20.0, -16.0, -13.0, -10.0, -7.0, -4.0, 0.0];
    let mut rows = Vec::new();
    let mut at_minus10 = 0.0;
    for (i, &snr) in snrs.iter().enumerate() {
        let p = detection_probability(Db(snr), trials, seeds.seed_indexed("snr", i as u64));
        if (snr - (-10.0)).abs() < 1e-9 {
            at_minus10 = p;
        }
        rows.push(vec![format!("{snr:.0}"), format!("{:.0}%", p * 100.0)]);
    }

    // False alarms on pure noise.
    let det = PrachDetector::new(129);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seeds.seed("noise"));
    let fa_trials = if config.quick { 20 } else { 100 };
    let alarms = (0..fa_trials)
        .filter(|_| det.detect(&noise_only(N_ZC, &mut rng)).detected)
        .count();

    // Speed (the paper's 16×-line-rate claim) is a wall-clock
    // measurement, so it does not belong in this report: experiment
    // output is byte-reproducible across runs and thread counts, and a
    // timing never is. The `cellfi-bench` benchmark carries the
    // line-rate factor as its `lte.prach.line_rate_x` row.
    rep.text = table(&["SNR (dB)", "detection"], &rows);
    rep.text.push_str(&format!(
        "\nDetection at -10 dB: {:.0}% (paper [21]: reliable at -10 dB)\n\
         False alarms on noise: {alarms}/{fa_trials}\n\
         Detector speed: see lte.prach.line_rate_x in `cellfi-bench run \
         paper_saturated` (paper: 16x line rate on an i7).\n",
        at_minus10 * 100.0
    ));
    rep.record("detection_at_minus10", at_minus10);
    rep.record("false_alarms", alarms as f64);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_curve_is_a_waterfall() {
        let low = detection_probability(Db(-25.0), 10, 1);
        let mid = detection_probability(Db(-10.0), 10, 2);
        let high = detection_probability(Db(0.0), 10, 3);
        assert!(low < 0.5, "low-SNR detection {low}");
        assert!(mid >= 0.9, "-10 dB detection {mid}");
        assert!(high >= 0.9);
    }

    #[test]
    fn report_carries_headline_values() {
        let r = run(ExpConfig {
            seed: 2,
            quick: true,
        });
        assert!(r.values["detection_at_minus10"] >= 0.9);
        assert_eq!(r.values["false_alarms"], 0.0);
        // Speed is deliberately NOT in the report: timings are not
        // byte-reproducible. `cellfi-bench` carries the line rate.
        assert!(!r.values.contains_key("line_rate_ratio"));
    }
}
