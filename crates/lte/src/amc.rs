//! Adaptive modulation and coding: the 4-bit CQI table.
//!
//! The paper's coverage argument (§3.1, Table 1) hinges on LTE's ability
//! to run at code rates far below Wi-Fi's minimum of 1/2: the standard
//! CQI table starts at QPSK rate 78/1024 ≈ 0.076. This module carries the
//! full 3GPP TS 36.213 table 7.2.3-1, the SINR→CQI mapping, and a smooth
//! BLER model calibrated so each CQI hits roughly 10 % BLER at its switch
//! threshold (the standard link-adaptation target).

use cellfi_types::units::Db;

/// Modulation orders available to LTE (release 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol.
    Qam16,
    /// 6 bits/symbol.
    Qam64,
}

impl Modulation {
    /// Raw bits per modulation symbol.
    pub fn bits_per_symbol(self) -> f64 {
        match self {
            Modulation::Qpsk => 2.0,
            Modulation::Qam16 => 4.0,
            Modulation::Qam64 => 6.0,
        }
    }
}

/// A 4-bit channel quality indicator, 1..=15 (0 = out of range).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cqi(pub u8);

impl Cqi {
    /// Out-of-range indicator: the UE cannot decode even CQI 1.
    pub const OUT_OF_RANGE: Cqi = Cqi(0);

    /// Highest CQI.
    pub const MAX: Cqi = Cqi(15);

    /// True when the channel supports some transmission.
    pub fn usable(self) -> bool {
        self.0 >= 1
    }
}

/// One row of the CQI table.
#[derive(Debug, Clone, Copy)]
pub struct CqiEntry {
    /// CQI index, 1..=15.
    pub cqi: Cqi,
    /// Modulation for this CQI.
    pub modulation: Modulation,
    /// Code rate × 1024 (as specified in TS 36.213).
    pub code_rate_x1024: u32,
    /// Spectral efficiency in information bits per resource element.
    pub efficiency: f64,
    /// SINR at which this CQI reaches the 10 % BLER target.
    pub sinr_threshold: Db,
}

/// TS 36.213 table 7.2.3-1 with standard link-level SINR thresholds
/// (≈ 2 dB spacing from −6.7 dB to +21 dB, the usual ns-3/vendor
/// calibration).
const TABLE: [CqiEntry; 15] = [
    entry(1, Modulation::Qpsk, 78, 0.1523, -6.7),
    entry(2, Modulation::Qpsk, 120, 0.2344, -4.7),
    entry(3, Modulation::Qpsk, 193, 0.3770, -2.3),
    entry(4, Modulation::Qpsk, 308, 0.6016, 0.2),
    entry(5, Modulation::Qpsk, 449, 0.8770, 2.4),
    entry(6, Modulation::Qpsk, 602, 1.1758, 4.3),
    entry(7, Modulation::Qam16, 378, 1.4766, 5.9),
    entry(8, Modulation::Qam16, 490, 1.9141, 8.1),
    entry(9, Modulation::Qam16, 616, 2.4063, 10.3),
    entry(10, Modulation::Qam64, 466, 2.7305, 11.7),
    entry(11, Modulation::Qam64, 567, 3.3223, 14.1),
    entry(12, Modulation::Qam64, 666, 3.9023, 16.3),
    entry(13, Modulation::Qam64, 772, 4.5234, 18.7),
    entry(14, Modulation::Qam64, 873, 5.1152, 21.0),
    entry(15, Modulation::Qam64, 948, 5.5547, 22.7),
];

const fn entry(
    cqi: u8,
    modulation: Modulation,
    code_rate_x1024: u32,
    efficiency: f64,
    sinr_threshold_db: f64,
) -> CqiEntry {
    CqiEntry {
        cqi: Cqi(cqi),
        modulation,
        code_rate_x1024,
        efficiency,
        sinr_threshold: Db(sinr_threshold_db),
    }
}

/// The CQI/AMC table with SINR mapping and BLER model.
///
/// ```
/// use cellfi_lte::amc::{Cqi, CqiTable};
/// use cellfi_types::units::Db;
/// let t = CqiTable;
/// // A −5 dB cell-edge link still decodes — below anything Wi-Fi offers.
/// let cqi = t.cqi_for_sinr(Db(-5.0));
/// assert!(cqi.usable());
/// assert!(t.code_rate(cqi) < 0.5);
/// // A strong link runs 64QAM near rate-1.
/// assert_eq!(t.cqi_for_sinr(Db(25.0)), Cqi(15));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CqiTable;

impl CqiTable {
    /// All 15 entries, CQI 1 first.
    pub fn entries(&self) -> &'static [CqiEntry; 15] {
        &TABLE
    }

    /// Entry for a CQI index. Panics on CQI 0 (out of range has no MCS).
    pub fn entry(&self, cqi: Cqi) -> &'static CqiEntry {
        assert!(cqi.usable(), "CQI 0 has no MCS");
        &TABLE[(cqi.0 - 1) as usize]
    }

    /// The highest CQI whose threshold is at or below `sinr` — what an
    /// ideal UE reports. CQI 0 when below even CQI 1's threshold.
    pub fn cqi_for_sinr(&self, sinr: Db) -> Cqi {
        let mut best = Cqi::OUT_OF_RANGE;
        for e in TABLE.iter() {
            if sinr.value() >= e.sinr_threshold.value() {
                best = e.cqi;
            } else {
                break;
            }
        }
        best
    }

    /// Code rate (0..1) for a CQI.
    pub fn code_rate(&self, cqi: Cqi) -> f64 {
        f64::from(self.entry(cqi).code_rate_x1024) / 1024.0
    }

    /// Spectral efficiency (information bits per RE) for a CQI.
    pub fn efficiency(&self, cqi: Cqi) -> f64 {
        self.entry(cqi).efficiency
    }

    /// Block error rate for transmitting at `cqi`'s MCS over a channel of
    /// quality `sinr`. Sigmoid in dB around the CQI threshold:
    /// 10 % at the threshold, →0 well above, →1 well below.
    pub fn bler(&self, cqi: Cqi, sinr: Db) -> f64 {
        let thr = self.entry(cqi).sinr_threshold;
        // Slope ~0.6 dB per decade of BLER change: a typical turbo-code
        // waterfall width of ~1.5 dB between 90 % and 10 % BLER.
        let x = (sinr.value() - thr.value()) / 0.65;
        let base = 1.0 / (1.0 + (x + 2.197).exp()); // ln(9) ≈ 2.197 centres 10 % at thr
        base.clamp(0.0, 1.0)
    }

    /// Goodput in information bits per resource element when transmitting
    /// at `cqi` over `sinr`: efficiency × (1 − BLER). The paper's Fig 7
    /// metric ("bit/symbol = coding rate × (1 − BLER)") up to the
    /// modulation factor.
    pub fn goodput_per_re(&self, cqi: Cqi, sinr: Db) -> f64 {
        self.efficiency(cqi) * (1.0 - self.bler(cqi, sinr))
    }
}

/// The CQI table's SINR grid, inverted into the linear domain.
///
/// `cqi_for_linear(r)` returns exactly `CqiTable::cqi_for_sinr(Db(10·log10 r))`
/// for every ratio `r`, NaN included, without the `log10`. The dB
/// thresholds are bisected once, at construction: each is mapped to the
/// smallest positive f64 whose dB value reaches it (bisection over the
/// monotone bit patterns of positive floats). Each lookup is then a binary
/// search over those ascending bounds, so the comparison moves to the
/// linear domain with zero transcendental math and zero behaviour change.
#[derive(Debug, Clone)]
pub struct LinearCqiMap {
    /// `bounds[i]` is the smallest linear ratio reporting CQI `i+1`.
    bounds: [f64; 15],
}

impl LinearCqiMap {
    /// Invert `table`'s SINR thresholds into linear-ratio boundaries.
    pub fn new(table: &CqiTable) -> LinearCqiMap {
        let mut bounds = [0.0; 15];
        for (b, e) in bounds.iter_mut().zip(table.entries().iter()) {
            *b = smallest_linear_at_or_above(e.sinr_threshold);
        }
        LinearCqiMap { bounds }
    }

    /// The CQI an ideal UE reports for a linear SINR ratio; equivalent to
    /// `cqi_for_sinr` on `10·log10(ratio)`. A binary search: the bounds
    /// ascend, so the ones at or below `ratio` are a prefix, and its
    /// length is the CQI (0 for NaN: no bound is at or below it).
    #[inline]
    pub fn cqi_for_linear(&self, ratio: f64) -> Cqi {
        Cqi(self.bounds.partition_point(|&b| b <= ratio) as u8)
    }
}

impl Default for LinearCqiMap {
    fn default() -> LinearCqiMap {
        LinearCqiMap::new(&CqiTable)
    }
}

/// Smallest positive f64 `x` with `10·log10(x) >= thr`. Positive f64 bit
/// patterns order identically to their values and `log10` is monotone, so
/// binary search over the bit space finds the exact boundary.
fn smallest_linear_at_or_above(thr: Db) -> f64 {
    let at_or_above = |bits: u64| {
        let x = f64::from_bits(bits);
        10.0 * x.log10() >= thr.value()
    };
    let mut lo = 1u64; // smallest positive subnormal: far below any threshold
    let mut hi = f64::to_bits(1e30); // far above the 22.7 dB top threshold
    debug_assert!(!at_or_above(lo) && at_or_above(hi));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if at_or_above(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: CqiTable = CqiTable;

    #[test]
    fn table_has_fifteen_monotone_entries() {
        let e = T.entries();
        assert_eq!(e.len(), 15);
        for w in e.windows(2) {
            assert!(w[1].efficiency > w[0].efficiency, "efficiency not monotone");
            assert!(
                w[1].sinr_threshold.value() > w[0].sinr_threshold.value(),
                "thresholds not monotone"
            );
        }
    }

    #[test]
    fn lowest_code_rate_far_below_wifi_minimum() {
        // Table 1: LTE coding rate ≥ 0.1 vs 802.11af ≥ 0.5.
        assert!(T.code_rate(Cqi(1)) < 0.1);
        assert!((T.code_rate(Cqi(1)) - 78.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn median_coverage_code_rate_near_half() {
        // Fig 1(b): the median code rate in the drive test was 1/2. CQI 7
        // (16QAM 378/1024 ≈ 0.37) and CQI 5/6 (QPSK 0.44/0.59) bracket it.
        assert!((T.code_rate(Cqi(6)) - 0.588).abs() < 0.01);
        assert!((T.code_rate(Cqi(5)) - 0.438).abs() < 0.01);
    }

    #[test]
    fn cqi_for_sinr_brackets() {
        assert_eq!(T.cqi_for_sinr(Db(-10.0)), Cqi::OUT_OF_RANGE);
        assert_eq!(T.cqi_for_sinr(Db(-6.7)), Cqi(1));
        assert_eq!(T.cqi_for_sinr(Db(0.0)), Cqi(3));
        assert_eq!(T.cqi_for_sinr(Db(30.0)), Cqi(15));
    }

    #[test]
    fn cqi_for_sinr_is_monotone() {
        let mut last = Cqi(0);
        for i in -15..30 {
            let c = T.cqi_for_sinr(Db(f64::from(i)));
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn selected_cqi_meets_bler_target_at_threshold() {
        for e in T.entries() {
            let b = T.bler(e.cqi, e.sinr_threshold);
            assert!((b - 0.1).abs() < 0.01, "CQI {} BLER {b}", e.cqi.0);
        }
    }

    #[test]
    fn bler_waterfall_shape() {
        let cqi = Cqi(7);
        let thr = T.entry(cqi).sinr_threshold;
        assert!(T.bler(cqi, thr + Db(5.0)) < 0.001);
        assert!(T.bler(cqi, thr - Db(5.0)) > 0.95);
        // Monotone decreasing in SINR.
        let mut last = 1.0;
        for i in 0..40 {
            let b = T.bler(cqi, thr + Db(f64::from(i) * 0.5 - 10.0));
            assert!(b <= last + 1e-12);
            last = b;
        }
    }

    #[test]
    fn goodput_peaks_at_matched_cqi() {
        // At a given SINR, the ideal CQI choice should (near-)maximize
        // goodput among all CQIs — the link adaptation rationale.
        for sinr_db in [-4.0, 0.0, 6.0, 12.0, 20.0] {
            let sinr = Db(sinr_db);
            let chosen = T.cqi_for_sinr(sinr);
            if !chosen.usable() {
                continue;
            }
            let chosen_gp = T.goodput_per_re(chosen, sinr);
            for e in T.entries() {
                let gp = T.goodput_per_re(e.cqi, sinr);
                assert!(
                    gp <= chosen_gp * 1.5 + 1e-9,
                    "at {sinr_db} dB, CQI {} gp {gp} >> chosen {} gp {chosen_gp}",
                    e.cqi.0,
                    chosen.0
                );
            }
        }
    }

    #[test]
    fn efficiency_matches_modulation_times_rate() {
        for e in T.entries() {
            let expect = e.modulation.bits_per_symbol() * f64::from(e.code_rate_x1024) / 1024.0;
            assert!(
                (e.efficiency - expect).abs() < 0.01,
                "CQI {}: {} vs {}",
                e.cqi.0,
                e.efficiency,
                expect
            );
        }
    }

    #[test]
    #[should_panic(expected = "CQI 0 has no MCS")]
    fn entry_for_cqi0_panics() {
        let _ = T.entry(Cqi::OUT_OF_RANGE);
    }

    #[test]
    fn linear_map_matches_db_table_on_dense_sweep() {
        let m = LinearCqiMap::default();
        // Dense dB sweep from well below CQI 1 to well above CQI 15.
        for i in -3000..=3000 {
            let db = f64::from(i) / 100.0;
            let ratio = Db(db).to_linear();
            assert_eq!(
                m.cqi_for_linear(ratio),
                T.cqi_for_sinr(Db(10.0 * ratio.log10())),
                "divergence near {db} dB"
            );
        }
    }

    #[test]
    fn linear_map_matches_db_table_at_boundary_neighbours() {
        // The exactness claim is strongest at the bisected boundaries:
        // walk a few ulps either side of every threshold.
        let m = LinearCqiMap::default();
        for e in T.entries() {
            let b = m.bounds[(e.cqi.0 - 1) as usize];
            for bits in (b.to_bits() - 4)..=(b.to_bits() + 4) {
                let r = f64::from_bits(bits);
                assert_eq!(
                    m.cqi_for_linear(r),
                    T.cqi_for_sinr(Db(10.0 * r.log10())),
                    "divergence {} ulps from CQI {} boundary",
                    bits as i64 - b.to_bits() as i64,
                    e.cqi.0
                );
            }
        }
    }

    #[test]
    fn linear_map_matches_db_table_at_the_edges_of_f64() {
        // The binary search must agree with the dB table where the dB
        // value is NaN (NaN, negative ratios), −∞ (±0.0) or beyond every
        // threshold.
        let m = LinearCqiMap::default();
        let edges = [
            f64::NAN,
            -1.0,
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
        ];
        for r in edges {
            assert_eq!(
                m.cqi_for_linear(r),
                T.cqi_for_sinr(Db(10.0 * r.log10())),
                "ratio {r:e}"
            );
        }
        assert_eq!(m.cqi_for_linear(f64::NAN), Cqi::OUT_OF_RANGE);
        assert_eq!(m.cqi_for_linear(f64::INFINITY), Cqi::MAX);
    }

    #[test]
    fn linear_map_boundary_is_tight() {
        // bounds[i] reaches the threshold; one ulp below does not.
        let m = LinearCqiMap::default();
        for e in T.entries() {
            let b = m.bounds[(e.cqi.0 - 1) as usize];
            let thr = e.sinr_threshold.value();
            assert!(10.0 * b.log10() >= thr);
            let below = f64::from_bits(b.to_bits() - 1);
            assert!(10.0 * below.log10() < thr);
        }
    }
}
