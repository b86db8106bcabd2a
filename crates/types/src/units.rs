//! Strongly typed radio units.
//!
//! Link-budget arithmetic mixes logarithmic (dB, dBm) and linear (mW, Hz)
//! quantities; confusing the two is the classic propagation-model bug. The
//! newtypes here make the legal operations explicit:
//!
//! * `Dbm + Db = Dbm` (apply a gain/loss to a power level)
//! * `Dbm - Dbm = Db` (ratio of two power levels)
//! * `Dbm ↔ MilliWatts` (log/linear conversion)
//!
//! All types are `Copy` floats underneath; they exist for clarity, not for
//! performance games.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A power level in decibel-milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Dbm(pub f64);

/// A power ratio (gain or loss) in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Db(pub f64);

/// A linear power in milliwatts. Never negative in a valid link budget.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct MilliWatts(pub f64);

/// A frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Hertz(pub f64);

/// A distance in metres.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Meters(pub f64);

impl Dbm {
    /// The conventional "no signal" floor used when a sum of powers is zero.
    pub const FLOOR: Dbm = Dbm(-300.0);

    /// Convert to linear milliwatts: `10^(dBm/10)`.
    #[inline]
    pub fn to_milliwatts(self) -> MilliWatts {
        MilliWatts(10f64.powf(self.0 / 10.0))
    }

    /// Raw dBm value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The larger of two power levels.
    pub fn max(self, other: Dbm) -> Dbm {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two power levels.
    pub fn min(self, other: Dbm) -> Dbm {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl MilliWatts {
    /// Zero power.
    pub const ZERO: MilliWatts = MilliWatts(0.0);

    /// Convert to dBm: `10·log10(mW)`. Zero or negative power maps to
    /// [`Dbm::FLOOR`] rather than −∞ so downstream comparisons stay finite.
    #[inline]
    pub fn to_dbm(self) -> Dbm {
        if self.0 <= 0.0 {
            Dbm::FLOOR
        } else {
            Dbm(10.0 * self.0.log10())
        }
    }

    /// Raw milliwatt value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Db {
    /// Zero gain.
    pub const ZERO: Db = Db(0.0);

    /// Convert a ratio in dB to a linear factor: `10^(dB/10)`.
    #[inline]
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Build from a linear power ratio.
    pub fn from_linear(ratio: f64) -> Db {
        assert!(ratio > 0.0, "linear ratio must be positive, got {ratio}");
        Db(10.0 * ratio.log10())
    }

    /// Raw dB value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Hertz {
    /// Construct from megahertz.
    pub fn from_mhz(mhz: f64) -> Hertz {
        Hertz(mhz * 1e6)
    }

    /// Construct from kilohertz.
    pub fn from_khz(khz: f64) -> Hertz {
        Hertz(khz * 1e3)
    }

    /// Value in megahertz.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// Raw hertz value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Meters {
    /// Raw metre value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Db {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Add for MilliWatts {
    type Output = MilliWatts;
    fn add(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts(self.0 + rhs.0)
    }
}

impl AddAssign for MilliWatts {
    fn add_assign(&mut self, rhs: MilliWatts) {
        self.0 += rhs.0;
    }
}

impl Sum for MilliWatts {
    fn sum<I: Iterator<Item = MilliWatts>>(iter: I) -> MilliWatts {
        iter.fold(MilliWatts::ZERO, |a, b| a + b)
    }
}

impl Mul<f64> for MilliWatts {
    type Output = MilliWatts;
    fn mul(self, rhs: f64) -> MilliWatts {
        MilliWatts(self.0 * rhs)
    }
}

impl Div<MilliWatts> for MilliWatts {
    type Output = f64;
    fn div(self, rhs: MilliWatts) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.1} MHz", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.1} kHz", self.0 / 1e3)
        } else {
            write!(f, "{:.0} Hz", self.0)
        }
    }
}

impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.2} km", self.0 / 1000.0)
        } else {
            write!(f, "{:.0} m", self.0)
        }
    }
}

/// Convert a slab of dB-domain values to linear milliwatts in one pass:
/// `out[i] = 10^(db[i]/10)`, bit-identical to [`Dbm::to_milliwatts`] per
/// element. Centralising the batched kernel here keeps `powf` confined to
/// this module and gives the optimizer one straight-line loop over
/// contiguous lanes.
pub fn db_slab_to_mw(db: &[f64], out: &mut [f64]) {
    assert_eq!(db.len(), out.len(), "slab length mismatch in db_slab_to_mw");
    for (o, &d) in out.iter_mut().zip(db) {
        *o = 10f64.powf(d / 10.0);
    }
}

/// Sum a slice of power levels in the linear domain and return the total in
/// dBm. This is the only correct way to aggregate interference power.
///
/// ```
/// use cellfi_types::units::{sum_power, Dbm};
/// // Two equal interferers add 3 dB, not 2×.
/// let total = sum_power(&[Dbm(-90.0), Dbm(-90.0)]);
/// assert!((total.value() - (-86.99)).abs() < 0.02);
/// ```
pub fn sum_power(levels: &[Dbm]) -> Dbm {
    levels
        .iter()
        .map(|d| d.to_milliwatts())
        .sum::<MilliWatts>()
        .to_dbm()
}

/// Signal-to-interference-plus-noise ratio from linear components.
pub fn sinr(signal: MilliWatts, interference: MilliWatts, noise: MilliWatts) -> Db {
    let denom = interference.value() + noise.value();
    assert!(denom > 0.0, "noise floor must be positive");
    Db(10.0 * (signal.value() / denom).log10())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn dbm_to_milliwatts_round_trip() {
        for v in [-120.0, -30.0, 0.0, 23.0, 36.0] {
            let mw = Dbm(v).to_milliwatts();
            assert!(close(mw.to_dbm().0, v, 1e-9), "round trip failed for {v}");
        }
    }

    #[test]
    fn zero_dbm_is_one_milliwatt() {
        assert!(close(Dbm(0.0).to_milliwatts().0, 1.0, 1e-12));
    }

    #[test]
    fn thirty_dbm_is_one_watt() {
        assert!(close(Dbm(30.0).to_milliwatts().0, 1000.0, 1e-9));
    }

    #[test]
    fn zero_power_maps_to_floor() {
        assert_eq!(MilliWatts::ZERO.to_dbm(), Dbm::FLOOR);
        assert_eq!(MilliWatts(-1.0).to_dbm(), Dbm::FLOOR);
    }

    #[test]
    fn gain_arithmetic() {
        let tx = Dbm(29.0);
        let antenna = Db(6.0);
        let eirp = tx + antenna;
        assert!(close(eirp.0, 35.0, 1e-12));
        let path_loss = Db(136.0);
        let rx = eirp - path_loss;
        assert!(close(rx.0, -101.0, 1e-12));
    }

    #[test]
    fn dbm_difference_is_db() {
        let d = Dbm(-70.0) - Dbm(-90.0);
        assert!(close(d.0, 20.0, 1e-12));
    }

    #[test]
    fn db_linear_round_trip() {
        for v in [-20.0, -3.0, 0.0, 3.0, 10.0, 30.0] {
            let lin = Db(v).to_linear();
            assert!(close(Db::from_linear(lin).0, v, 1e-9));
        }
    }

    #[test]
    fn three_db_doubles_power() {
        assert!(close(Db(3.0103).to_linear(), 2.0, 1e-3));
    }

    #[test]
    fn sum_power_of_equal_signals_adds_three_db() {
        let total = sum_power(&[Dbm(-90.0), Dbm(-90.0)]);
        assert!(close(total.0, -86.99, 0.02));
    }

    #[test]
    fn sum_power_dominated_by_strongest() {
        let total = sum_power(&[Dbm(-60.0), Dbm(-100.0)]);
        assert!(close(total.0, -60.0, 0.01));
    }

    #[test]
    fn sum_power_empty_is_floor() {
        assert_eq!(sum_power(&[]), Dbm::FLOOR);
    }

    #[test]
    fn sinr_noise_limited() {
        let s = Dbm(-90.0).to_milliwatts();
        let n = Dbm(-100.0).to_milliwatts();
        let v = sinr(s, MilliWatts::ZERO, n);
        assert!(close(v.0, 10.0, 1e-9));
    }

    #[test]
    fn sinr_interference_limited() {
        let s = Dbm(-80.0).to_milliwatts();
        let i = Dbm(-85.0).to_milliwatts();
        let n = Dbm(-120.0).to_milliwatts();
        let v = sinr(s, i, n);
        assert!(close(v.0, 5.0, 0.02));
    }

    #[test]
    fn hertz_constructors() {
        assert!(close(Hertz::from_mhz(5.0).value(), 5e6, 1e-6));
        assert!(close(Hertz::from_khz(180.0).value(), 180e3, 1e-6));
        assert!(close(Hertz::from_mhz(5.0).mhz(), 5.0, 1e-12));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dbm(-93.25)), "-93.2 dBm");
        assert_eq!(format!("{}", Db(6.0)), "6.0 dB");
        assert_eq!(format!("{}", Hertz::from_mhz(5.0)), "5.0 MHz");
        assert_eq!(format!("{}", Meters(1300.0)), "1.30 km");
        assert_eq!(format!("{}", Meters(250.0)), "250 m");
    }

    #[test]
    fn db_slab_to_mw_matches_scalar_conversion_bitwise() {
        let db: Vec<f64> = (-1200..=360).map(|i| f64::from(i) / 10.0).collect();
        let mut out = vec![0.0; db.len()];
        db_slab_to_mw(&db, &mut out);
        for (&d, &o) in db.iter().zip(&out) {
            assert_eq!(
                o.to_bits(),
                Dbm(d).to_milliwatts().value().to_bits(),
                "slab kernel diverged from Dbm::to_milliwatts at {d} dBm"
            );
        }
    }

    #[test]
    fn min_max() {
        assert_eq!(Dbm(-60.0).max(Dbm(-70.0)), Dbm(-60.0));
        assert_eq!(Dbm(-60.0).min(Dbm(-70.0)), Dbm(-70.0));
    }
}
