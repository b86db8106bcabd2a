//! EARFCN ↔ carrier frequency mapping.
//!
//! After channel selection, "the LTE access point sets the centre
//! frequency (EARFCN) for downlink transmission and announces the uplink
//! frequency in the LTE SIB control message, both in granularity of
//! 100 kHz" (§4.2). We carry the 3GPP band table rows the paper leans on:
//!
//! * **band 13** (746–756 MHz DL) — the band the authors' testbed ran in;
//! * **band 44** (703–803 MHz TDD) — "coincides with part of the TV white
//!   space spectrum in the UK";
//! * a **TVWS pseudo-band** covering the full ETSI 470–790 MHz TV range,
//!   standing in for the future bands the paper anticipates from the US
//!   incentive auction.
//!
//! Mapping follows TS 36.101 §5.7.3: `F = F_low + 0.1·(N − N_offset)` MHz.

use cellfi_types::units::Hertz;

/// A 3GPP (or pseudo) frequency band usable by CellFi.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Band {
    /// FDD band 13 downlink (746–756 MHz), the paper's testbed band.
    Band13,
    /// TDD band 44 (703–803 MHz), overlapping UK TVWS.
    Band44,
    /// Pseudo-band spanning the ETSI TV broadcast range 470–790 MHz,
    /// representing future TVWS LTE allocations.
    Tvws,
}

/// An E-UTRA absolute radio frequency channel number within a band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Earfcn {
    /// The band this EARFCN belongs to.
    pub band: Band,
    /// Channel number.
    pub number: u32,
}

struct BandRow {
    f_low_mhz: f64,
    n_offset: u32,
    n_max: u32,
}

impl Band {
    fn row(self) -> BandRow {
        match self {
            // TS 36.101: band 13 DL F_low 746 MHz, offset 5180, range 5180–5279.
            Band::Band13 => BandRow {
                f_low_mhz: 746.0,
                n_offset: 5180,
                n_max: 5279,
            },
            // Band 44: F_low 703 MHz, offset 45590, range 45590–46589.
            Band::Band44 => BandRow {
                f_low_mhz: 703.0,
                n_offset: 45590,
                n_max: 46589,
            },
            // Pseudo-band: 470–790 MHz in 100 kHz steps from offset 100000.
            Band::Tvws => BandRow {
                f_low_mhz: 470.0,
                n_offset: 100_000,
                n_max: 103_200,
            },
        }
    }

    /// Inclusive EARFCN range of the band.
    pub fn earfcn_range(self) -> (u32, u32) {
        let r = self.row();
        (r.n_offset, r.n_max)
    }

    /// Whether the band is TDD (single frequency for both directions) —
    /// the mode CellFi requires so one TV channel carries both directions.
    pub fn is_tdd(self) -> bool {
        matches!(self, Band::Band44 | Band::Tvws)
    }
}

impl Earfcn {
    /// Construct, validating the number lies in the band.
    pub fn new(band: Band, number: u32) -> Earfcn {
        let (lo, hi) = band.earfcn_range();
        assert!(
            (lo..=hi).contains(&number),
            "EARFCN {number} outside {band:?} range {lo}–{hi}"
        );
        Earfcn { band, number }
    }

    /// Carrier frequency of this channel number.
    pub fn frequency(self) -> Hertz {
        let r = self.band.row();
        Hertz::from_mhz(r.f_low_mhz + 0.1 * f64::from(self.number - r.n_offset))
    }

    /// The EARFCN in `band` closest to `freq` (100 kHz grid).
    pub fn from_frequency(band: Band, freq: Hertz) -> Earfcn {
        let r = band.row();
        let steps = ((freq.mhz() - r.f_low_mhz) / 0.1).round();
        assert!(steps >= 0.0, "frequency below band {band:?}");
        let number = r.n_offset + steps as u32;
        Earfcn::new(band, number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band13_low_edge() {
        let e = Earfcn::new(Band::Band13, 5180);
        assert!((e.frequency().mhz() - 746.0).abs() < 1e-9);
    }

    #[test]
    fn band44_covers_uk_tvws_overlap() {
        let lo = Earfcn::new(Band::Band44, 45590).frequency();
        let hi = Earfcn::new(Band::Band44, 46589).frequency();
        assert!((lo.mhz() - 703.0).abs() < 1e-9);
        assert!((hi.mhz() - 802.9).abs() < 1e-9);
        assert!(Band::Band44.is_tdd());
    }

    #[test]
    fn hundred_khz_granularity() {
        let a = Earfcn::new(Band::Band44, 45600).frequency();
        let b = Earfcn::new(Band::Band44, 45601).frequency();
        assert!(((b.mhz() - a.mhz()) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn frequency_round_trip() {
        for n in [45590u32, 45999, 46589] {
            let e = Earfcn::new(Band::Band44, n);
            let back = Earfcn::from_frequency(Band::Band44, e.frequency());
            assert_eq!(back, e);
        }
    }

    #[test]
    fn tvws_pseudo_band_spans_etsi_range() {
        let lo = Earfcn::new(Band::Tvws, 100_000).frequency();
        let hi = Earfcn::new(Band::Tvws, 103_200).frequency();
        assert!((lo.mhz() - 470.0).abs() < 1e-9);
        assert!((hi.mhz() - 790.0).abs() < 1e-9);
    }

    #[test]
    fn tv_channel_centres_map_into_tvws_band() {
        // EU TV channel 38 centre: 470 + 8×(38−21) + 4 = 610 MHz.
        let f = Hertz::from_mhz(610.0);
        let e = Earfcn::from_frequency(Band::Tvws, f);
        assert!((e.frequency().mhz() - 610.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_band_number_panics() {
        let _ = Earfcn::new(Band::Band13, 9999);
    }

    #[test]
    fn band13_is_fdd() {
        assert!(!Band::Band13.is_tdd());
    }
}
