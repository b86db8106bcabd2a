//! TV channel plans.
//!
//! TV channels are "6 MHz in the US and 8 MHz in the EU" (§3.1). The EU
//! UHF broadcast band runs 470–790 MHz as channels 21–60; the US post-
//! auction UHF TV core runs 470–608 MHz as channels 14–36. CellFi fits a
//! 5 MHz LTE carrier inside a single channel of either plan, and wider
//! LTE bandwidths into runs of contiguous free channels (§7 leaves
//! aggregation as future work — we still expose the contiguity helper).

use cellfi_types::units::Hertz;
use cellfi_types::ChannelId;
use serde::{Deserialize, Serialize};

/// Most channels a plan may hold: the database answers availability
/// with one `u64` bit per channel slot ([`ChannelPlan::slot`]), and the
/// selector and fleet keep fixed arrays of this length.
pub(crate) const MAX_PLAN_CHANNELS: usize = 64;

/// A regional TV channelization.
///
/// ```
/// use cellfi_spectrum::plan::ChannelPlan;
/// // EU channel 38 is the 8 MHz block centred on 610 MHz.
/// let ch = ChannelPlan::Eu.channel(38).unwrap();
/// assert_eq!(ch.centre.mhz(), 610.0);
/// assert_eq!(ch.width.mhz(), 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelPlan {
    /// EU/ETSI: 8 MHz channels 21–60, 470–790 MHz.
    Eu,
    /// US/FCC: 6 MHz channels 14–36, 470–608 MHz.
    Us,
}

/// One TV channel of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TvChannel {
    /// Channel number in its plan.
    pub id: ChannelId,
    /// Centre frequency.
    pub centre: Hertz,
    /// Channel width.
    pub width: Hertz,
}

impl ChannelPlan {
    /// Channel width of this plan.
    pub fn width(self) -> Hertz {
        match self {
            ChannelPlan::Eu => Hertz::from_mhz(8.0),
            ChannelPlan::Us => Hertz::from_mhz(6.0),
        }
    }

    /// Inclusive channel-number range.
    pub fn channel_range(self) -> (u32, u32) {
        match self {
            ChannelPlan::Eu => (21, 60),
            ChannelPlan::Us => (14, 36),
        }
    }

    /// Lower band edge of the first channel.
    fn band_start(self) -> Hertz {
        Hertz::from_mhz(470.0)
    }

    /// The channel with number `n`, if it exists in the plan.
    pub fn channel(self, n: u32) -> Option<TvChannel> {
        let (lo, hi) = self.channel_range();
        if !(lo..=hi).contains(&n) {
            return None;
        }
        let w = self.width().mhz();
        let centre = Hertz::from_mhz(self.band_start().mhz() + w * f64::from(n - lo) + w / 2.0);
        Some(TvChannel {
            id: ChannelId::new(n),
            centre,
            width: self.width(),
        })
    }

    /// All channels of the plan, ascending.
    pub fn channels(self) -> Vec<TvChannel> {
        let (lo, hi) = self.channel_range();
        (lo..=hi)
            .map(|n| {
                self.channel(n)
                    .expect("channel_range() yields only in-plan numbers")
            })
            .collect()
    }

    /// Position of channel `channel` in the plan (0 for the first
    /// channel), or `None` outside it. Per-plan arrays and the
    /// availability masks are indexed by this slot.
    pub(crate) fn slot(self, channel: ChannelId) -> Option<usize> {
        let (lo, hi) = self.channel_range();
        (lo..=hi)
            .contains(&channel.0)
            .then(|| (channel.0 - lo) as usize)
    }

    /// Number of channels in the plan.
    pub fn len(self) -> usize {
        let (lo, hi) = self.channel_range();
        (hi - lo + 1) as usize
    }

    /// Plans are never empty; provided for clippy-idiomatic pairing with
    /// [`ChannelPlan::len`].
    pub fn is_empty(self) -> bool {
        false
    }

    /// Longest run of consecutive channel numbers within `set`, returned
    /// as (first channel, run length). Useful for fitting wider LTE
    /// carriers ("it can thus adapt to several contiguous available TV
    /// channels", §3.1).
    pub fn longest_contiguous_run(self, set: &[ChannelId]) -> Option<(ChannelId, u32)> {
        if set.is_empty() {
            return None;
        }
        let mut nums: Vec<u32> = set.iter().map(|c| c.0).collect();
        nums.sort_unstable();
        nums.dedup();
        let mut best = (nums[0], 1u32);
        let mut run_start = nums[0];
        let mut run_len = 1u32;
        for w in nums.windows(2) {
            if w[1] == w[0] + 1 {
                run_len += 1;
            } else {
                run_start = w[1];
                run_len = 1;
            }
            if run_len > best.1 {
                best = (run_start, run_len);
            }
        }
        Some((ChannelId::new(best.0), best.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eu_channel_38_centre() {
        // 470 + 8·17 + 4 = 610 MHz.
        let ch = ChannelPlan::Eu.channel(38).unwrap();
        assert!((ch.centre.mhz() - 610.0).abs() < 1e-9);
        assert!((ch.width.mhz() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn us_channel_14_centre() {
        // 470 + 3 = 473 MHz.
        let ch = ChannelPlan::Us.channel(14).unwrap();
        assert!((ch.centre.mhz() - 473.0).abs() < 1e-9);
        assert!((ch.width.mhz() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn eu_top_channel_upper_edge_is_790() {
        let ch = ChannelPlan::Eu.channel(60).unwrap();
        assert!((ch.centre.mhz() + 4.0 - 790.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_plan_channel_is_none() {
        assert!(ChannelPlan::Eu.channel(20).is_none());
        assert!(ChannelPlan::Eu.channel(61).is_none());
        assert!(ChannelPlan::Us.channel(37).is_none());
    }

    #[test]
    fn plan_lengths() {
        assert_eq!(ChannelPlan::Eu.len(), 40);
        assert_eq!(ChannelPlan::Us.len(), 23);
        assert_eq!(ChannelPlan::Eu.channels().len(), 40);
    }

    #[test]
    fn every_plan_fits_the_channel_mask() {
        for plan in [ChannelPlan::Eu, ChannelPlan::Us] {
            assert!(plan.len() <= MAX_PLAN_CHANNELS, "{plan:?}");
            let (lo, hi) = plan.channel_range();
            assert_eq!(plan.slot(ChannelId::new(lo)), Some(0));
            assert_eq!(plan.slot(ChannelId::new(hi)), Some(plan.len() - 1));
            assert_eq!(plan.slot(ChannelId::new(lo - 1)), None);
            assert_eq!(plan.slot(ChannelId::new(hi + 1)), None);
        }
    }

    #[test]
    fn five_mhz_lte_fits_either_plan() {
        assert!(ChannelPlan::Us.width().mhz() >= 5.0);
        assert!(ChannelPlan::Eu.width().mhz() >= 5.0);
    }

    #[test]
    fn channels_do_not_overlap_and_ascend() {
        for plan in [ChannelPlan::Eu, ChannelPlan::Us] {
            let chs = plan.channels();
            for w in chs.windows(2) {
                let upper_edge = w[0].centre.mhz() + w[0].width.mhz() / 2.0;
                let lower_edge = w[1].centre.mhz() - w[1].width.mhz() / 2.0;
                assert!((upper_edge - lower_edge).abs() < 1e-9, "{plan:?}");
            }
        }
    }

    #[test]
    fn contiguous_run_detection() {
        let plan = ChannelPlan::Eu;
        let set = [
            ChannelId::new(21),
            ChannelId::new(30),
            ChannelId::new(31),
            ChannelId::new(32),
            ChannelId::new(40),
        ];
        let (start, len) = plan.longest_contiguous_run(&set).unwrap();
        assert_eq!(start, ChannelId::new(30));
        assert_eq!(len, 3);
    }

    #[test]
    fn contiguous_run_handles_duplicates_and_empty() {
        let plan = ChannelPlan::Eu;
        assert!(plan.longest_contiguous_run(&[]).is_none());
        let set = [ChannelId::new(25), ChannelId::new(25)];
        assert_eq!(
            plan.longest_contiguous_run(&set),
            Some((ChannelId::new(25), 1))
        );
    }
}
