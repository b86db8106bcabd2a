//! The OFDMA resource grid and CellFi subchannels.
//!
//! LTE divides the channel into resource blocks (RBs) of 12 subcarriers ×
//! 0.5 ms slots; scheduling operates on RB *pairs* over a 1 ms subframe
//! (180 kHz × 1 ms). A 5 MHz channel carries 25 RBs, 10 MHz 50, 15 MHz 75
//! and 20 MHz 100 (3GPP TS 36.211).
//!
//! CellFi schedules in terms of **subchannels** — "the minimal set of
//! resource blocks that can be scheduled in LTE and for which we can get
//! channel quality information" (§5). The paper gives the counts: **13
//! subchannels on 5 MHz and 25 on 20 MHz**, i.e. groups of 2 RBs on 5 MHz
//! (12 × 2 + 1 × 1) and 4 RBs on 20 MHz.
//!
//! This module also owns the RE-level throughput arithmetic: how many
//! resource elements a subframe of one RB offers for data after PDCCH,
//! CRS and sync/broadcast overheads.

use cellfi_types::units::Hertz;
use cellfi_types::SubchannelId;

/// LTE channel bandwidth options available to CellFi in a TV channel
/// (§3.1: "the LTE PHY ... allows for 5, 10, 15 and 20 MHz bandwidths").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelBandwidth {
    /// 5 MHz — 25 RBs. Fits inside one 6 MHz US TV channel. The paper's
    /// large-scale evaluation uses this.
    Mhz5,
    /// 10 MHz — 50 RBs.
    Mhz10,
    /// 15 MHz — 75 RBs.
    Mhz15,
    /// 20 MHz — 100 RBs.
    Mhz20,
}

impl ChannelBandwidth {
    /// Nominal channel bandwidth.
    pub fn bandwidth(self) -> Hertz {
        match self {
            ChannelBandwidth::Mhz5 => Hertz::from_mhz(5.0),
            ChannelBandwidth::Mhz10 => Hertz::from_mhz(10.0),
            ChannelBandwidth::Mhz15 => Hertz::from_mhz(15.0),
            ChannelBandwidth::Mhz20 => Hertz::from_mhz(20.0),
        }
    }

    /// Number of resource blocks (TS 36.211 table).
    pub fn resource_blocks(self) -> u32 {
        match self {
            ChannelBandwidth::Mhz5 => 25,
            ChannelBandwidth::Mhz10 => 50,
            ChannelBandwidth::Mhz15 => 75,
            ChannelBandwidth::Mhz20 => 100,
        }
    }

    /// Number of CellFi subchannels (paper §5: 13 on 5 MHz, 25 on 20 MHz;
    /// intermediate bandwidths use the same 2-RB / 4-RB grouping rule).
    pub fn subchannels(self) -> u32 {
        match self {
            ChannelBandwidth::Mhz5 => 13,  // 12×2 RB + 1×1 RB
            ChannelBandwidth::Mhz10 => 25, // 25×2 RB
            ChannelBandwidth::Mhz15 => 25, // 25×3 RB
            ChannelBandwidth::Mhz20 => 25, // 25×4 RB
        }
    }
}

/// The most subchannels any [`ChannelBandwidth`] has (25, from 10 MHz
/// up). Per-subchannel state sized by it fits on the stack, and a
/// subchannel bitmask fits a `u32`.
pub const MAX_SUBCHANNELS: usize = 25;

/// One RB-pair is 12 subcarriers × 14 OFDM symbols (normal CP) = 168
/// resource elements per subframe.
pub const RES_PER_RB_SUBFRAME: u32 = 168;

/// Fraction of resource elements lost to overhead: PDCCH (up to 3 of 14
/// symbols), cell-specific reference signals, PSS/SSS/PBCH. ~29 % is the
/// standard planning figure for 2-antenna-port downlink.
pub const OVERHEAD_FRACTION: f64 = 0.29;

/// The resource grid of one cell's channel: RBs grouped into subchannels.
#[derive(Debug, Clone)]
pub struct ResourceGrid {
    bandwidth: ChannelBandwidth,
    /// `rb_of_subchannel[s]` is the list of RB indices in subchannel `s`.
    rb_of_subchannel: Vec<Vec<u32>>,
}

impl ResourceGrid {
    /// Build the grid for a channel bandwidth.
    pub fn new(bandwidth: ChannelBandwidth) -> ResourceGrid {
        let n_rb = bandwidth.resource_blocks();
        let n_sub = bandwidth.subchannels();
        // Distribute RBs over subchannels as evenly as possible, leading
        // subchannels take the larger groups (5 MHz: 12 groups of 2, then 1).
        let base = n_rb / n_sub;
        let extra = n_rb % n_sub;
        let mut rb_of_subchannel = Vec::with_capacity(n_sub as usize);
        let mut next_rb = 0;
        for s in 0..n_sub {
            let size = base + u32::from(s < extra);
            let rbs: Vec<u32> = (next_rb..next_rb + size).collect();
            next_rb += size;
            rb_of_subchannel.push(rbs);
        }
        debug_assert_eq!(next_rb, n_rb);
        ResourceGrid {
            bandwidth,
            rb_of_subchannel,
        }
    }

    /// The channel bandwidth this grid covers.
    pub fn bandwidth(&self) -> ChannelBandwidth {
        self.bandwidth
    }

    /// Number of subchannels.
    pub fn num_subchannels(&self) -> u32 {
        self.rb_of_subchannel.len() as u32
    }

    /// Iterator over all subchannel ids.
    pub fn subchannel_ids(&self) -> impl Iterator<Item = SubchannelId> {
        (0..self.num_subchannels()).map(SubchannelId::new)
    }

    /// RB indices composing `subchannel`.
    pub fn rbs_in(&self, subchannel: SubchannelId) -> &[u32] {
        &self.rb_of_subchannel[subchannel.index()]
    }

    /// Number of RBs in `subchannel`.
    pub fn rb_count(&self, subchannel: SubchannelId) -> u32 {
        self.rb_of_subchannel[subchannel.index()].len() as u32
    }

    /// Occupied bandwidth of one subchannel (RBs × 180 kHz).
    pub fn subchannel_bandwidth(&self, subchannel: SubchannelId) -> Hertz {
        Hertz::from_khz(180.0 * f64::from(self.rb_count(subchannel)))
    }

    /// Data-bearing resource elements per subframe in `subchannel`, after
    /// control/reference overhead.
    pub fn data_res_per_subframe(&self, subchannel: SubchannelId) -> f64 {
        f64::from(self.rb_count(subchannel) * RES_PER_RB_SUBFRAME) * (1.0 - OVERHEAD_FRACTION)
    }

    /// Data-bearing resource elements per subframe in the whole channel.
    pub fn total_data_res_per_subframe(&self) -> f64 {
        f64::from(self.bandwidth.resource_blocks() * RES_PER_RB_SUBFRAME)
            * (1.0 - OVERHEAD_FRACTION)
    }

    /// Fraction of the channel a set of subchannels occupies (in RBs).
    /// This is the quantity plotted in Fig 1(c).
    pub fn channel_fraction(&self, subchannels: &[SubchannelId]) -> f64 {
        let used: u32 = subchannels.iter().map(|&s| self.rb_count(s)).sum();
        f64::from(used) / f64::from(self.bandwidth.resource_blocks())
    }

    /// Downlink transmit power radiated *within one subchannel* when the
    /// cell's total power is `total`: an eNodeB spreads its power across
    /// all resource blocks, so a 2-RB subchannel of a 25-RB carrier gets
    /// `total − 10·log10(25/2)` dBm. (The uplink is different — a UE
    /// concentrates its whole power into its granted RBs, which is the
    /// OFDMA uplink advantage of §3.1.)
    pub fn subchannel_tx_power(
        &self,
        total: cellfi_types::units::Dbm,
        subchannel: SubchannelId,
    ) -> cellfi_types::units::Dbm {
        let frac =
            f64::from(self.rb_count(subchannel)) / f64::from(self.bandwidth.resource_blocks());
        total + cellfi_types::units::Db(10.0 * frac.log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rb_counts_match_3gpp_table() {
        assert_eq!(ChannelBandwidth::Mhz5.resource_blocks(), 25);
        assert_eq!(ChannelBandwidth::Mhz10.resource_blocks(), 50);
        assert_eq!(ChannelBandwidth::Mhz15.resource_blocks(), 75);
        assert_eq!(ChannelBandwidth::Mhz20.resource_blocks(), 100);
    }

    #[test]
    fn paper_subchannel_counts() {
        // §5: "13 such subchannels on 5 MHz and 25 subchannels on 20 MHz".
        assert_eq!(ChannelBandwidth::Mhz5.subchannels(), 13);
        assert_eq!(ChannelBandwidth::Mhz20.subchannels(), 25);
    }

    #[test]
    fn max_subchannels_bounds_every_bandwidth() {
        let all = [
            ChannelBandwidth::Mhz5,
            ChannelBandwidth::Mhz10,
            ChannelBandwidth::Mhz15,
            ChannelBandwidth::Mhz20,
        ];
        let most = all.iter().map(|b| b.subchannels() as usize).max();
        assert_eq!(most, Some(MAX_SUBCHANNELS));
        assert!(MAX_SUBCHANNELS <= u32::BITS as usize);
    }

    #[test]
    fn five_mhz_grouping_is_twelve_pairs_plus_one() {
        let g = ResourceGrid::new(ChannelBandwidth::Mhz5);
        let sizes: Vec<u32> = g.subchannel_ids().map(|s| g.rb_count(s)).collect();
        assert_eq!(sizes.len(), 13);
        assert_eq!(sizes.iter().filter(|&&s| s == 2).count(), 12);
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 1);
    }

    #[test]
    fn twenty_mhz_grouping_is_quads() {
        let g = ResourceGrid::new(ChannelBandwidth::Mhz20);
        assert!(g.subchannel_ids().all(|s| g.rb_count(s) == 4));
    }

    #[test]
    fn grids_partition_all_rbs_without_overlap() {
        for bw in [
            ChannelBandwidth::Mhz5,
            ChannelBandwidth::Mhz10,
            ChannelBandwidth::Mhz15,
            ChannelBandwidth::Mhz20,
        ] {
            let g = ResourceGrid::new(bw);
            let mut seen = vec![false; bw.resource_blocks() as usize];
            for s in g.subchannel_ids() {
                for &rb in g.rbs_in(s) {
                    assert!(!seen[rb as usize], "rb {rb} assigned twice in {bw:?}");
                    seen[rb as usize] = true;
                }
            }
            assert!(seen.iter().all(|&v| v), "unassigned RBs in {bw:?}");
        }
    }

    #[test]
    fn subchannel_bandwidth_is_rb_multiple() {
        let g = ResourceGrid::new(ChannelBandwidth::Mhz5);
        assert_eq!(g.subchannel_bandwidth(SubchannelId::new(0)).value(), 360e3);
        assert_eq!(g.subchannel_bandwidth(SubchannelId::new(12)).value(), 180e3);
    }

    #[test]
    fn data_res_reflects_overhead() {
        let g = ResourceGrid::new(ChannelBandwidth::Mhz5);
        let res = g.data_res_per_subframe(SubchannelId::new(0));
        assert!((res - 2.0 * 168.0 * 0.71).abs() < 1e-9);
    }

    #[test]
    fn peak_throughput_sanity() {
        // Peak DL on 5 MHz at max efficiency (5.5547 b/sym) should land in
        // the 16–17 Mbps ballpark — matching the ~15 Mbps TCP ceiling the
        // paper measured close to the cell (Fig 1a).
        let g = ResourceGrid::new(ChannelBandwidth::Mhz5);
        let bits_per_subframe = g.total_data_res_per_subframe() * 5.5547;
        let mbps = bits_per_subframe * 1000.0 / 1e6;
        assert!((15.0..18.5).contains(&mbps), "peak {mbps} Mbps");
    }

    #[test]
    fn subchannel_power_split() {
        use cellfi_types::units::Dbm;
        let g = ResourceGrid::new(ChannelBandwidth::Mhz5);
        // 2-RB subchannel: 30 − 10·log10(25/2) ≈ 19.0 dBm.
        let p2 = g.subchannel_tx_power(Dbm(30.0), SubchannelId::new(0));
        assert!((p2.value() - 19.03).abs() < 0.02, "got {p2}");
        // 1-RB subchannel: 30 − 10·log10(25) ≈ 16.0 dBm.
        let p1 = g.subchannel_tx_power(Dbm(30.0), SubchannelId::new(12));
        assert!((p1.value() - 16.02).abs() < 0.02, "got {p1}");
        // Sum over all subchannels returns the total power.
        let total_mw: f64 = g
            .subchannel_ids()
            .map(|s| g.subchannel_tx_power(Dbm(30.0), s).to_milliwatts().value())
            .sum();
        assert!((10.0 * total_mw.log10() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn channel_fraction_single_rb_uplink() {
        // Fig 1(c): a TCP-ACK uplink fits in one RB = 1/25 of the channel.
        let g = ResourceGrid::new(ChannelBandwidth::Mhz5);
        let frac = g.channel_fraction(&[SubchannelId::new(12)]);
        assert!((frac - 0.04).abs() < 1e-9);
        let all: Vec<_> = g.subchannel_ids().collect();
        assert!((g.channel_fraction(&all) - 1.0).abs() < 1e-9);
    }
}
