//! Flat strided slabs for the PHY hot path.
//!
//! The engine's gain tensors were nested `Vec<Vec<Vec<f64>>>`: every inner
//! access chased two pointers and the per-(UE, AP) subchannel lanes were
//! scattered across the heap, defeating both the prefetcher and the
//! autovectorizer. [`Slab2`] and [`Slab3`] store the same data in one
//! contiguous `Vec<f64>` with index math, so hot loops iterate lanes as
//! plain slices and `parallel` can split work at stride boundaries.
//!
//! Indexing scheme (row-major, last axis fastest):
//!
//! * `Slab2[i][j]`   → `data[i * cols + j]`
//! * `Slab3[i][j][k]` → `data[(i * d1 + j) * d2 + k]`
//!
//! The engine's conventions: link matrices are `Slab2` indexed
//! `[ue][neighbor_slot]` (or `[ap][interferer_slot]`), gain tensors are
//! `Slab3` indexed `[ue][neighbor_slot][subchannel]` so one (UE, AP)
//! subchannel lane is contiguous. Slot `sl` is the `sl`-th entry of the
//! row in the scenario's [`crate::topology::NeighborTable`].

/// A dense 2-D array of `f64` in one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Slab2 {
    data: Vec<f64>,
    cols: usize,
}

impl Slab2 {
    /// A `rows × cols` slab filled with `fill`.
    pub fn new(rows: usize, cols: usize, fill: f64) -> Slab2 {
        Slab2 {
            data: vec![fill; rows * cols],
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Number of columns (the contiguous axis).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `[i][j]`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Mutable element at `[i][j]`.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }

    /// Store `v` at `[i][j]`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole slab as one slice (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole slab as one mutable slice (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// A dense 3-D array of `f64` in one allocation; the last axis is the
/// contiguous "lane".
#[derive(Debug, Clone, PartialEq)]
pub struct Slab3 {
    data: Vec<f64>,
    d1: usize,
    d2: usize,
}

impl Slab3 {
    /// A `d0 × d1 × d2` slab filled with `fill`.
    pub fn new(d0: usize, d1: usize, d2: usize, fill: f64) -> Slab3 {
        Slab3 {
            data: vec![fill; d0 * d1 * d2],
            d1,
            d2,
        }
    }

    /// Length of one outer block (`d1 × d2` elements): the unit the
    /// parallel splitter chunks by.
    pub fn block_len(&self) -> usize {
        self.d1 * self.d2
    }

    /// Element at `[i][j][k]`.
    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[(i * self.d1 + j) * self.d2 + k]
    }

    /// Lane `[i][j][..]` as a contiguous slice.
    #[inline]
    pub fn lane(&self, i: usize, j: usize) -> &[f64] {
        let base = (i * self.d1 + j) * self.d2;
        &self.data[base..base + self.d2]
    }

    /// Lane `[i][j][..]` as a mutable contiguous slice.
    #[inline]
    pub fn lane_mut(&mut self, i: usize, j: usize) -> &mut [f64] {
        let base = (i * self.d1 + j) * self.d2;
        &mut self.data[base..base + self.d2]
    }

    /// The whole slab as one slice (lane-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole slab as one mutable slice (lane-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// Fixed-width rows of `u64` bitmask words in one allocation: row `r`
/// holds bits `0..bits_per_row`, bit `b` living at bit `b % 64` of word
/// `b / 64`. The engine's per-subchannel transmitter-membership masks
/// (`TxSetTracker`) index this way; keeping the stride math here keeps
/// it out of the engine (see the `slab` lint rule).
#[derive(Debug, Clone, PartialEq)]
pub struct BitRows {
    words: Vec<u64>,
    words_per_row: usize,
}

impl BitRows {
    /// `rows` rows of `bits_per_row` bits each, all clear.
    pub fn new(rows: usize, bits_per_row: usize) -> BitRows {
        let words_per_row = bits_per_row.div_ceil(64).max(1);
        BitRows {
            words: vec![0; rows * words_per_row],
            words_per_row,
        }
    }

    /// Clear every bit of row `row`.
    #[inline]
    pub fn clear_row(&mut self, row: usize) {
        let base = row * self.words_per_row;
        self.words[base..base + self.words_per_row].fill(0);
    }

    /// Set bit `bit` of row `row`.
    #[inline]
    pub fn set(&mut self, row: usize, bit: usize) {
        self.words[row * self.words_per_row + bit / 64] |= 1u64 << (bit % 64);
    }

    /// Whether bit `bit` of row `row` is set.
    #[inline]
    pub fn get(&self, row: usize, bit: usize) -> bool {
        (self.words[row * self.words_per_row + bit / 64] >> (bit % 64)) & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab2_round_trips_and_rows_are_contiguous() {
        let mut s = Slab2::new(3, 4, 0.0);
        assert_eq!((s.rows(), s.cols()), (3, 4));
        for i in 0..3 {
            for j in 0..4 {
                *s.at_mut(i, j) = (i * 10 + j) as f64;
            }
        }
        assert_eq!(s.at(2, 3), 23.0);
        assert_eq!(s.row(1), &[10.0, 11.0, 12.0, 13.0]);
        s.row_mut(0)[2] = 99.0;
        assert_eq!(s.at(0, 2), 99.0);
        assert_eq!(s.as_slice().len(), 12);
    }

    #[test]
    fn slab3_lane_matches_element_indexing() {
        let mut s = Slab3::new(2, 3, 5, 0.0);
        assert_eq!(s.block_len(), 15);
        for i in 0..2 {
            for j in 0..3 {
                for (k, v) in s.lane_mut(i, j).iter_mut().enumerate() {
                    *v = (i * 100 + j * 10 + k) as f64;
                }
            }
        }
        assert_eq!(s.at(1, 2, 4), 124.0);
        assert_eq!(s.lane(0, 1), &[10.0, 11.0, 12.0, 13.0, 14.0]);
        // Row-major layout: flat offset matches index math (i=1, j=2,
        // k=4 with d1=3, d2=5).
        assert_eq!(s.as_slice()[(3 + 2) * 5 + 4], 124.0);
    }

    #[test]
    fn zero_sized_slabs_are_legal() {
        let s = Slab2::new(0, 7, 0.0);
        assert_eq!(s.rows(), 0);
        let t = Slab3::new(0, 2, 3, 0.0);
        assert_eq!(t.as_slice().len(), 0);
    }

    #[test]
    fn bitrows_set_get_clear_across_word_boundaries() {
        let mut b = BitRows::new(2, 130);
        b.set(0, 5);
        b.set(0, 64);
        b.set(0, 129);
        b.set(1, 0);
        assert!(b.get(0, 5) && b.get(0, 64) && b.get(0, 129));
        assert!(!b.get(0, 63) && !b.get(0, 128));
        assert!(b.get(1, 0) && !b.get(1, 5));
        b.clear_row(0);
        assert!(!b.get(0, 5) && !b.get(0, 64) && !b.get(0, 129));
        assert!(b.get(1, 0), "clearing one row leaves others intact");
    }
}
