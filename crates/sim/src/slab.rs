//! Flat strided slabs for the PHY hot path.
//!
//! The engine's gain tensors were nested `Vec<Vec<Vec<f64>>>`: every inner
//! access chased two pointers and the per-(UE, AP) subchannel lanes were
//! scattered across the heap, defeating both the prefetcher and the
//! autovectorizer. [`Slab2`] stores the same data in one contiguous
//! `Vec<f64>` with index math, so hot loops iterate lanes as plain slices
//! and `parallel` can split work at row boundaries.
//!
//! Indexing scheme (row-major, last axis fastest):
//! `Slab2[i][j]` → `data[i * cols + j]`.
//!
//! The engine's convention: gain slabs are `Slab2` indexed
//! `[link][subchannel]`, so one (UE, AP) subchannel lane is one row. A
//! link is one (UE, candidate AP) pair and its id is its position in the
//! CSR payload of the scenario's [`crate::topology::NeighborTable`]
//! (`NeighborTable::links`). One UE's links are consecutive, so its
//! lanes are one contiguous run of rows, and a slab holds exactly
//! `n_links × n_sub` values with no padding. Per-link scalars are plain
//! `Vec<f64>`s indexed by the same ids. Per-UE state with one entry per
//! subchannel (CQI, interference flags, free streaks) is a slab too,
//! indexed `[ue][subchannel]`.

use std::ops::Range;

/// A dense 2-D array in one allocation (of `f64` unless said otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct Slab2<T = f64> {
    data: Vec<T>,
    cols: usize,
}

impl<T: Copy> Slab2<T> {
    /// A `rows × cols` slab filled with `fill`.
    pub fn new(rows: usize, cols: usize, fill: T) -> Slab2<T> {
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
    pub fn at(&self, i: usize, j: usize) -> T {
        self.data[i * self.cols + j]
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Rows `rows` as one mutable contiguous slice (row-major).
    #[inline]
    pub fn rows_mut(&mut self, rows: Range<usize>) -> &mut [T] {
        &mut self.data[rows.start * self.cols..rows.end * self.cols]
    }

    /// The whole slab as one slice (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole slab as one mutable slice (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
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
            for (j, v) in s.row_mut(i).iter_mut().enumerate() {
                *v = (i * 10 + j) as f64;
            }
        }
        assert_eq!(s.at(2, 3), 23.0);
        assert_eq!(s.row(1), &[10.0, 11.0, 12.0, 13.0]);
        s.row_mut(0)[2] = 99.0;
        assert_eq!(s.at(0, 2), 99.0);
        assert_eq!(s.as_slice().len(), 12);
    }

    #[test]
    fn zero_sized_slabs_are_legal() {
        let s = Slab2::new(0, 7, 0.0);
        assert_eq!(s.rows(), 0);
        assert_eq!(s.as_slice().len(), 0);
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
