//! [`Gf2Matrix`]: a boolean matrix packed 64 entries per [`Gf2Word`].
//!
//! Layout: a row-major `DenseMatrix<Gf2Word>` of `rows × stride` words,
//! LSB-first within a word — bit `j` of row `i` lives in word
//! `(i, j / 64)` at bit position `j % 64`, where `stride =
//! ceil(cols / 64)`. Padding bits past `cols` in the last word of each
//! row are **always zero**; every mutating method maintains that
//! invariant, which is what lets `PartialEq` on the raw words be logical
//! equality and lets row-wise XOR/OR kernels skip per-bit masking. The
//! word matrix is exactly what the core executor multiplies.

use crate::{Gf2, Gf2Word};
use fmm_matrix::DenseMatrix;
use rand::Rng;

/// Number of matrix entries packed into one machine word.
pub const WORD_BITS: usize = 64;

/// A dense matrix over GF(2), bit-packed 64 entries per word.
#[derive(Clone, PartialEq, Debug)]
pub struct Gf2Matrix {
    cols: usize,
    /// `rows × ceil(cols / 64)` words.
    words: DenseMatrix<Gf2Word>,
}

impl Eq for Gf2Matrix {}

impl Gf2Matrix {
    /// The all-zeros `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Gf2Matrix {
            cols,
            words: DenseMatrix::zeros(rows, cols.div_ceil(WORD_BITS)),
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Gf2Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Build from a generator on `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Gf2Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if f(i, j) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// I.i.d. fair-coin entries.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        Gf2Matrix::from_fn(rows, cols, |_, _| rng.gen_bool(0.5))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.words.rows()
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.words.cols()
    }

    /// The packed words, row-major.
    #[inline]
    pub fn words(&self) -> &[Gf2Word] {
        self.words.as_slice()
    }

    /// The packed words as a `rows × stride` word matrix.
    #[inline]
    pub(crate) fn packed(&self) -> &DenseMatrix<Gf2Word> {
        &self.words
    }

    /// Mutable word matrix. Crate-internal: callers must preserve the
    /// zero-tail-bits invariant.
    #[inline]
    pub(crate) fn packed_mut(&mut self) -> &mut DenseMatrix<Gf2Word> {
        &mut self.words
    }

    /// Read entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.rows() && j < self.cols);
        (self.words[(i, j / WORD_BITS)].0 >> (j % WORD_BITS)) & 1 == 1
    }

    /// Write entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        debug_assert!(i < self.rows() && j < self.cols);
        let w = &mut self.words[(i, j / WORD_BITS)].0;
        let bit = 1u64 << (j % WORD_BITS);
        if v {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    /// The packed words of row `i`.
    #[inline]
    pub fn row_words(&self, i: usize) -> &[Gf2Word] {
        self.words.row(i)
    }

    /// Number of set entries.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.0.count_ones() as usize).sum()
    }

    /// `self ^= rhs` (entrywise GF(2) addition — also subtraction).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn xor_assign(&mut self, rhs: &Gf2Matrix) {
        assert_eq!(
            (self.rows(), self.cols),
            (rhs.rows(), rhs.cols),
            "xor_assign: shape mismatch"
        );
        for (d, s) in self.words.as_mut_slice().iter_mut().zip(rhs.words()) {
            d.0 ^= s.0;
        }
    }

    /// `self |= rhs` (entrywise boolean OR — the OR–AND semiring add).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn or_assign(&mut self, rhs: &Gf2Matrix) {
        assert_eq!(
            (self.rows(), self.cols),
            (rhs.rows(), rhs.cols),
            "or_assign: shape mismatch"
        );
        for (d, s) in self.words.as_mut_slice().iter_mut().zip(rhs.words()) {
            d.0 |= s.0;
        }
    }

    /// Unpack into a one-element-per-entry [`DenseMatrix<Gf2>`].
    pub fn to_dense(&self) -> DenseMatrix<Gf2> {
        DenseMatrix::from_fn(self.rows(), self.cols, |i, j| Gf2::new(self.get(i, j)))
    }

    /// Pack a [`DenseMatrix<Gf2>`].
    pub fn from_dense(m: &DenseMatrix<Gf2>) -> Self {
        Gf2Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)].bit())
    }

    /// Naive word-parallel GF(2) product `A·B` — the row-broadcast
    /// O(m·k·n/64) baseline: for every set `A[i,l]`, XOR row `l` of `B`
    /// into row `i` of `C`. Correct for all shapes; the performance
    /// comparison target for [`Gf2Matrix::mul_m4rm`].
    ///
    /// # Panics
    /// Panics when `self.cols != rhs.rows`.
    pub fn mul_naive(&self, rhs: &Gf2Matrix) -> Gf2Matrix {
        self.mul_broadcast(rhs, false)
    }

    /// Naive word-parallel boolean (OR–AND semiring) product.
    ///
    /// # Panics
    /// Panics when `self.cols != rhs.rows`.
    pub fn or_mul_naive(&self, rhs: &Gf2Matrix) -> Gf2Matrix {
        self.mul_broadcast(rhs, true)
    }

    fn mul_broadcast(&self, rhs: &Gf2Matrix, or_mode: bool) -> Gf2Matrix {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "mul: inner dimension mismatch ({}x{} · {}x{})",
            self.rows(),
            self.cols,
            rhs.rows(),
            rhs.cols
        );
        let mut c = Gf2Matrix::zeros(self.rows(), rhs.cols);
        let mut cw = c.words.as_mut();
        for i in 0..self.rows() {
            let arow = self.row_words(i);
            let crow = cw.row_mut(i);
            for (wi, aw) in arow.iter().enumerate() {
                let mut bits = aw.0;
                while bits != 0 {
                    let l = wi * WORD_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let brow = rhs.row_words(l);
                    if or_mode {
                        for (cd, bs) in crow.iter_mut().zip(brow) {
                            cd.0 |= bs.0;
                        }
                    } else {
                        for (cd, bs) in crow.iter_mut().zip(brow) {
                            cd.0 ^= bs.0;
                        }
                    }
                }
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Bit-at-a-time reference product, the oracle for everything else.
    pub(crate) fn bitwise_mul(a: &Gf2Matrix, b: &Gf2Matrix, or_mode: bool) -> Gf2Matrix {
        Gf2Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = false;
            for l in 0..a.cols() {
                let term = a.get(i, l) && b.get(l, j);
                acc = if or_mode { acc || term } else { acc ^ term };
            }
            acc
        })
    }

    #[test]
    fn packing_round_trip_and_tail_invariant() {
        let mut rng = StdRng::seed_from_u64(1);
        for (r, c) in [(1, 1), (3, 64), (5, 65), (7, 130), (2, 63)] {
            let m = Gf2Matrix::random(r, c, &mut rng);
            let dense = m.to_dense();
            assert_eq!(Gf2Matrix::from_dense(&dense), m);
            // Tail bits beyond `cols` stay zero in every row.
            let valid = c % WORD_BITS;
            for i in 0..r {
                let tail = m.row_words(i)[m.stride() - 1].0;
                assert!(valid == 0 || tail >> valid == 0);
            }
        }
    }

    #[test]
    fn get_set_and_counts() {
        let mut m = Gf2Matrix::zeros(4, 100);
        assert_eq!(m.count_ones(), 0);
        m.set(2, 99, true);
        m.set(0, 0, true);
        m.set(3, 64, true);
        assert!(m.get(2, 99) && m.get(0, 0) && m.get(3, 64));
        assert!(!m.get(2, 98));
        assert_eq!(m.count_ones(), 3);
        m.set(2, 99, false);
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn xor_is_self_inverse_and_or_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Gf2Matrix::random(6, 150, &mut rng);
        let b = Gf2Matrix::random(6, 150, &mut rng);
        let mut x = a.clone();
        x.xor_assign(&b);
        x.xor_assign(&b);
        assert_eq!(x, a);
        let mut y = a.clone();
        y.or_assign(&b);
        let snapshot = y.clone();
        y.or_assign(&b);
        assert_eq!(y, snapshot);
    }

    #[test]
    fn naive_mul_matches_bitwise_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        for (m, k, n) in [(1, 1, 1), (4, 7, 9), (17, 65, 33), (10, 128, 70)] {
            let a = Gf2Matrix::random(m, k, &mut rng);
            let b = Gf2Matrix::random(k, n, &mut rng);
            assert_eq!(a.mul_naive(&b), bitwise_mul(&a, &b, false), "{m}x{k}x{n}");
            assert_eq!(
                a.or_mul_naive(&b),
                bitwise_mul(&a, &b, true),
                "or {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Gf2Matrix::random(20, 20, &mut rng);
        let id = Gf2Matrix::identity(20);
        assert_eq!(a.mul_naive(&id), a);
        assert_eq!(id.mul_naive(&a), a);
        assert_eq!(a.or_mul_naive(&id), a);
    }

    #[test]
    fn xor_vs_or_differ_on_even_fanin() {
        // Two paths from row 0 to col 0: parity cancels, OR keeps it.
        let a = Gf2Matrix::from_fn(1, 2, |_, _| true);
        let b = Gf2Matrix::from_fn(2, 1, |_, _| true);
        assert!(!a.mul_naive(&b).get(0, 0));
        assert!(a.or_mul_naive(&b).get(0, 0));
    }
}
