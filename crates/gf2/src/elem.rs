//! The two GF(2) element types, both workspace [`Scalar`]s.
//!
//! [`Gf2`] is one bit in a `u8` (invariant: always `0` or `1`).
//! Addition and subtraction are both XOR — GF(2) is characteristic 2,
//! so every element is its own additive inverse and `Neg` is the
//! identity. Multiplication is AND. It lets `DenseMatrix<Gf2>` run the
//! generic stack one entry per byte, for correctness, not speed.
//!
//! [`Gf2Word`] is 64 entries of a row packed into a `u64`, with the same
//! operations lane by lane. It is what [`crate::Gf2Matrix`] stores and
//! what the core executor recurses over: as a [`fmm_gemm::GemmScalar`]
//! it sets `K_PACK = 64` (one word of an `A` row meets 64 rows of `B`)
//! and its `packed_gemm` is the M4RM kernel.
//!
//! The interesting method is [`Scalar::from_coeff`]: `.alg` files store
//! decomposition coefficients as `f64`, and GF(2) can only represent
//! their images mod 2 — **odd → 1, even → 0, fractional → `None`**.
//! `None` is what makes APA schemes (Bini, Schönhage) plan-time errors
//! for this dtype instead of silently wrong answers; integer schemes
//! such as Strassen lift cleanly. A word lifts a coefficient to all
//! ones or all zeros, so scaling a block by it keeps or clears it.

use crate::matrix::WORD_BITS;
use fmm_matrix::{MatMut, MatRef, Scalar};
use rand::Rng;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of GF(2). Stored as `0u8` or `1u8`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Gf2(u8);

impl Gf2 {
    /// The zero element.
    pub const ZERO: Gf2 = Gf2(0);
    /// The one element.
    pub const ONE: Gf2 = Gf2(1);

    /// Build from a boolean.
    #[inline]
    pub fn new(bit: bool) -> Self {
        Gf2(bit as u8)
    }

    /// The element as a boolean.
    #[inline]
    pub fn bit(self) -> bool {
        self.0 != 0
    }

    /// Reduce an integer mod 2.
    #[inline]
    pub fn from_int(v: i64) -> Self {
        Gf2((v & 1) as u8)
    }
}

impl fmt::Display for Gf2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

// In GF(2) the ring operations *are* the bit operations: + is XOR,
// × is AND — the "suspicious arithmetic" shapes are the definition.
impl Add for Gf2 {
    type Output = Gf2;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf2) -> Gf2 {
        Gf2(self.0 ^ rhs.0)
    }
}

impl Sub for Gf2 {
    type Output = Gf2;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Gf2) -> Gf2 {
        // Characteristic 2: subtraction *is* addition.
        Gf2(self.0 ^ rhs.0)
    }
}

impl Mul for Gf2 {
    type Output = Gf2;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn mul(self, rhs: Gf2) -> Gf2 {
        Gf2(self.0 & rhs.0)
    }
}

impl Neg for Gf2 {
    type Output = Gf2;
    #[inline]
    fn neg(self) -> Gf2 {
        // −x = x in characteristic 2.
        self
    }
}

impl AddAssign for Gf2 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Gf2) {
        self.0 ^= rhs.0;
    }
}

impl SubAssign for Gf2 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn sub_assign(&mut self, rhs: Gf2) {
        self.0 ^= rhs.0;
    }
}

impl MulAssign for Gf2 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn mul_assign(&mut self, rhs: Gf2) {
        self.0 &= rhs.0;
    }
}

impl Scalar for Gf2 {
    const ZERO: Self = Gf2::ZERO;
    const ONE: Self = Gf2::ONE;
    const NAME: &'static str = "gf2";
    // Exact arithmetic: any nonzero residual is a real mismatch.
    const EPSILON: f64 = 0.0;

    type Accum = f64;

    /// The mod-2 coefficient lift: odd → 1, even → 0, anything
    /// fractional (or non-finite) → `None`. This is the seam that turns
    /// APA schemes into [`fmm_core::PlanError::UnrepresentableCoefficient`]
    /// for this dtype.
    #[inline]
    fn from_coeff(c: f64) -> Option<Self> {
        if !c.is_finite() || c.fract() != 0.0 || c.abs() >= 2f64.powi(53) {
            return None;
        }
        Some(Gf2::from_int(c as i64))
    }

    #[inline]
    fn to_accum(self) -> f64 {
        self.0 as f64
    }

    #[inline]
    fn abs(self) -> Self {
        self
    }

    /// Accumulator norms count set bits; anything below ½ is exactly
    /// zero, so ½ is the natural noise floor.
    #[inline]
    fn tiny_norm() -> f64 {
        0.5
    }

    #[inline]
    fn sample_unit<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Gf2::new(rng.gen_bool(0.5))
    }
}

/// One bit per byte gets the generic [`fmm_gemm::GemmScalar`]
/// fall-back kernel; the packed kernel belongs to [`Gf2Word`].
impl fmm_gemm::GemmScalar for Gf2 {}

/// 64 GF(2) entries of one matrix row, bit `j` holding column
/// `64·w + j` of word `w`. Lane-wise ring: `+`/`−` are XOR, `×` is AND,
/// [`Gf2Word::ONE`] is all ones.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Gf2Word(pub u64);

impl Gf2Word {
    /// No entry set.
    pub const ZERO: Gf2Word = Gf2Word(0);
    /// Every entry set: the lift of an odd coefficient.
    pub const ONE: Gf2Word = Gf2Word(!0);
}

impl fmt::Display for Gf2Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

// Lane-wise GF(2): the same bit operations as `Gf2`, 64 at a time.
impl Add for Gf2Word {
    type Output = Gf2Word;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf2Word) -> Gf2Word {
        Gf2Word(self.0 ^ rhs.0)
    }
}

impl Sub for Gf2Word {
    type Output = Gf2Word;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Gf2Word) -> Gf2Word {
        Gf2Word(self.0 ^ rhs.0)
    }
}

impl Mul for Gf2Word {
    type Output = Gf2Word;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn mul(self, rhs: Gf2Word) -> Gf2Word {
        Gf2Word(self.0 & rhs.0)
    }
}

impl Neg for Gf2Word {
    type Output = Gf2Word;
    #[inline]
    fn neg(self) -> Gf2Word {
        self
    }
}

impl AddAssign for Gf2Word {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Gf2Word) {
        self.0 ^= rhs.0;
    }
}

impl SubAssign for Gf2Word {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn sub_assign(&mut self, rhs: Gf2Word) {
        self.0 ^= rhs.0;
    }
}

impl MulAssign for Gf2Word {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn mul_assign(&mut self, rhs: Gf2Word) {
        self.0 &= rhs.0;
    }
}

impl Scalar for Gf2Word {
    const ZERO: Self = Gf2Word::ZERO;
    const ONE: Self = Gf2Word::ONE;
    const NAME: &'static str = Gf2::NAME;
    const EPSILON: f64 = 0.0;

    type Accum = f64;

    /// The mod-2 lift of [`Gf2`], broadcast to every lane.
    #[inline]
    fn from_coeff(c: f64) -> Option<Self> {
        Gf2::from_coeff(c).map(|g| if g.bit() { Gf2Word::ONE } else { Gf2Word::ZERO })
    }

    /// Set entries, so accumulator norms count ones as [`Gf2`] does.
    #[inline]
    fn to_accum(self) -> f64 {
        self.0.count_ones() as f64
    }

    #[inline]
    fn abs(self) -> Self {
        self
    }

    #[inline]
    fn tiny_norm() -> f64 {
        0.5
    }

    #[inline]
    fn sample_unit<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Gf2Word(rng.gen())
    }
}

/// The packed base case: M4RM over `A` (`m` rows of words, each word
/// 64 columns) and `B` (64 rows per word column of `A`).
impl fmm_gemm::GemmScalar for Gf2Word {
    const K_PACK: usize = WORD_BITS;

    fn packed_gemm(
        alpha: Self,
        a: MatRef<'_, Self>,
        b: MatRef<'_, Self>,
        beta: Self,
        mut c: MatMut<'_, Self>,
    ) {
        fmm_matrix::kernels::scale(c.reborrow(), beta);
        crate::m4rm::m4rm_acc(c, a, b, alpha, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ring_axioms_on_all_four_pairs() {
        let elems = [Gf2::ZERO, Gf2::ONE];
        for &a in &elems {
            for &b in &elems {
                // add == sub (characteristic 2), both are XOR.
                assert_eq!(a + b, a - b);
                assert_eq!((a + b).bit(), a.bit() ^ b.bit());
                assert_eq!((a * b).bit(), a.bit() & b.bit());
                // Self-inverse: (a + b) + b == a.
                assert_eq!(a + b + b, a);
            }
        }
        assert_eq!(-Gf2::ONE, Gf2::ONE);
        assert_eq!(-Gf2::ZERO, Gf2::ZERO);
    }

    #[test]
    fn coeff_lift_odd_even_fractional() {
        assert_eq!(Gf2::from_coeff(0.0), Some(Gf2::ZERO));
        assert_eq!(Gf2::from_coeff(1.0), Some(Gf2::ONE));
        assert_eq!(Gf2::from_coeff(-1.0), Some(Gf2::ONE));
        assert_eq!(Gf2::from_coeff(2.0), Some(Gf2::ZERO));
        assert_eq!(Gf2::from_coeff(-4.0), Some(Gf2::ZERO));
        assert_eq!(Gf2::from_coeff(7.0), Some(Gf2::ONE));
        // Fractional APA coefficients are rejected, not rounded.
        assert_eq!(Gf2::from_coeff(0.5), None);
        assert_eq!(Gf2::from_coeff(-1.0e-3), None);
        assert_eq!(Gf2::from_coeff(f64::NAN), None);
        assert_eq!(Gf2::from_coeff(f64::INFINITY), None);
        // Magnitudes past 2^53 have no exact integer meaning in f64.
        assert_eq!(Gf2::from_coeff(1.0e300), None);
    }

    #[test]
    fn word_lift_and_lanes_follow_the_bit_rules() {
        assert_eq!(Gf2Word::from_coeff(-1.0), Some(Gf2Word::ONE));
        assert_eq!(Gf2Word::from_coeff(2.0), Some(Gf2Word::ZERO));
        assert_eq!(Gf2Word::from_coeff(0.5), None);
        let (x, y) = (Gf2Word(0b1100), Gf2Word(0b1010));
        assert_eq!(x + y, Gf2Word(0b0110));
        assert_eq!(x - y, x + y);
        assert_eq!(x * y, Gf2Word(0b1000));
        assert_eq!(Gf2Word::ONE * x, x);
        assert_eq!(-x, x);
        assert_eq!(<Gf2Word as fmm_gemm::GemmScalar>::K_PACK, 64);
    }

    #[test]
    fn scalar_plumbing() {
        assert_eq!(<Gf2 as Scalar>::NAME, "gf2");
        assert_eq!(Gf2::ONE.to_accum(), 1.0);
        assert_eq!(Gf2::ZERO.to_accum(), 0.0);
        assert!(<Gf2 as Scalar>::tiny_norm() < 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 2];
        for _ in 0..64 {
            seen[Gf2::sample_unit(&mut rng).bit() as usize] = true;
        }
        assert!(seen[0] && seen[1], "sampler should hit both elements");
    }

    #[test]
    fn dense_matrix_naive_gemm_works_over_gf2() {
        use fmm_matrix::DenseMatrix;
        // 2×2 over GF(2): A = [[1,1],[0,1]], B = [[1,0],[1,1]].
        let (o, i) = (Gf2::ZERO, Gf2::ONE);
        let a = DenseMatrix::from_rows(&[&[i, i], &[o, i]]);
        let b = DenseMatrix::from_rows(&[&[i, o], &[i, i]]);
        let c = fmm_gemm::matmul(&a, &b);
        // A·B = [[1+1, 0+1],[0+1, 0+1]] = [[0,1],[1,1]] over GF(2).
        assert_eq!(c[(0, 0)], o);
        assert_eq!(c[(0, 1)], i);
        assert_eq!(c[(1, 0)], i);
        assert_eq!(c[(1, 1)], i);
    }
}
