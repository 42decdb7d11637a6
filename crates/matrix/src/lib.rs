//! Dense matrix substrate for the fast matrix multiplication workspace.
//!
//! This crate provides the storage layer every other crate builds on:
//!
//! * [`DenseMatrix<T>`] — an owned, dense, **row-major** matrix, generic
//!   over the element type. Row-major matches the row-wise vectorization
//!   `vec(A)` used throughout the paper (Benson & Ballard, PPoPP 2015,
//!   §2.2.2), so entry `(i, j)` of an `M × K` matrix is element
//!   `i*K + j` of its vectorization. The [`Matrix`] alias pins the
//!   element type to `f64`, which keeps the historical API intact.
//! * [`MatRef`] / [`MatMut`] — borrowed, possibly strided views used to
//!   address submatrix blocks without copying. All recursive block
//!   arithmetic in `fmm-core` operates on views.
//! * [`kernels`] — the bandwidth-bound addition kernels (linear
//!   combinations `lincomb`, streaming scatter updates) that
//!   implement the three addition strategies of §3.2, in both sequential
//!   and rayon-parallel forms.
//! * [`partition`] — block-grid partitioning and the dynamic-peeling
//!   split (§3.5) used to handle arbitrary matrix dimensions.
//!
//! # Element types: the [`Scalar`] seam
//!
//! The paper's framework is element-type agnostic — recursion, addition
//! strategies and peeling only need a ring whose elements scale by the
//! (real) decomposition coefficients. The [`Scalar`] trait captures
//! that contract, and every layer above this crate is generic over it:
//! `f64` is the default everywhere (via default type parameters, so
//! existing code changes nothing), `f32` ships as a second
//! instantiation (half the memory traffic, twice the SIMD width on the
//! hot path), and [`Scalar::from_coeff`] returning `Option` is the
//! designed extension point where a future non-field backend (e.g.
//! bit-packed GF(2)) rejects the fractional coefficients of APA
//! algorithms instead of computing nonsense.

mod dense;
pub mod kernels;
pub mod partition;
mod scalar;
mod view;

pub use dense::DenseMatrix;
pub use scalar::{AccumScalar, Scalar};
pub use view::{MatMut, MatRef};

/// The workspace's historical element type: a dense `f64` matrix.
///
/// Every pre-generics API keeps compiling against this alias; code that
/// wants another element type names [`DenseMatrix`] explicitly.
pub type Matrix = DenseMatrix<f64>;

/// Maximum absolute difference between two equally-sized matrices, in
/// the element type's wide accumulator ([`Scalar::Accum`]).
///
/// Returns `None` when shapes differ.
pub fn max_abs_diff<T: Scalar>(a: &MatRef<'_, T>, b: &MatRef<'_, T>) -> Option<T::Accum> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return None;
    }
    let mut m = T::Accum::ZERO;
    for i in 0..a.rows() {
        let ra = a.row(i);
        let rb = b.row(i);
        for j in 0..a.cols() {
            let d = (ra[j].to_accum() - rb[j].to_accum()).abs();
            if d > m {
                m = d;
            }
        }
    }
    Some(m)
}

/// Frobenius norm of a matrix view, accumulated in [`Scalar::Accum`]
/// (so `f32` norms do not lose the digits §6 measures).
pub fn frobenius<T: Scalar>(a: &MatRef<'_, T>) -> T::Accum {
    let mut s = T::Accum::ZERO;
    for i in 0..a.rows() {
        for &x in a.row(i) {
            let w = x.to_accum();
            s = s + w * w;
        }
    }
    s.sqrt()
}

/// Relative forward error `‖A − B‖_F / ‖B‖_F` with `B` the reference.
///
/// When the reference norm is below [`Scalar::tiny_norm`] — the
/// smallest positive normal magnitude of the *element* type, so the
/// guard scales with the dtype instead of being hard-coded to
/// `f64::MIN_POSITIVE` — this falls back to the absolute Frobenius norm
/// of the difference.
pub fn relative_error<T: Scalar>(a: &MatRef<'_, T>, reference: &MatRef<'_, T>) -> T::Accum {
    assert_eq!(a.rows(), reference.rows(), "row mismatch");
    assert_eq!(a.cols(), reference.cols(), "col mismatch");
    let mut num = T::Accum::ZERO;
    let mut den = T::Accum::ZERO;
    for i in 0..a.rows() {
        let ra = a.row(i);
        let rb = reference.row(i);
        for j in 0..a.cols() {
            let d = ra[j].to_accum() - rb[j].to_accum();
            let r = rb[j].to_accum();
            num = num + d * d;
            den = den + r * r;
        }
    }
    // `den` is the *squared* norm; compare in norm units (squaring the
    // guard instead would underflow to 0 for f64::MIN_POSITIVE).
    if den.sqrt() <= T::tiny_norm() {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert!(max_abs_diff(&a.as_ref(), &b.as_ref()).is_none());
    }

    #[test]
    fn relative_error_zero_for_identical() {
        let a = Matrix::from_fn(4, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(relative_error(&a.as_ref(), &a.as_ref()), 0.0);
    }

    #[test]
    fn frobenius_of_ones() {
        let a = Matrix::filled(3, 3, 1.0);
        assert!((frobenius(&a.as_ref()) - 3.0).abs() < 1e-14);
    }

    #[test]
    fn f32_norms_accumulate_in_f64() {
        let a = DenseMatrix::<f32>::filled(3, 3, 1.0);
        let f: f64 = frobenius(&a.as_ref());
        assert!((f - 3.0).abs() < 1e-14);
        let b = DenseMatrix::<f32>::filled(3, 3, 1.0 + f32::EPSILON);
        let e: f64 = relative_error(&b.as_ref(), &a.as_ref());
        // The perturbation is one f32 ulp — visible because the
        // accumulator is f64, and of f32-epsilon magnitude.
        assert!(e > 0.0 && e < 1e-6, "error {e}");
    }

    #[test]
    fn relative_error_guard_scales_with_the_element_type() {
        // A subnormal-f32-norm reference: under the old f64::MIN_POSITIVE
        // guard this would divide by a denormal-squared denominator and
        // explode; the per-type guard falls back to the absolute norm.
        let tiny = f32::MIN_POSITIVE / 4.0;
        let reference = DenseMatrix::<f32>::filled(2, 2, tiny);
        let a = DenseMatrix::<f32>::zeros(2, 2);
        let e: f64 = relative_error(&a.as_ref(), &reference.as_ref());
        let abs_diff: f64 = frobenius(&reference.as_ref());
        assert!(
            (e - abs_diff).abs() < 1e-20,
            "guard must fall back to absolute norm"
        );
    }

    #[test]
    fn relative_error_guard_compares_in_norm_units() {
        // A tiny-but-normal f32 reference (1e-20 ≫ MIN_POSITIVE): its
        // *squared* norm is ~4e-40, which a guard applied to the squared
        // sum would mistake for zero. The true relative error of an
        // all-zero estimate is exactly 1.
        let reference = DenseMatrix::<f32>::filled(2, 2, 1e-20);
        let a = DenseMatrix::<f32>::zeros(2, 2);
        let e: f64 = relative_error(&a.as_ref(), &reference.as_ref());
        assert!((e - 1.0).abs() < 1e-6, "expected relative error 1, got {e}");
    }
}
