//! Classical matrix multiplication substrate.
//!
//! The paper's experiments compare fast algorithms against Intel MKL's
//! `dgemm`. MKL is proprietary and unavailable here, so this crate is the
//! vendor-BLAS stand-in: a cache-blocked, operand-packing, register-tiled
//! classical gemm (in the BLIS/GotoBLAS style) with a rayon-parallel
//! driver. It reproduces the *performance shape* the experiments rely on —
//! a ramp-up phase followed by a flat plateau (paper Fig. 3) and a flop
//! rate that dominates the bandwidth-bound additions — which is what
//! determines recursion cutoffs and fast-vs-classical crossovers.
//!
//! The base-case call of every fast algorithm in `fmm-core` lands on
//! [`gemm`] (sequential leaves, BFS scheme) or [`par_gemm`] (DFS/HYBRID
//! leaves), exactly as the paper's generated code calls `dgemm` with one
//! or all threads.
//!
//! # Element types and register tiles
//!
//! The blocking/packing pipeline is generic over
//! [`fmm_matrix::Scalar`]; what is *specialized per type and per CPU*
//! is the register tile, selected by the [`GemmScalar`] impl on every
//! call:
//!
//! - `f64` on an x86-64 CPU with AVX-512F runs an `8 × 16` tile written
//!   with `std::arch` intrinsics (16 zmm accumulators, one fused
//!   multiply-add per element and step);
//! - `f64` on any other CPU or target runs the portable `4 × 8` tile;
//! - `f32` runs the portable `4 × 16` tile — the same accumulator count
//!   as the `f64` one, twice the elements.
//!
//! Each thread packs into its own grow-only buffers, at most 4.25 MiB
//! per thread for `f64`, so a warm [`gemm`] or [`par_gemm`] call
//! allocates nothing.

#[cfg(target_arch = "x86_64")]
mod avx512;
mod naive;
mod packed;
mod parallel;

pub use naive::naive_gemm;
pub use parallel::par_gemm;

use fmm_matrix::{DenseMatrix, MatMut, MatRef, Scalar};

/// A [`Scalar`] with a tuned packed-gemm instantiation: the dispatch
/// point where each element type picks its register tile. This is the
/// bound the executor/engine layers require — a future semiring backend
/// implements it once (the default body falls back to the naive
/// triple loop, which is always correct) and the whole stack serves it.
pub trait GemmScalar: Scalar {
    /// Rows of `B` per stored column of `A`: the number of inner-
    /// dimension entries one element of `A` packs. An `m × q` `A`
    /// multiplies a `(q·K_PACK) × n` `B`. Every one-entry-per-element
    /// type keeps the default 1; a word-packed type whose element holds
    /// a run of a row sets it to the run length.
    const K_PACK: usize = 1;

    /// Sequential packed `C ← α·A·B + β·C` with this scalar's register
    /// tile.
    fn packed_gemm(
        alpha: Self,
        a: MatRef<'_, Self>,
        b: MatRef<'_, Self>,
        beta: Self,
        c: MatMut<'_, Self>,
    ) {
        naive_gemm(alpha, a, b, beta, c);
    }
}

impl GemmScalar for f64 {
    fn packed_gemm(
        alpha: Self,
        a: MatRef<'_, Self>,
        b: MatRef<'_, Self>,
        beta: Self,
        c: MatMut<'_, Self>,
    ) {
        packed::gemm_f64(alpha, a, b, beta, c);
    }
}

impl GemmScalar for f32 {
    fn packed_gemm(
        alpha: Self,
        a: MatRef<'_, Self>,
        b: MatRef<'_, Self>,
        beta: Self,
        c: MatMut<'_, Self>,
    ) {
        packed::gemm_f32(alpha, a, b, beta, c);
    }
}

/// Sequential `C ← α·A·B + β·C`.
///
/// Shapes: `A: m×k`, `B: k×n`, `C: m×n`.
pub fn gemm<T: GemmScalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    T::packed_gemm(alpha, a, b, beta, c);
}

/// Convenience wrapper: `C = A·B` as a new owned matrix.
pub fn matmul<T: GemmScalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    assert_eq!(a.cols() * T::K_PACK, b.rows(), "inner dimension mismatch");
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    gemm(T::ONE, a.as_ref(), b.as_ref(), T::ZERO, c.as_mut());
    c
}

/// Flop count of a classical `P × Q × R` multiply–accumulate
/// (`2PQR − PR` when `β = 0`, matching Eq. 3's numerator).
pub fn classical_flops(p: usize, q: usize, r: usize) -> f64 {
    2.0 * p as f64 * q as f64 * r as f64 - (p as f64) * (r as f64)
}

/// Effective GFLOPS metric of the paper (Eq. 3): classical flop count of
/// the problem divided by the measured time, regardless of the algorithm
/// used. Lets classical and fast algorithms share an inverse-time scale.
pub fn effective_gflops(p: usize, q: usize, r: usize, seconds: f64) -> f64 {
    classical_flops(p, q, r) / seconds * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_matrix::Matrix;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let i4 = Matrix::identity(4);
        assert_eq!(matmul(&a, &i4), a);
        assert_eq!(matmul(&i4, &a), a);
    }

    #[test]
    fn matmul_identity_f32() {
        let a = DenseMatrix::<f32>::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let i4 = DenseMatrix::<f32>::identity(4);
        assert_eq!(matmul(&a, &i4), a);
        assert_eq!(matmul(&i4, &a), a);
    }

    #[test]
    fn f32_matches_f64_on_integer_inputs() {
        // Integer-valued operands small enough that every partial sum is
        // exact in f32: the two dtypes must agree exactly, proving the
        // wider f32 tile drops/duplicates nothing.
        let n = 48;
        let a64 = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
        let b64 = Matrix::from_fn(n, n, |i, j| ((3 * i + j) % 7) as f64 - 3.0);
        let a32 = DenseMatrix::<f32>::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as f32 - 2.0);
        let b32 = DenseMatrix::<f32>::from_fn(n, n, |i, j| ((3 * i + j) % 7) as f32 - 3.0);
        let c64 = matmul(&a64, &b64);
        let c32 = matmul(&a32, &b32);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(c64[(i, j)], c32[(i, j)] as f64, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn effective_gflops_metric() {
        // 1000×1000×1000 in one second = (2e9 - 1e6) * 1e-9 effective GFLOPS.
        let g = effective_gflops(1000, 1000, 1000, 1.0);
        assert!((g - 1.999).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }
}
