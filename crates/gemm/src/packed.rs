//! Cache-blocked, operand-packing sequential gemm.
//!
//! Loop structure follows the GotoBLAS/BLIS design: the three outer loops
//! tile `n` by `nc`, `k` by `kc` and `m` by `mc`; panels of `A` and `B`
//! are packed into contiguous, microkernel-ordered buffers; the inner
//! register kernel computes an `MR × NR` tile of `C` with local
//! accumulators that LLVM keeps in vector registers.
//!
//! The whole pipeline is generic over the element type; the register
//! tile `MR × NR` is chosen **per scalar** by the
//! [`crate::GemmScalar`] impls — `4 × 8` for `f64` (unchanged from the
//! original f64-only kernel) and `4 × 16` for `f32`, which keeps the
//! accumulator footprint at the same number of vector registers while
//! doubling the elements per register.
//!
//! The loop tile sizes are constants for every element type: `MC × KC`
//! panels of `A` are packed to fit in L2, `KC × NC` panels of `B` in L3.

use crate::naive::naive_gemm;
use fmm_matrix::{MatMut, MatRef, Scalar};

/// Microkernel tile rows of the `f64` instantiation.
pub const MR: usize = 4;
/// Microkernel tile columns of the `f64` instantiation.
pub const NR: usize = 8;

/// Rows of the packed `A` panel.
const MC: usize = 128;
/// Shared (inner) dimension of both packed panels.
const KC: usize = 256;
/// Columns of the packed `B` panel.
const NC: usize = 2048;
/// Problems with `max(m, k, n)` at or below this size skip packing and
/// use the direct small-kernel path (packing overhead dominates there).
const SMALL_CUTOFF: usize = 32;

/// Sequential `C ← α·A·B + β·C` with a compile-time `MR_ × NR_`
/// register tile.
pub(crate) fn gemm_tiles<T: Scalar, const MR_: usize, const NR_: usize>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    assert_eq!(c.rows(), m, "output rows mismatch");
    assert_eq!(c.cols(), n, "output cols mismatch");

    if m == 0 || n == 0 {
        return;
    }

    // Apply beta once up front; all panel updates below accumulate.
    if beta == T::ZERO {
        for i in 0..m {
            c.row_mut(i).iter_mut().for_each(|x| *x = T::ZERO);
        }
    } else if beta != T::ONE {
        for i in 0..m {
            c.row_mut(i).iter_mut().for_each(|x| *x *= beta);
        }
    }
    if k == 0 || alpha == T::ZERO {
        return;
    }

    if m.max(n).max(k) <= SMALL_CUTOFF {
        // Packing overhead dominates tiny products; accumulate directly.
        naive_gemm(alpha, a, b, T::ONE, c);
        return;
    }

    let mut apack = vec![T::ZERO; MC.div_ceil(MR_) * MR_ * KC];
    let mut bpack = vec![T::ZERO; KC * NC.div_ceil(NR_) * NR_];

    let mut jc = 0;
    while jc < n {
        let nc_eff = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc_eff = KC.min(k - pc);
            pack_b::<T, NR_>(&mut bpack, &b, pc, jc, kc_eff, nc_eff);
            let mut ic = 0;
            while ic < m {
                let mc_eff = MC.min(m - ic);
                pack_a::<T, MR_>(&mut apack, &a, ic, pc, mc_eff, kc_eff, alpha);
                macro_kernel::<T, MR_, NR_>(
                    &apack,
                    &bpack,
                    c.reborrow().into_block(ic, jc, mc_eff, nc_eff),
                    mc_eff,
                    nc_eff,
                    kc_eff,
                );
                ic += mc_eff;
            }
            pc += kc_eff;
        }
        jc += nc_eff;
    }
}

/// Pack `mc × kc` of `A` (starting at `(ic, pc)`) into MR-row micro-panels,
/// folding `alpha` into the packed values. Ragged edges are zero-padded.
fn pack_a<T: Scalar, const MR_: usize>(
    buf: &mut [T],
    a: &MatRef<'_, T>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    alpha: T,
) {
    let mut idx = 0;
    let mut i0 = 0;
    while i0 < mc {
        let mr_eff = MR_.min(mc - i0);
        for p in 0..kc {
            for i in 0..MR_ {
                buf[idx] = if i < mr_eff {
                    alpha * a.get(ic + i0 + i, pc + p)
                } else {
                    T::ZERO
                };
                idx += 1;
            }
        }
        i0 += MR_;
    }
}

/// Pack `kc × nc` of `B` (starting at `(pc, jc)`) into NR-column
/// micro-panels. Ragged edges are zero-padded.
fn pack_b<T: Scalar, const NR_: usize>(
    buf: &mut [T],
    b: &MatRef<'_, T>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
) {
    let mut idx = 0;
    let mut j0 = 0;
    while j0 < nc {
        let nr_eff = NR_.min(nc - j0);
        for p in 0..kc {
            let brow = b.row(pc + p);
            for j in 0..NR_ {
                buf[idx] = if j < nr_eff {
                    brow[jc + j0 + j]
                } else {
                    T::ZERO
                };
                idx += 1;
            }
        }
        j0 += NR_;
    }
}

/// Multiply the packed panels into the `mc × nc` block of `C`.
fn macro_kernel<T: Scalar, const MR_: usize, const NR_: usize>(
    apack: &[T],
    bpack: &[T],
    mut c: MatMut<'_, T>,
    mc: usize,
    nc: usize,
    kc: usize,
) {
    let mut j0 = 0;
    let mut bcol = 0;
    while j0 < nc {
        let nr_eff = NR_.min(nc - j0);
        let bpanel = &bpack[bcol * kc * NR_..(bcol + 1) * kc * NR_];
        let mut i0 = 0;
        let mut arow = 0;
        while i0 < mc {
            let mr_eff = MR_.min(mc - i0);
            let apanel = &apack[arow * kc * MR_..(arow + 1) * kc * MR_];
            micro_kernel::<T, MR_, NR_>(
                apanel,
                bpanel,
                kc,
                c.reborrow().into_block(i0, j0, mr_eff, nr_eff),
                mr_eff,
                nr_eff,
            );
            i0 += MR_;
            arow += 1;
        }
        j0 += NR_;
        bcol += 1;
    }
}

/// `MR × NR` register tile: `C_tile += Apanel · Bpanel`.
#[inline]
fn micro_kernel<T: Scalar, const MR_: usize, const NR_: usize>(
    apanel: &[T],
    bpanel: &[T],
    kc: usize,
    mut c: MatMut<'_, T>,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[T::ZERO; NR_]; MR_];
    debug_assert!(apanel.len() >= kc * MR_);
    debug_assert!(bpanel.len() >= kc * NR_);
    for p in 0..kc {
        let arow = &apanel[p * MR_..p * MR_ + MR_];
        let brow = &bpanel[p * NR_..p * NR_ + NR_];
        for i in 0..MR_ {
            let aip = arow[i];
            let acc_i = &mut acc[i];
            for j in 0..NR_ {
                acc_i[j] += aip * brow[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let crow = c.row_mut(i);
        for j in 0..nr_eff {
            crow[j] += acc_row[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::gemm;
    use fmm_matrix::{max_abs_diff, DenseMatrix, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::naive::naive_gemm;

    fn check(m: usize, k: usize, n: usize, alpha: f64, beta: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let c0 = Matrix::random(m, n, &mut rng);
        let mut c_ref = c0.clone();
        let mut c_pack = c0.clone();
        naive_gemm(alpha, a.as_ref(), b.as_ref(), beta, c_ref.as_mut());
        gemm(alpha, a.as_ref(), b.as_ref(), beta, c_pack.as_mut());
        let d = max_abs_diff(&c_ref.as_ref(), &c_pack.as_ref()).unwrap();
        assert!(
            d < 1e-10 * (k as f64).max(1.0),
            "mismatch {d} for {m}x{k}x{n} α={alpha} β={beta}"
        );
    }

    fn check_f32(m: usize, k: usize, n: usize, alpha: f32, beta: f32, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = DenseMatrix::<f32>::random(m, k, &mut rng);
        let b = DenseMatrix::<f32>::random(k, n, &mut rng);
        let c0 = DenseMatrix::<f32>::random(m, n, &mut rng);
        let mut c_ref = c0.clone();
        let mut c_pack = c0.clone();
        naive_gemm(alpha, a.as_ref(), b.as_ref(), beta, c_ref.as_mut());
        gemm(alpha, a.as_ref(), b.as_ref(), beta, c_pack.as_mut());
        let d = max_abs_diff(&c_ref.as_ref(), &c_pack.as_ref()).unwrap();
        assert!(
            d < 1e-4 * (k as f64).max(1.0),
            "mismatch {d} for f32 {m}x{k}x{n} α={alpha} β={beta}"
        );
    }

    #[test]
    fn matches_naive_on_assorted_shapes() {
        check(1, 1, 1, 1.0, 0.0, 1);
        check(4, 8, 4, 1.0, 0.0, 2);
        check(33, 65, 47, 1.0, 0.0, 3);
        check(128, 128, 128, 1.0, 0.0, 4);
        check(200, 30, 170, 1.0, 0.0, 5);
        check(31, 257, 63, 1.0, 0.0, 6);
    }

    #[test]
    fn f32_matches_naive_on_assorted_shapes() {
        // Shapes straddle the f32 tile edges (NR = 16) and the small
        // cutoff, so panel raggedness in the wider tile is exercised.
        check_f32(1, 1, 1, 1.0, 0.0, 1);
        check_f32(4, 8, 4, 1.0, 0.0, 2);
        check_f32(33, 65, 47, 1.0, 0.0, 3);
        check_f32(128, 128, 128, 1.0, 0.0, 4);
        check_f32(200, 30, 170, 1.0, 0.0, 5);
        check_f32(31, 257, 63, 1.0, 0.0, 6);
        check_f32(50, 50, 50, 2.0, 1.0, 7);
        check_f32(50, 50, 50, -0.5, 0.5, 8);
    }

    #[test]
    fn alpha_beta_paths() {
        check(50, 50, 50, 2.0, 1.0, 7);
        check(50, 50, 50, -0.5, 0.5, 8);
        check(50, 50, 50, 0.0, 2.0, 9);
        check(7, 7, 7, 1.0, 1.0, 10);
    }

    #[test]
    fn shapes_straddle_the_block_edges() {
        check(131, 259, 37, 1.0, 0.0, 11); // crosses MC and KC
        check(5, 3, 2053, 1.0, 0.0, 12); // crosses NC
        check(33, 33, 33, -0.5, 0.5, 13); // just above SMALL_CUTOFF
    }

    #[test]
    fn strided_views_multiply_correctly() {
        // Multiply interior blocks of larger matrices to exercise strides.
        let mut rng = StdRng::seed_from_u64(12);
        let abig = Matrix::random(80, 80, &mut rng);
        let bbig = Matrix::random(80, 80, &mut rng);
        let a = abig.block(5, 7, 40, 33);
        let b = bbig.block(2, 3, 33, 50);
        let mut c1 = Matrix::zeros(40, 50);
        let mut c2 = Matrix::zeros(40, 50);
        naive_gemm(1.0, a, b, 0.0, c1.as_mut());
        gemm(1.0, a, b, 0.0, c2.as_mut());
        assert!(max_abs_diff(&c1.as_ref(), &c2.as_ref()).unwrap() < 1e-11);
    }

    #[test]
    fn zero_k_clears_output_when_beta_zero() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::filled(3, 3, 9.0);
        gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert_eq!(c, Matrix::zeros(3, 3));
    }
}
