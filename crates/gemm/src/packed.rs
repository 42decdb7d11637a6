//! Cache-blocked, operand-packing sequential gemm.
//!
//! Loop structure follows the GotoBLAS/BLIS design: the three outer loops
//! tile `n` by `NC`, `k` by `KC` and `m` by `MC`; panels of `A` and `B`
//! are packed into contiguous, tile-ordered buffers; the register tile
//! computes an `MR × NR` block of `C` from an `MR`-row micro-panel of
//! `A` and an `NR`-column micro-panel of `B`, and adds it into `C`.
//!
//! # Register tiles
//!
//! The tile is chosen per call, per element type and per CPU:
//!
//! - `f64` on an x86-64 CPU that reports AVX-512F: the `8 × 16`
//!   `std::arch` tile of [`crate::avx512`], 16 zmm accumulators;
//! - `f64` anywhere else: the portable `4 × 8` tile in this file;
//! - `f32`: the portable `4 × 16` tile, the same accumulator count as
//!   the `f64` one with twice the elements.
//!
//! Ragged edges run the same tile on zero-padded panels, and only the
//! valid part of its result is added into `C`. So every element of `C`
//! takes the same sequence of operations wherever it sits in a tile,
//! and a product split into pieces (as `par_gemm` does) gives the same
//! bits as the whole.
//!
//! # Pack buffers
//!
//! Every thread keeps one pair of pack buffers per element type, grown
//! to the largest call it has run and never shrunk:
//! `⌈min(MC,m)/MR⌉·MR · min(KC,k)` elements for `A` and
//! `min(KC,k) · ⌈min(NC,n)/NR⌉·NR` for `B`, at most 4.25 MiB per thread
//! for `f64`. A warm call allocates nothing and clears nothing: the
//! packers write every element the tile reads, padding included.
//!
//! The loop tile sizes are constants for every element type: `MC × KC`
//! panels of `A` are packed to fit in L2, `KC × NC` panels of `B` in L3.

use crate::naive::naive_gemm;
use fmm_matrix::{MatMut, MatRef, Scalar};
use std::cell::RefCell;
use std::thread::LocalKey;

/// Rows of the packed `A` panel.
const MC: usize = 128;
/// Shared (inner) dimension of both packed panels.
const KC: usize = 256;
/// Columns of the packed `B` panel.
const NC: usize = 2048;

/// Products with at most this many rows skip packing and take the
/// direct path (`naive_gemm`), whatever the tile: the tile would mostly
/// multiply zero padding.
const THIN_M: usize = 4;
/// Products with at most this many inner steps take the direct path:
/// packing and the tile's write-back cost more than the `k`
/// multiply-adds per element of `C`.
const THIN_K: usize = 2;
/// Products with `max(m, k, n)` at or below this take the direct path
/// on the portable tiles, where packing does not pay below 32³.
const PORTABLE_SMALL: usize = 32;
/// The same for the AVX-512 tile: packing pays once a product fills
/// one tile height (8³ and up).
#[cfg(target_arch = "x86_64")]
const AVX512_SMALL: usize = 7;

/// One thread's pack buffers for one element type: `(A, B)`.
type PackBufs<T> = RefCell<(Vec<T>, Vec<T>)>;

thread_local! {
    static PACK_F64: PackBufs<f64> = const { RefCell::new((Vec::new(), Vec::new())) };
    static PACK_F32: PackBufs<f32> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Sequential packed `f64` gemm with the widest tile this CPU runs.
pub(crate) fn gemm_f64(
    alpha: f64,
    a: MatRef<'_, f64>,
    b: MatRef<'_, f64>,
    beta: f64,
    c: MatMut<'_, f64>,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx) = crate::avx512::Avx512::detect() {
        use crate::avx512::{MR, NR};
        let tile = |ap: &[f64], bp: &[f64], kc| avx.tile(ap, bp, kc);
        return gemm_tiles::<f64, MR, NR, AVX512_SMALL>(alpha, a, b, beta, c, &PACK_F64, tile);
    }
    gemm_tiles::<f64, 4, 8, PORTABLE_SMALL>(alpha, a, b, beta, c, &PACK_F64, generic_tile);
}

/// Sequential packed `f32` gemm with the portable `4 × 16` tile.
pub(crate) fn gemm_f32(
    alpha: f32,
    a: MatRef<'_, f32>,
    b: MatRef<'_, f32>,
    beta: f32,
    c: MatMut<'_, f32>,
) {
    gemm_tiles::<f32, 4, 16, PORTABLE_SMALL>(alpha, a, b, beta, c, &PACK_F32, generic_tile);
}

/// Sequential `C ← α·A·B + β·C` with an `MR_ × NR_` register `tile`,
/// packing into this thread's buffers in `pack`; products no larger
/// than `SMALL` in every dimension, and thin ones, take the direct path.
///
/// The direct-path rule reads `m` only up to [`THIN_M`], `k`, and
/// whether `max(m, k, n) ≤ SMALL ≤ 32`. A piece of a `par_gemm` split
/// keeps `k`, keeps `m` or has at least 32 rows, and has at least 2048
/// elements (so a side longer than 32), so it takes the path of the
/// whole product: a result does not depend on the pool width.
fn gemm_tiles<T: Scalar, const MR_: usize, const NR_: usize, const SMALL: usize>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    pack: &'static LocalKey<PackBufs<T>>,
    tile: impl Fn(&[T], &[T], usize) -> [[T; NR_]; MR_],
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

    if m <= THIN_M || k <= THIN_K || m.max(n).max(k) <= SMALL {
        naive_gemm(alpha, a, b, T::ONE, c);
        return;
    }

    pack.with_borrow_mut(|(apack, bpack)| {
        let apack = grown(apack, MC.min(m).div_ceil(MR_) * MR_ * KC.min(k));
        let bpack = grown(bpack, KC.min(k) * NC.min(n).div_ceil(NR_) * NR_);
        let mut jc = 0;
        while jc < n {
            let nc_eff = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc_eff = KC.min(k - pc);
                pack_b::<T, NR_>(bpack, &b, pc, jc, kc_eff, nc_eff);
                let mut ic = 0;
                while ic < m {
                    let mc_eff = MC.min(m - ic);
                    pack_a::<T, MR_>(apack, &a, ic, pc, mc_eff, kc_eff, alpha);
                    macro_kernel::<T, MR_, NR_>(
                        apack,
                        bpack,
                        c.reborrow().into_block(ic, jc, mc_eff, nc_eff),
                        kc_eff,
                        &tile,
                    );
                    ic += mc_eff;
                }
                pc += kc_eff;
            }
            jc += nc_eff;
        }
    });
}

/// The first `len` elements of `buf`, growing it (zero-filled) first
/// when it is shorter.
fn grown<T: Scalar>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::ZERO);
    }
    &mut buf[..len]
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

/// Multiply the packed panels into the `mc × nc` block `c`, one
/// `MR_ × NR_` tile at a time, adding only the valid part of each edge
/// tile.
fn macro_kernel<T: Scalar, const MR_: usize, const NR_: usize>(
    apack: &[T],
    bpack: &[T],
    mut c: MatMut<'_, T>,
    kc: usize,
    tile: &impl Fn(&[T], &[T], usize) -> [[T; NR_]; MR_],
) {
    let (mc, nc) = (c.rows(), c.cols());
    for (j0, bpanel) in (0..nc).step_by(NR_).zip(bpack.chunks_exact(kc * NR_)) {
        let nr_eff = NR_.min(nc - j0);
        for (i0, apanel) in (0..mc).step_by(MR_).zip(apack.chunks_exact(kc * MR_)) {
            let mr_eff = MR_.min(mc - i0);
            let acc = tile(apanel, bpanel, kc);
            let mut cblock = c.reborrow().into_block(i0, j0, mr_eff, nr_eff);
            for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
                for (x, &v) in cblock.row_mut(i).iter_mut().zip(acc_row) {
                    *x += v;
                }
            }
        }
    }
}

/// Portable `MR_ × NR_` register tile, the contract of
/// [`crate::avx512::Avx512::tile`] with a separate multiply and add per
/// step.
fn generic_tile<T: Scalar, const MR_: usize, const NR_: usize>(
    apanel: &[T],
    bpanel: &[T],
    kc: usize,
) -> [[T; NR_]; MR_] {
    let mut acc = [[T::ZERO; NR_]; MR_];
    let steps = apanel.chunks_exact(MR_).zip(bpanel.chunks_exact(NR_));
    for (arow, brow) in steps.take(kc) {
        for (acc_i, &aip) in acc.iter_mut().zip(arow) {
            for (x, &bpj) in acc_i.iter_mut().zip(brow) {
                *x += aip * bpj;
            }
        }
    }
    acc
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
        check(33, 33, 33, -0.5, 0.5, 13); // just above PORTABLE_SMALL
    }

    #[test]
    fn shapes_ragged_for_the_avx512_tile() {
        // Partial 8 × 16 tiles in m and n, partial KC panels, and a
        // 129 × 257 × 2049 product one past MC, KC and NC; 1 × 300 × 200
        // is a peel strip.
        for (seed, (m, k, n)) in [(9, 17, 33), (7, 300, 15), (1, 300, 200), (129, 257, 2049)]
            .into_iter()
            .enumerate()
        {
            check(m, k, n, -0.5, 0.5, 20 + seed as u64);
        }
    }

    #[test]
    fn avx512_tile_matches_the_portable_tile_within_the_dot_product_bound() {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx) = crate::avx512::Avx512::detect() {
            use super::{generic_tile, pack_a, pack_b};
            use crate::avx512::{MR, NR};
            let mut rng = StdRng::seed_from_u64(40);
            let (rows, cols) = (5, 11);
            for kc in [1, 2, 17, 256] {
                // Pack a 5-row, 11-column block, so both panels carry
                // zero padding, and run both tiles on the same panels.
                let a = Matrix::random(rows, kc, &mut rng);
                let b = Matrix::random(kc, cols, &mut rng);
                let mut apanel = vec![f64::NAN; kc * MR];
                let mut bpanel = vec![f64::NAN; kc * NR];
                pack_a::<f64, MR>(&mut apanel, &a.as_ref(), 0, 0, rows, kc, 1.0);
                pack_b::<f64, NR>(&mut bpanel, &b.as_ref(), 0, 0, kc, cols);
                let simd = avx.tile(&apanel, &bpanel, kc);
                let portable = generic_tile::<f64, MR, NR>(&apanel, &bpanel, kc);
                // Each is within γ_kc·Σ|a||b| of the exact sum (fused or
                // not), so they are within twice that of each other.
                let u = f64::EPSILON / 2.0;
                let gamma = kc as f64 * u / (1.0 - kc as f64 * u);
                for i in 0..MR {
                    for j in 0..NR {
                        let mag: f64 = (0..kc)
                            .map(|p| (apanel[p * MR + i] * bpanel[p * NR + j]).abs())
                            .sum();
                        let d = (simd[i][j] - portable[i][j]).abs();
                        assert!(
                            d <= 2.0 * gamma * mag,
                            "kc {kc} ({i},{j}): |{} - {}| > 2γ·{mag}",
                            simd[i][j],
                            portable[i][j]
                        );
                        if i >= rows || j >= cols {
                            assert_eq!(simd[i][j], 0.0, "padding ({i},{j}) at kc {kc}");
                        }
                    }
                }
            }
            println!("note: AVX-512F tile checked against the portable tile");
            return;
        }
        println!("note: skipped, this CPU has no AVX-512F tile; only the portable tile runs here");
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
