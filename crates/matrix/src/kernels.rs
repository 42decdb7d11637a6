//! Bandwidth-bound matrix addition kernels.
//!
//! These are the building blocks for the three addition strategies the
//! paper studies in §3.2:
//!
//! * **pairwise** — one single-term [`lincomb`] per term of the
//!   addition chain, `β = 0` for the first and `β = 1` (the `daxpy`
//!   step) for the rest;
//! * **write-once** — a single [`lincomb`] pass writing each output
//!   entry exactly once while reading every source;
//! * **streaming** — [`stream_update`] reads a source block once while
//!   updating *all* temporaries that depend on it.
//!
//! Each kernel has a rayon-parallel counterpart (`par_*`) that splits on
//! rows at [`PAR_GRAIN_ROWS`], which is how the DFS scheme
//! parallelizes matrix additions (§4.1: "matrix additions are trivially
//! parallelized").
//!
//! All kernels are generic over the element type ([`Scalar`]): the
//! addition strategies only need ring arithmetic, so the same code path
//! serves `f64`, `f32` and future semiring backends.

use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};

/// Row count below which parallel kernels stop splitting.
pub const PAR_GRAIN_ROWS: usize = 64;

/// `dst ← β·dst + Σ_t α_t·src_t` in a single pass over `dst`.
///
/// With `beta = 0` this is the **write-once** evaluation of an addition
/// chain: every destination entry is written exactly once, every source
/// is read exactly once (§3.2, variant 2). With `beta = 1` it accumulates
/// into the existing contents; a single term with `beta = 1` is the
/// `daxpy` step of the pairwise strategy (§3.2, variant 1).
pub fn lincomb<T: Scalar>(mut dst: MatMut<'_, T>, beta: T, terms: &[(T, MatRef<'_, T>)]) {
    let (rows, cols) = (dst.rows(), dst.cols());
    for (_, s) in terms {
        debug_assert_eq!(s.rows(), rows);
        debug_assert_eq!(s.cols(), cols);
    }
    match terms {
        [] => {
            if beta == T::ZERO {
                dst.fill(T::ZERO);
            } else if beta != T::ONE {
                for i in 0..rows {
                    dst.row_mut(i).iter_mut().for_each(|x| *x *= beta);
                }
            }
        }
        &[(a, s)] => {
            for i in 0..rows {
                let d = dst.row_mut(i);
                let sr = s.row(i);
                if beta == T::ZERO {
                    for j in 0..cols {
                        d[j] = a * sr[j];
                    }
                } else {
                    for j in 0..cols {
                        d[j] = beta * d[j] + a * sr[j];
                    }
                }
            }
        }
        &[(a0, s0), (a1, s1)] => {
            for i in 0..rows {
                let d = dst.row_mut(i);
                let r0 = s0.row(i);
                let r1 = s1.row(i);
                if beta == T::ZERO {
                    for j in 0..cols {
                        d[j] = a0 * r0[j] + a1 * r1[j];
                    }
                } else {
                    for j in 0..cols {
                        d[j] = beta * d[j] + a0 * r0[j] + a1 * r1[j];
                    }
                }
            }
        }
        _ => {
            for i in 0..rows {
                let d = dst.row_mut(i);
                if beta == T::ZERO {
                    let &(a0, s0) = &terms[0];
                    let r0 = s0.row(i);
                    for j in 0..cols {
                        d[j] = a0 * r0[j];
                    }
                } else if beta != T::ONE {
                    d.iter_mut().for_each(|x| *x *= beta);
                }
                let rest = if beta == T::ZERO { &terms[1..] } else { terms };
                for &(a, s) in rest {
                    let sr = s.row(i);
                    for j in 0..cols {
                        d[j] += a * sr[j];
                    }
                }
            }
        }
    }
}

/// Streaming update: `dst_t ← dst_t + α_t·src` for every target, reading
/// `src` once per row while all destination rows stream through cache
/// (§3.2, variant 3).
pub fn stream_update<T: Scalar>(dsts: &mut [(T, MatMut<'_, T>)], src: MatRef<'_, T>) {
    let (rows, cols) = (src.rows(), src.cols());
    for (_, d) in dsts.iter() {
        debug_assert_eq!(d.rows(), rows);
        debug_assert_eq!(d.cols(), cols);
    }
    for i in 0..rows {
        let s = src.row(i);
        for (alpha, d) in dsts.iter_mut() {
            let dr = d.row_mut(i);
            let a = *alpha;
            for j in 0..cols {
                dr[j] += a * s[j];
            }
        }
    }
}

/// Scale a block in place: `dst ← α·dst`.
pub fn scale<T: Scalar>(mut dst: MatMut<'_, T>, alpha: T) {
    if alpha == T::ONE {
        return;
    }
    for i in 0..dst.rows() {
        dst.row_mut(i).iter_mut().for_each(|x| *x *= alpha);
    }
}

/// Scaled operands of a linear combination: `(coefficient, matrix)`.
type Terms<'a, T> = Vec<(T, MatRef<'a, T>)>;

fn split_terms<'a, T: Scalar>(
    terms: &[(T, MatRef<'a, T>)],
    mid: usize,
) -> (Terms<'a, T>, Terms<'a, T>) {
    let top = terms
        .iter()
        .map(|(a, s)| (*a, s.block(0, 0, mid, s.cols())))
        .collect();
    let bot = terms
        .iter()
        .map(|(a, s)| (*a, s.block(mid, 0, s.rows() - mid, s.cols())))
        .collect();
    (top, bot)
}

/// Parallel [`lincomb`]: recursively splits on rows and runs leaf
/// lincombs under rayon `join`.
pub fn par_lincomb<T: Scalar>(dst: MatMut<'_, T>, beta: T, terms: &[(T, MatRef<'_, T>)]) {
    if dst.rows() <= PAR_GRAIN_ROWS {
        lincomb(dst, beta, terms);
        return;
    }
    let mid = dst.rows() / 2;
    let (top, bot) = dst.split_at_row(mid);
    let (tt, tb) = split_terms(terms, mid);
    rayon::join(
        || par_lincomb(top, beta, &tt),
        || par_lincomb(bot, beta, &tb),
    );
}

/// Parallel [`stream_update`]: splits the source and every destination
/// on rows and streams each half under rayon `join`. Used by the DFS
/// scheme, which parallelizes *all* additions (§4.1), when the
/// streaming strategy is selected.
pub fn par_stream_update<T: Scalar>(dsts: &mut [(T, MatMut<'_, T>)], src: MatRef<'_, T>) {
    if src.rows() <= PAR_GRAIN_ROWS || dsts.is_empty() {
        stream_update(dsts, src);
        return;
    }
    let mid = src.rows() / 2;
    let s_top = src.block(0, 0, mid, src.cols());
    let s_bot = src.block(mid, 0, src.rows() - mid, src.cols());
    let mut tops: Vec<(T, MatMut<'_, T>)> = Vec::with_capacity(dsts.len());
    let mut bots: Vec<(T, MatMut<'_, T>)> = Vec::with_capacity(dsts.len());
    for (alpha, d) in dsts.iter_mut() {
        let rows = d.rows();
        let cols = d.cols();
        let (t, b) = d.reborrow().split_at_row(mid.min(rows));
        debug_assert_eq!(cols, src.cols());
        tops.push((*alpha, t));
        bots.push((*alpha, b));
    }
    rayon::join(
        || par_stream_update(&mut tops, s_top),
        || par_stream_update(&mut bots, s_bot),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseMatrix, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::random(r, c, &mut rng)
    }

    #[test]
    fn single_term_lincomb_is_the_pairwise_step() {
        // β = 0 writes a scaled copy, β = 1 is `daxpy`, both rounding
        // exactly like the expression they stand for.
        let a = rand_mat(7, 5, 1);
        let mut c = rand_mat(7, 5, 2);
        let expect = Matrix::from_fn(7, 5, |i, j| c[(i, j)] + 2.5 * a[(i, j)]);
        lincomb(c.as_mut(), 1.0, &[(2.5, a.as_ref())]);
        assert_eq!(c, expect);
        lincomb(c.as_mut(), 0.0, &[(-0.5, a.as_ref())]);
        assert_eq!(c, Matrix::from_fn(7, 5, |i, j| -0.5 * a[(i, j)]));
    }

    #[test]
    fn lincomb_write_once_three_terms() {
        let a = rand_mat(6, 6, 4);
        let b = rand_mat(6, 6, 5);
        let d = rand_mat(6, 6, 6);
        let mut c = rand_mat(6, 6, 7); // pre-existing junk must be overwritten
        lincomb(
            c.as_mut(),
            0.0,
            &[(1.0, a.as_ref()), (-2.0, b.as_ref()), (0.5, d.as_ref())],
        );
        for i in 0..6 {
            for j in 0..6 {
                let want = a[(i, j)] - 2.0 * b[(i, j)] + 0.5 * d[(i, j)];
                assert!((c[(i, j)] - want).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn lincomb_accumulates_with_beta_one() {
        let a = rand_mat(3, 3, 8);
        let mut c = Matrix::filled(3, 3, 1.0);
        lincomb(c.as_mut(), 1.0, &[(2.0, a.as_ref())]);
        for i in 0..3 {
            for j in 0..3 {
                assert!((c[(i, j)] - (1.0 + 2.0 * a[(i, j)])).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn lincomb_empty_terms_scales() {
        let mut c = Matrix::filled(2, 2, 3.0);
        lincomb(c.as_mut(), 0.0, &[]);
        assert_eq!(c, Matrix::zeros(2, 2));
        let mut c2 = Matrix::filled(2, 2, 3.0);
        lincomb(c2.as_mut(), 2.0, &[]);
        assert_eq!(c2, Matrix::filled(2, 2, 6.0));
    }

    #[test]
    fn stream_update_matches_pairwise_steps() {
        let src = rand_mat(5, 4, 9);
        let mut t1 = rand_mat(5, 4, 10);
        let mut t2 = rand_mat(5, 4, 11);
        let mut r1 = t1.clone();
        let mut r2 = t2.clone();
        {
            let mut dsts = vec![(1.5, t1.as_mut()), (-3.0, t2.as_mut())];
            stream_update(&mut dsts, src.as_ref());
        }
        lincomb(r1.as_mut(), 1.0, &[(1.5, src.as_ref())]);
        lincomb(r2.as_mut(), 1.0, &[(-3.0, src.as_ref())]);
        assert_eq!(t1, r1);
        assert_eq!(t2, r2);
    }

    #[test]
    fn parallel_kernels_match_sequential() {
        let a = rand_mat(300, 17, 12);
        let b = rand_mat(300, 17, 13);
        let mut c_seq = Matrix::zeros(300, 17);
        let mut c_par = Matrix::zeros(300, 17);
        lincomb(c_seq.as_mut(), 0.0, &[(1.0, a.as_ref()), (2.0, b.as_ref())]);
        par_lincomb(c_par.as_mut(), 0.0, &[(1.0, a.as_ref()), (2.0, b.as_ref())]);
        assert_eq!(c_seq, c_par);

        let mut d_seq = a.clone();
        let mut d_par = a.clone();
        lincomb(d_seq.as_mut(), 1.0, &[(-1.25, b.as_ref())]);
        par_lincomb(d_par.as_mut(), 1.0, &[(-1.25, b.as_ref())]);
        assert_eq!(d_seq, d_par);
    }

    #[test]
    fn par_stream_update_matches_sequential() {
        let src = rand_mat(257, 19, 31);
        let mut t1 = rand_mat(257, 19, 32);
        let mut t2 = rand_mat(257, 19, 33);
        let mut r1 = t1.clone();
        let mut r2 = t2.clone();
        {
            let mut dsts = vec![(0.5, t1.as_mut()), (2.0, t2.as_mut())];
            par_stream_update(&mut dsts, src.as_ref());
        }
        {
            let mut dsts = vec![(0.5, r1.as_mut()), (2.0, r2.as_mut())];
            stream_update(&mut dsts, src.as_ref());
        }
        assert_eq!(t1, r1);
        assert_eq!(t2, r2);
    }

    #[test]
    fn scale_in_place() {
        let mut c = Matrix::filled(3, 2, 2.0);
        scale(c.as_mut(), 0.5);
        assert_eq!(c, Matrix::filled(3, 2, 1.0));
    }

    #[test]
    fn f32_kernels_match_f64_on_exact_inputs() {
        // Small integer-valued operands: every kernel result is exact in
        // both dtypes, so the f32 path must agree with f64 bit-for-bit
        // after widening.
        let a64 = Matrix::from_fn(5, 4, |i, j| (i as f64) - (j as f64));
        let b64 = Matrix::from_fn(5, 4, |i, j| (i * j) as f64 - 3.0);
        let a32 = DenseMatrix::<f32>::from_fn(5, 4, |i, j| (i as f32) - (j as f32));
        let b32 = DenseMatrix::<f32>::from_fn(5, 4, |i, j| (i * j) as f32 - 3.0);
        let mut c64 = Matrix::zeros(5, 4);
        let mut c32 = DenseMatrix::<f32>::zeros(5, 4);
        lincomb(
            c64.as_mut(),
            0.0,
            &[(2.0, a64.as_ref()), (-1.0, b64.as_ref())],
        );
        lincomb(
            c32.as_mut(),
            0.0,
            &[(2.0, a32.as_ref()), (-1.0, b32.as_ref())],
        );
        for i in 0..5 {
            for j in 0..4 {
                assert_eq!(c64[(i, j)], c32[(i, j)] as f64);
            }
        }
        lincomb(c32.as_mut(), 1.0, &[(3.0, a32.as_ref())]);
        lincomb(c64.as_mut(), 1.0, &[(3.0, a64.as_ref())]);
        assert_eq!(c64[(4, 3)], c32[(4, 3)] as f64);
    }
}
