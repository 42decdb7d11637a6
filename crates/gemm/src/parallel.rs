//! Rayon-parallel gemm driver.
//!
//! Splits the output recursively — along *both* dimensions — into
//! enough pieces that the work-stealing runtime can balance them, then
//! runs the packed sequential kernel on each piece. The pool width is
//! re-read from the runtime on every call (not captured at
//! configuration time), so the same code adapts when it runs inside a
//! caller-provided `rayon::ThreadPool` (via `pool.install`) — which is
//! how the harness reproduces the paper's 6-core vs 24-core sweeps at
//! this machine's scale — or under an `FMM_THREADS` override.

use fmm_matrix::{MatMut, MatRef};

use crate::{gemm, GemmScalar};

/// Below this many output elements a split is never worthwhile.
const MIN_PAR_ELEMS: usize = 64 * 64;

/// Pieces per advertised thread. Oversplitting a little keeps every
/// deque stocked with stealable work, so a worker that finishes early
/// (or a pool that grew between calls) still finds something to take.
const OVERSPLIT: usize = 2;

/// Parallel `C ← α·A·B + β·C` using the current rayon pool.
pub fn par_gemm<T: GemmScalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    assert_eq!(b.rows(), a.cols() * T::K_PACK, "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "output cols mismatch");
    // Pool width at *call* time: the same function parallelizes
    // differently inside `pool.install(..)` than outside it. A width-1
    // pool runs the whole product unsplit — oversplitting there would
    // only add packing overhead to single-thread baselines.
    let width = rayon::current_num_threads();
    let ways = if width > 1 { width * OVERSPLIT } else { 1 };
    split_run(alpha, a, b, beta, c, ways);
}

fn split_run<T: GemmScalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    ways: usize,
) {
    let (m, n) = (c.rows(), c.cols());
    if ways <= 1 || m * n <= MIN_PAR_ELEMS || (m < 2 && n < 2) {
        gemm(alpha, a, b, beta, c);
        return;
    }
    let lo_ways = ways / 2;
    let hi_ways = ways - lo_ways;
    // Halve the longer dimension; when one dimension cannot split any
    // further (`ways` exceeding the row count, or a single-row strip),
    // the other absorbs the surplus, so tall, wide and square outputs
    // all decompose into ~`ways` tiles.
    let split_rows = if m < 2 {
        false
    } else if n < 2 {
        true
    } else {
        m >= n
    };
    if split_rows {
        let mid = m / 2;
        let (ctop, cbot) = c.split_at_row(mid);
        let atop = a.block(0, 0, mid, a.cols());
        let abot = a.block(mid, 0, m - mid, a.cols());
        rayon::join(
            || split_run(alpha, atop, b, beta, ctop, hi_ways),
            || split_run(alpha, abot, b, beta, cbot, lo_ways),
        );
    } else {
        let mid = n / 2;
        let (cleft, cright) = c.split_at_col(mid);
        let bleft = b.block(0, 0, b.rows(), mid);
        let bright = b.block(0, mid, b.rows(), n - mid);
        rayon::join(
            || split_run(alpha, a, bleft, beta, cleft, hi_ways),
            || split_run(alpha, a, bright, beta, cright, lo_ways),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_gemm;
    use fmm_matrix::{max_abs_diff, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_matches_naive() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n) in &[(64usize, 64usize, 64usize), (301, 97, 403), (150, 300, 40)] {
            let a = Matrix::random(m, k, &mut rng);
            let b = Matrix::random(k, n, &mut rng);
            let mut c1 = Matrix::zeros(m, n);
            let mut c2 = Matrix::zeros(m, n);
            naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
            par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c2.as_mut());
            let d = max_abs_diff(&c1.as_ref(), &c2.as_ref()).unwrap();
            assert!(d < 1e-10 * k as f64, "mismatch {d} at {m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_beta_accumulation() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = Matrix::random(200, 64, &mut rng);
        let b = Matrix::random(64, 200, &mut rng);
        let c0 = Matrix::random(200, 200, &mut rng);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        naive_gemm(1.5, a.as_ref(), b.as_ref(), -1.0, c1.as_mut());
        par_gemm(1.5, a.as_ref(), b.as_ref(), -1.0, c2.as_mut());
        assert!(max_abs_diff(&c1.as_ref(), &c2.as_ref()).unwrap() < 1e-10);
    }

    #[test]
    fn wide_pool_on_short_output_spills_into_column_splits() {
        // 2 output rows but 8 advertised threads: row halving alone
        // cannot produce 8 pieces, so the splitter must recurse into
        // columns. Verify correctness (and implicitly that no strip is
        // dropped or doubled).
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let a = Matrix::random(2, 96, &mut rng);
        let b = Matrix::random(96, 2048, &mut rng);
        let mut c1 = Matrix::zeros(2, 2048);
        let mut c2 = Matrix::zeros(2, 2048);
        naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
        pool.install(|| par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c2.as_mut()));
        assert!(max_abs_diff(&c1.as_ref(), &c2.as_ref()).unwrap() < 1e-10);
    }

    #[test]
    fn split_is_width_invariant_bitwise() {
        // The k-loop is never split, so every output element sees the
        // same floating-point evaluation order regardless of pool
        // width — results must be bitwise identical across widths.
        // 161 × 83 × 203 splits into pieces with partial tiles at every
        // width; 2 × 300 × 3000 splits into direct-path column strips.
        let mut rng = StdRng::seed_from_u64(30);
        for (m, k, n) in [(160, 80, 200), (161, 83, 203), (2, 300, 3000)] {
            let a = Matrix::random(m, k, &mut rng);
            let b = Matrix::random(k, n, &mut rng);
            let mut reference = Matrix::zeros(m, n);
            par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, reference.as_mut());
            for threads in [1, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut c = Matrix::zeros(m, n);
                pool.install(|| par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut()));
                assert_eq!(c, reference, "width {threads} changed {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn runs_inside_small_pool() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::random(100, 100, &mut rng);
        let b = Matrix::random(100, 100, &mut rng);
        let mut c1 = Matrix::zeros(100, 100);
        let mut c2 = Matrix::zeros(100, 100);
        naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
        pool.install(|| par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c2.as_mut()));
        assert!(max_abs_diff(&c1.as_ref(), &c2.as_ref()).unwrap() < 1e-10);
    }
}
