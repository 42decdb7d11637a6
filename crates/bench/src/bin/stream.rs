//! §4.5: shared-memory bandwidth limitations. A STREAM-triad
//! microbenchmark and the gemm compute benchmark, each at 1..=P
//! threads, demonstrating that additions (bandwidth-bound) scale worse
//! than multiplications (compute-bound).
//!
//! The triad `c = a + 3·b` runs through `par_lincomb`, the write-once
//! addition kernel the fast algorithms form their S/T/M sums with, on
//! `len / 1024 × 1024` matrices.

use fmm_bench::*;
use fmm_matrix::kernels::par_lincomb;
use fmm_matrix::Matrix;

/// Columns of the triad matrices.
const COLS: usize = 1024;

fn triad_gbs(len: usize, threads: usize, trials: usize) -> f64 {
    let rows = len / COLS;
    let a = Matrix::filled(rows, COLS, 1.0);
    let b = Matrix::filled(rows, COLS, 2.0);
    let mut c = Matrix::zeros(rows, COLS);
    let terms = [(1.0, a.as_ref()), (3.0, b.as_ref())];
    let tp = pool(threads);
    let secs = tp.install(|| time_median(|| par_lincomb(c.as_mut(), 0.0, &terms), trials));
    // triad moves 3 doubles per element
    (rows * COLS * 3 * 8) as f64 / secs / 1e9
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let len = if cfg.quick { 1 << 24 } else { 1 << 26 };
    let n = if cfg.quick { 768 } else { 1536 };
    println!("threads,triad_GBs,triad_scaling,gemm_gflops,gemm_scaling");
    let base_bw = triad_gbs(len, 1, cfg.trials);
    let base_gemm = measure_classical("stream", n, n, n, 1, cfg.trials).effective_gflops;
    for &threads in &cfg.thread_counts {
        let bw = triad_gbs(len, threads, cfg.trials);
        let gf = measure_classical("stream", n, n, n, threads, cfg.trials).effective_gflops;
        println!(
            "{threads},{bw:.2},{:.2}x,{gf:.2},{:.2}x",
            bw / base_bw,
            gf / base_gemm
        );
    }
}
