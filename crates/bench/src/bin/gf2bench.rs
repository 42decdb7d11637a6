//! GF(2) backend benchmark: word-packed boolean matrix multiply.
//!
//! Three algorithms on square `n × n × n` boolean problems:
//! `classical-words` (the naive broadcast-XOR word kernel — the honest
//! bit-packed baseline, already 64-way parallel per word op), `m4rm`
//! (Method of Four Russians base case), and `strassen-m4rm` (Strassen
//! recursion over the `.alg` catalog lifted mod 2, with M4RM leaves).
//!
//! "GFLOPS" rows use the same `2·m·k·n` operation count as the float
//! experiments so `summarize` scales them consistently — for GF(2)
//! read the column as effective giga-bit-ops.
//!
//! Run with: `cargo run --release -p fmm-bench --bin gf2bench -- --full`

use fmm_bench::*;
use fmm_gf2::{Gf2Matrix, Gf2Planner, Gf2Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn row(experiment: &str, algorithm: &str, n: usize, steps: usize, secs: f64) -> Measurement {
    Measurement {
        experiment: experiment.into(),
        algorithm: algorithm.into(),
        p: n,
        q: n,
        r: n,
        threads: 1,
        steps,
        seconds: secs,
        effective_gflops: fmm_gemm::effective_gflops(n, n, n, secs),
    }
}

/// Best (seconds, depth) over explicit recursion depths 1 and 2. The
/// timed region is the warm `execute_into` hot path, on a workspace
/// that never grows.
fn best_strassen(a: &Gf2Matrix, b: &Gf2Matrix, n: usize, trials: usize) -> (f64, usize) {
    let mut best = (f64::INFINITY, 0usize);
    for steps in [1usize, 2] {
        let plan = Gf2Planner::new()
            .shape(n, n, n)
            .steps(steps)
            .plan()
            .expect("strassen lifts mod 2");
        let mut ws = Gf2Workspace::for_plan(&plan);
        let mut c = Gf2Matrix::zeros(n, n);
        let secs = time_median(|| plan.execute_into(a, b, &mut c, &mut ws), trials);
        if secs < best.0 {
            best = (secs, steps);
        }
    }
    best
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let sizes: Vec<usize> = if cfg.quick {
        vec![512, 1024]
    } else {
        vec![1024, 2048, 4096, 8192]
    };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Gf2Matrix::random(n, n, &mut rng);
        let b = Gf2Matrix::random(n, n, &mut rng);

        let naive_secs = time_median(
            || {
                std::hint::black_box(a.mul_naive(&b));
            },
            cfg.trials,
        );
        rows.push(row("gf2", "classical-words[gf2]", n, 0, naive_secs));

        let m4rm_secs = time_median(
            || {
                std::hint::black_box(a.mul_m4rm(&b));
            },
            cfg.trials,
        );
        rows.push(row("gf2", "m4rm[gf2]", n, 0, m4rm_secs));

        let (strassen_secs, steps) = best_strassen(&a, &b, n, cfg.trials);
        rows.push(row("gf2", "strassen-m4rm[gf2]", n, steps, strassen_secs));

        speedups.push((n, naive_secs, m4rm_secs, strassen_secs));
    }
    for (n, naive, m4rm, strassen) in &speedups {
        eprintln!(
            "n={n}: m4rm {:.2}x vs classical-words, strassen-m4rm {:.2}x vs m4rm",
            naive / m4rm,
            m4rm / strassen
        );
    }
    emit(&cfg, &rows);
}
