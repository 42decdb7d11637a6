//! "Match the shape": the paper's central observation for rectangular
//! problems (§5.1, Result 4). On an outer-product shaped problem
//! `N × K × N` with small fixed `K`, algorithms whose base case has the
//! same shape — ⟨4,2,4⟩, ⟨3,2,3⟩ — beat Strassen, which in turn cannot
//! take as many useful recursive steps because the inner dimension
//! shrinks too fast.
//!
//! Run with: `cargo run --release --example shape_matching`

use fast_matmul::algo;
use fast_matmul::core::{effective_gflops, Planner, Workspace};
use fast_matmul::gemm;
use fast_matmul::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_it(f: impl FnOnce() -> Matrix) -> (Matrix, f64) {
    let t0 = Instant::now();
    let c = f();
    (c, t0.elapsed().as_secs_f64())
}

fn main() {
    let (n, k) = (1200, 512); // outer-product shape: N × K × N
    let mut rng = StdRng::seed_from_u64(1);
    let a = Matrix::random(n, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);

    println!("outer-product problem: {n} x {k} x {n}\n");
    let (c_ref, secs) = time_it(|| gemm::matmul(&a, &b));
    println!(
        "{:<22} {:>8.3}s {:>7.2} effective GFLOPS",
        "classical(gemm)",
        secs,
        effective_gflops(n, k, n, secs)
    );

    for name in ["strassen", "<4,2,4>", "<3,2,3>"] {
        let alg = algo::by_name(name).expect("catalog");
        // Best of one or two steps, as in the paper's protocol.
        let mut best = f64::INFINITY;
        let mut best_steps = 1;
        for steps in [1usize, 2] {
            let plan = Planner::new()
                .shape(n, k, n)
                .algorithm(&alg.dec)
                .steps(steps)
                .plan()
                .expect("plan");
            let mut ws = Workspace::for_plan(&plan);
            let (c, secs) = time_it(|| {
                let mut c = Matrix::zeros(n, n);
                plan.execute(&a, &b, &mut c, &mut ws);
                c
            });
            let err = fast_matmul::matrix::relative_error(&c.as_ref(), &c_ref.as_ref());
            assert!(
                err < 1e-10,
                "{name} must be numerically correct (err {err:.1e})"
            );
            if secs < best {
                best = secs;
                best_steps = steps;
            }
        }
        println!(
            "{:<22} {:>8.3}s {:>7.2} effective GFLOPS  (best of steps: {})",
            format!("{name} (rank {})", alg.dec.rank()),
            best,
            effective_gflops(n, k, n, best),
            best_steps
        );
    }
    println!("\nShape-matched base cases (⟨4,2,4⟩, ⟨3,2,3⟩) divide the fixed inner");
    println!("dimension gently, so their subproblems stay on the flat part of the");
    println!("gemm curve — the paper's explanation for why they win here.");
}
