//! Quickstart: plan a Strassen multiplication once, execute it against
//! a reusable workspace, check the result against the classical
//! baseline, and report the paper's effective-GFLOPS metric for both.
//!
//! Run with: `cargo run --release --example quickstart`

use fast_matmul::algo;
use fast_matmul::core::{effective_gflops, Planner, Workspace};
use fast_matmul::gemm;
use fast_matmul::matrix::{relative_error, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let n = 1024;
    let mut rng = StdRng::seed_from_u64(0);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);

    // The classical baseline (our vendor-BLAS stand-in).
    let t0 = Instant::now();
    let c_classical = gemm::matmul(&a, &b);
    let classical_secs = t0.elapsed().as_secs_f64();

    // Plan: Strassen from the catalog. Without explicit steps the
    // planner takes one fast step for an algorithm that saves
    // multiplies. Planning is the once-per-shape step.
    let strassen = algo::by_name("strassen").expect("catalog");
    strassen
        .dec
        .verify(0.0)
        .expect("Strassen satisfies the Brent equations");
    let plan = Planner::new()
        .shape(n, n, n)
        .algorithm(&strassen.dec)
        .plan()
        .expect("complete configuration");
    println!(
        "planned depth {} with a {:.1} MB workspace",
        plan.depth(),
        plan.workspace_bytes() as f64 / 1e6
    );

    // Execute: the hot path reuses one workspace, which never grows
    // after the first call.
    let mut ws = Workspace::for_plan(&plan);
    let mut c_fast = Matrix::zeros(n, n);
    let t0 = Instant::now();
    plan.execute(&a, &b, &mut c_fast, &mut ws);
    let fast_secs = t0.elapsed().as_secs_f64();

    let err = relative_error(&c_fast.as_ref(), &c_classical.as_ref());
    println!("problem: {n} x {n} x {n}");
    println!(
        "classical: {classical_secs:.3}s = {:.2} effective GFLOPS",
        effective_gflops(n, n, n, classical_secs)
    );
    println!(
        "strassen : {fast_secs:.3}s = {:.2} effective GFLOPS at depth {}",
        effective_gflops(n, n, n, fast_secs),
        plan.depth(),
    );
    println!("relative error vs classical: {err:.2e}");
    assert!(err < 1e-10, "fast result must match classical");
}
