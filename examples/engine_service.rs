//! Engine quickstart: one long-lived `FmmEngine` serving a mixed-shape
//! request stream from several client threads — the plan-once /
//! serve-many shape a production deployment uses.
//!
//! Run with: `cargo run --release --example engine_service`

use fast_matmul::gemm;
use fast_matmul::matrix::{relative_error, Matrix};
use fast_matmul::FmmEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // One engine per process: it owns the thread pool (FMM_THREADS or
    // the hardware width), the LRU plan cache, and the workspace pool.
    let engine = FmmEngine::builder().build().expect("engine");
    println!("engine serving at width {}", engine.threads());

    // A mixed-shape workload — each shape is planned on first sight
    // (the planner's catalog default for the shape) and cached.
    let shapes = [(256, 256, 256), (192, 384, 192), (384, 192, 96)];
    let mut rng = StdRng::seed_from_u64(7);
    let problems: Vec<(Matrix, Matrix)> = shapes
        .iter()
        .map(|&(m, k, n)| {
            (
                Matrix::random(m, k, &mut rng),
                Matrix::random(k, n, &mut rng),
            )
        })
        .collect();

    // Synchronous serving from client threads: every thread shares the
    // same engine clone; steady-state requests hit the plan cache and
    // reuse pooled workspace arenas (no new arena).
    let t0 = Instant::now();
    let served: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client| {
                let engine = engine.clone();
                let problems = &problems;
                scope.spawn(move || {
                    for round in 0..6 {
                        let (a, b) = &problems[(client + round) % problems.len()];
                        let c = engine.multiply(a, b).expect("serve");
                        std::hint::black_box(&c);
                    }
                    6
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    println!(
        "served {served} multiplies from 4 client threads in {:.3}s",
        t0.elapsed().as_secs_f64()
    );

    // Asynchronous serving: operands move into detached pool jobs and
    // the handles join later — mixed shapes in one batch.
    let handles = engine.submit_batch(problems.clone());
    let results: Vec<Matrix> = handles
        .into_iter()
        .map(|h| h.wait().expect("batch result"))
        .collect();

    // Spot-check one product against the classical baseline.
    let (a, b) = &problems[0];
    let want = gemm::matmul(a, b);
    let err = relative_error(&results[0].as_ref(), &want.as_ref());
    println!("relative error vs classical gemm: {err:.2e}");

    let stats = engine.stats();
    println!(
        "stats: {} multiplies | plan cache {} hits / {} misses ({} cached) | \
         workspaces {} created, {} reused, {} pooled | {} tasks stolen",
        stats.multiplies,
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.plans_cached,
        stats.workspaces_created,
        stats.workspaces_reused,
        stats.workspaces_pooled,
        stats.tasks_stolen
    );
}
