//! Engine integration tests: the concurrent multiply service must be
//! bit-for-bit consistent with the plan/execute API it wraps, keep its
//! LRU plan cache and workspace pool honest, and serve correct results
//! for any shape at any pool width.
//!
//! These exercise the root-facade re-exports on purpose: everything is
//! imported from `fast_matmul::{...}` directly.

use fast_matmul::core::{Scheme, PLAN_CACHE_CAPACITY};
use fast_matmul::gemm::naive_gemm;
use fast_matmul::matrix::{max_abs_diff, Matrix};
use fast_matmul::{EngineError, FmmEngine, Options, Planner, Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn random_problem(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        Matrix::random(m, k, &mut rng),
        Matrix::random(k, n, &mut rng),
    )
}

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

/// The acceptance stress test: ≥4 client OS threads hammer one engine
/// with a mixed-shape stream through both the sync (`multiply`) and
/// async (`submit` + `wait`) paths, and every single result must be
/// bitwise identical to the same cached `Plan` executed one-at-a-time
/// in a single-threaded pool. (The schedule fixes each output
/// element's evaluation order, so which worker ran what must not
/// change one bit — `tests/runtime_parallel.rs` establishes that for
/// one plan; this extends it across the serving layer.)
#[test]
fn concurrent_mixed_shape_submits_match_sequential_plan_execute_bitwise() {
    let shapes = [(96, 96, 96), (64, 128, 32), (100, 80, 60), (33, 45, 27)];
    let engine = FmmEngine::builder().threads(4).build().unwrap();

    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut problems: Vec<(Matrix, Matrix)> = Vec::new();
    let mut references: Vec<Matrix> = Vec::new();
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let (a, b) = random_problem(m, k, n, 100 + i as u64);
        // The *same* compiled plan the engine will serve from its
        // cache, executed sequentially.
        let plan = engine.plan_for(m, k, n).unwrap();
        let mut c = Matrix::zeros(m, n);
        let mut ws = Workspace::for_plan(&plan);
        single.install(|| plan.execute(&a, &b, &mut c, &mut ws));
        problems.push((a, b));
        references.push(c);
    }
    let problems = Arc::new(problems);
    let references = Arc::new(references);

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 8;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let engine = engine.clone();
            let problems = Arc::clone(&problems);
            let references = Arc::clone(&references);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let idx = (client + round) % problems.len();
                    let (a, b) = &problems[idx];
                    let got = if round % 2 == 0 {
                        engine.multiply(a, b).unwrap()
                    } else {
                        engine.submit(a.clone(), b.clone()).wait().unwrap()
                    };
                    assert_eq!(
                        got,
                        references[idx],
                        "client {client} round {round} shape {:?} diverged from \
                         sequential Plan::execute",
                        problems[idx].0.shape()
                    );
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.multiplies, (CLIENTS * ROUNDS) as u64);
    assert_eq!(
        stats.plan_cache_misses,
        shapes.len() as u64,
        "each shape plans exactly once (plan_for warmed the cache)"
    );
    assert_eq!(stats.plan_cache_hits, (CLIENTS * ROUNDS) as u64);
}

/// Acceptance: steady-state serving creates no arena. After warm-up,
/// repeated multiplies on a cached shape must be all cache hits and all
/// workspace reuses, with no new arenas created.
#[test]
fn steady_state_serving_allocates_no_new_arenas() {
    let engine = FmmEngine::builder().threads(2).build().unwrap();
    let (a, b) = random_problem(96, 96, 96, 9);
    let mut c = Matrix::zeros(96, 96);
    engine.multiply_into(&a, &b, &mut c).unwrap(); // warm-up
    let warm = engine.stats();
    for _ in 0..10 {
        engine.multiply_into(&a, &b, &mut c).unwrap();
    }
    let steady = engine.stats();
    assert_eq!(
        steady.plan_cache_misses, warm.plan_cache_misses,
        "no re-planning after warm-up"
    );
    assert_eq!(steady.plan_cache_hits, warm.plan_cache_hits + 10);
    assert_eq!(
        steady.workspaces_created, warm.workspaces_created,
        "no new arenas after warm-up"
    );
    assert_eq!(
        steady.workspaces_reused,
        warm.workspaces_reused + 10,
        "every steady-state run reuses a pooled arena as-is"
    );
}

/// Acceptance: the f32 twin of the arena-reuse steady state. An
/// `FmmEngine<f32>` must show the exact same cache/arena discipline —
/// all hits, all workspace reuses, no new arenas — and its results must
/// match the f32 classical reference.
#[test]
fn f32_steady_state_serving_allocates_no_new_arenas() {
    use fast_matmul::matrix::DenseMatrix;
    let engine = FmmEngine::<f32>::builder().threads(2).build().unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let a = DenseMatrix::<f32>::random(96, 96, &mut rng);
    let b = DenseMatrix::<f32>::random(96, 96, &mut rng);
    let mut c = DenseMatrix::<f32>::zeros(96, 96);
    engine.multiply_into(&a, &b, &mut c).unwrap(); // warm-up
    let warm = engine.stats();
    for _ in 0..10 {
        engine.multiply_into(&a, &b, &mut c).unwrap();
    }
    let steady = engine.stats();
    assert_eq!(
        steady.plan_cache_misses, warm.plan_cache_misses,
        "no re-planning after warm-up (f32)"
    );
    assert_eq!(steady.plan_cache_hits, warm.plan_cache_hits + 10);
    assert_eq!(
        steady.workspaces_created, warm.workspaces_created,
        "no new arenas after warm-up (f32)"
    );
    assert_eq!(
        steady.workspaces_reused,
        warm.workspaces_reused + 10,
        "every steady-state run reuses a pooled arena as-is (f32)"
    );
    // Correctness of what was served, against the f32 naive oracle.
    let mut want = DenseMatrix::<f32>::zeros(96, 96);
    naive_gemm(1.0f32, a.as_ref(), b.as_ref(), 0.0f32, want.as_mut());
    let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
    assert!(d < 1e-3, "f32 served result off by {d}");
}

/// LRU semantics across shapes: a recently-hit plan survives an insert
/// beyond capacity; the least-recently-used one is evicted and must
/// re-plan on its next request.
#[test]
fn plan_cache_lru_eviction_and_reuse() {
    let engine = FmmEngine::<f64>::builder().threads(1).build().unwrap();
    let plan = |n: usize| engine.plan_for(n, n, n).unwrap();
    // Fill the cache, touch the first shape again so the second
    // becomes least recently used, then plan one shape too many.
    let shapes: Vec<usize> = (1..=PLAN_CACHE_CAPACITY + 1).collect();
    for &n in &shapes[..PLAN_CACHE_CAPACITY] {
        plan(n);
    }
    let first = plan(shapes[0]);
    plan(shapes[PLAN_CACHE_CAPACITY]);
    let s = engine.stats();
    assert_eq!(s.plan_cache_misses, PLAN_CACHE_CAPACITY as u64 + 1);
    assert_eq!(s.plan_cache_hits, 1);
    assert_eq!(s.plan_cache_evictions, 1);
    assert_eq!(s.plans_cached, PLAN_CACHE_CAPACITY);

    // The touched shape survived with the same plan; the evicted one
    // must re-plan.
    assert!(Arc::ptr_eq(&first, &plan(shapes[0])));
    assert_eq!(engine.stats().plan_cache_hits, 2);
    plan(shapes[1]);
    let s = engine.stats();
    assert_eq!(s.plan_cache_misses, PLAN_CACHE_CAPACITY as u64 + 2);
    assert_eq!(s.plan_cache_evictions, 2);
}

/// The engine plans through the one `Planner`: a default width-2
/// engine and a planner given the same options (HYBRID) make the same
/// plan for every shape, and pinning the depth to 0 on both plans plain
/// gemm with no workspace.
#[test]
fn engine_and_planner_make_one_plan() {
    let paper = [1024, 1536]
        .into_iter()
        .flat_map(|n| [(n, n, n), (n, 480, n), (n, 960, 960)]);
    let shapes: Vec<_> = paper
        .chain([(64, 64, 64), (100, 200, 300), (512, 32, 512), (1, 300, 200)])
        .collect();
    let opts = Options {
        scheme: Scheme::Hybrid,
        ..Options::default()
    };
    let engine = FmmEngine::<f64>::builder().threads(2).build().unwrap();
    let flat = FmmEngine::<f64>::builder()
        .threads(2)
        .steps(0)
        .build()
        .unwrap();
    for (m, k, n) in shapes {
        let planner = Planner::new().shape(m, k, n).options(opts);
        let want = planner.clone().plan::<f64>().unwrap();
        let got = engine.plan_for(m, k, n).unwrap();
        assert_eq!(got.certificate(), want.certificate(), "{m}x{k}x{n}");
        assert_eq!(got.options(), want.options(), "{m}x{k}x{n}");

        let want = planner.steps(0).plan().unwrap();
        let got = flat.plan_for(m, k, n).unwrap();
        for plan in [&want, &*got] {
            assert_eq!(plan.depth(), 0, "{m}x{k}x{n}");
            assert_eq!(plan.workspace_len(), 0, "{m}x{k}x{n}");
        }
    }
}

#[test]
fn submit_batch_of_mixed_shapes_is_correct_per_entry() {
    let engine = FmmEngine::builder().threads(2).build().unwrap();
    let shapes = [(48, 64, 32), (80, 80, 80), (32, 96, 48), (57, 41, 23)];
    let problems: Vec<(Matrix, Matrix)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n))| random_problem(m, k, n, 200 + i as u64))
        .collect();
    let handles = engine.submit_batch(problems.clone());
    for ((a, b), handle) in problems.iter().zip(handles) {
        assert_eq!(a.shape().1, b.shape().0);
        let got = handle.wait().unwrap();
        let want = reference(a, b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(d < 1e-9 * a.cols() as f64, "batch entry diff {d}");
    }
}

/// Dropping the engine with submits in flight must not lose (or
/// poison) them: the detached jobs own the engine internals via `Arc`,
/// and the pool tolerates being dropped from its own worker.
#[test]
fn engine_dropped_with_submits_in_flight_still_delivers() {
    let engine = FmmEngine::builder().threads(2).build().unwrap();
    let (a, b) = random_problem(64, 64, 64, 5);
    let want = reference(&a, &b);
    let handles: Vec<_> = (0..4)
        .map(|_| engine.submit(a.clone(), b.clone()))
        .collect();
    drop(engine);
    for handle in handles {
        let got = handle.wait().unwrap();
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(d < 1e-9, "post-drop result diff {d}");
    }
}

#[test]
fn shape_errors_surface_through_both_paths() {
    let engine = FmmEngine::builder().threads(1).build().unwrap();
    let a = Matrix::zeros(8, 9);
    let b = Matrix::zeros(10, 7);
    assert!(matches!(
        engine.multiply(&a, &b),
        Err(EngineError::InnerDimMismatch {
            a_cols: 9,
            b_rows: 10
        })
    ));
    assert!(matches!(
        engine.submit(a, b).wait(),
        Err(EngineError::InnerDimMismatch { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sweep shapes × pool widths: whatever the engine auto-plans for a
    /// shape, at any width, must match the classical reference.
    #[test]
    fn engine_matches_classical_over_shapes_and_widths(
        m in 1usize..100,
        k in 1usize..100,
        n in 1usize..100,
        width in 1usize..5,
        seed in 0u64..1000,
    ) {
        let engine = FmmEngine::builder().threads(width).build().unwrap();
        let (a, b) = random_problem(m, k, n, seed);
        let got = engine.multiply(&a, &b).unwrap();
        let want = reference(&a, &b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        prop_assert!(d < 1e-10 * (k as f64 + 1.0), "diff {d} at {m}x{k}x{n} width {width}");
        // And a second serve of the same shape is a cache hit that
        // reuses the pooled arena.
        let again = engine.multiply(&a, &b).unwrap();
        prop_assert!(again == got, "repeat serve changed bits");
        let s = engine.stats();
        prop_assert!(s.plan_cache_hits >= 1, "second serve must hit the cache");
        prop_assert!(s.workspaces_reused >= 1, "second serve must reuse the arena");
    }
}
