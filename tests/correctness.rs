//! Cross-crate integration: every catalog algorithm, every addition
//! strategy, every parallel scheme — all must agree with the naive
//! reference multiplication, including on dimensions that force
//! dynamic peeling at every level.

mod common;

use common::{bits, multiply};
use fast_matmul::algo;
use fast_matmul::core::{cse_stats, AdditionMethod, Options, Planner, Scheme, Workspace};
use fast_matmul::matrix::{max_abs_diff, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

fn check(
    dec: &fast_matmul::tensor::Decomposition,
    (p, q, r): (usize, usize, usize),
    steps: usize,
    opts: Options,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(p, q, &mut rng);
    let b = Matrix::random(q, r, &mut rng);
    let want = reference(&a, &b);
    let got = multiply(dec, steps, opts, &a, &b);
    let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
    assert!(
        d < 1e-9 * q as f64,
        "mismatch {d:.3e} at {p}x{q}x{r}, {steps} steps with {opts:?}"
    );
}

#[test]
fn every_catalog_algorithm_multiplies_correctly() {
    for alg in algo::catalog() {
        let (m, k, n) = alg.dec.base();
        // A size divisible twice plus a ragged size.
        let p = m * m * 4 + 3;
        let q = k * k * 4 + 1;
        let r = n * n * 4 + 2;
        for steps in [1usize, 2] {
            check(
                &alg.dec,
                (p, q, r),
                steps,
                Options::default(),
                1000 + steps as u64,
            );
        }
    }
}

#[test]
fn strategy_matrix_full_cross_product() {
    // Strassen on shapes that peel at both levels, then every catalog
    // scheme on a ragged shape of its own. Beyond matching the
    // reference, every plan repeats its bits exactly, and DFS, BFS and
    // HYBRID reproduce Sequential's bits for the same addition method
    // and CSE setting.
    let strassen = algo::by_name("strassen").unwrap().dec;
    let mut inputs: Vec<_> = [(101, 67, 89), (63, 65, 67), (100, 50, 75), (31, 97, 41)]
        .into_iter()
        .map(|shape| (strassen.clone(), shape))
        .collect();
    for alg in algo::catalog() {
        let (m, k, n) = alg.dec.base();
        inputs.push((alg.dec, (m * m * 2 + 3, k * k * 2 + 1, n * n * 2 + 2)));
    }
    for (dec, (p, q, r)) in &inputs {
        let (p, q, r) = (*p, *q, *r);
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let want = reference(&a, &b);
        for additions in [
            AdditionMethod::Pairwise,
            AdditionMethod::WriteOnce,
            AdditionMethod::Streaming,
        ] {
            for cse in [false, true] {
                let mut sequential = None;
                for scheme in [Scheme::Sequential, Scheme::Dfs, Scheme::Bfs, Scheme::Hybrid] {
                    let opts = Options {
                        additions,
                        cse,
                        scheme,
                    };
                    let label = format!("{:?} at {p}x{q}x{r} with {opts:?}", dec.base());
                    let plan = Planner::new()
                        .shape(p, q, r)
                        .algorithm(dec)
                        .steps(2)
                        .options(opts)
                        .plan()
                        .unwrap();
                    let mut ws = Workspace::new();
                    let mut runs = [Matrix::zeros(p, r), Matrix::zeros(p, r)];
                    for c in &mut runs {
                        plan.execute(&a, &b, c, &mut ws);
                    }
                    let d = max_abs_diff(&want.as_ref(), &runs[0].as_ref()).unwrap();
                    assert!(d < 1e-9 * q as f64, "mismatch {d:.3e}: {label}");
                    let got = bits(&runs[0]);
                    assert_eq!(got, bits(&runs[1]), "repeat changed bits: {label}");
                    match &sequential {
                        None => sequential = Some(got),
                        Some(seq) => assert_eq!(&got, seq, "differs from Sequential: {label}"),
                    }
                }
            }
        }
    }
}

#[test]
fn cse_on_catalog_algorithms_changes_nothing() {
    // CSE must be a pure evaluation-plan optimization, also for the
    // dense real coefficients of the APA fits.
    for name in [
        "<3,3,3>",
        "<4,2,4>",
        "<4,3,3>",
        "<2,3,3>",
        "bini",
        "schonhage",
    ] {
        let alg = algo::by_name(name).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let (m, k, n) = alg.dec.base();
        let (p, q, r) = (m * 20, k * 20, n * 20);
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let with = |cse| {
            multiply(
                &alg.dec,
                1,
                Options {
                    cse,
                    ..Options::default()
                },
                &a,
                &b,
            )
        };
        let (plain, with_cse) = (with(false), with(true));
        let d = max_abs_diff(&plain.as_ref(), &with_cse.as_ref()).unwrap();
        assert!(d < 1e-10, "{name}: CSE changed the result by {d:.2e}");
    }
}

#[test]
fn cse_plans_are_deterministic() {
    // Ties between equally frequent pairs break in a fixed order, so
    // every plan in one process eliminates the same subexpressions.
    for name in ["<3,3,3>", "<4,3,2>", "<4,3,3>"] {
        let dec = algo::by_name(name).unwrap().dec;
        let first = cse_stats(&dec.u, &dec.v, 1e-12);
        for _ in 1..20 {
            assert_eq!(cse_stats(&dec.u, &dec.v, 1e-12), first, "{name}");
        }
    }
}

#[test]
fn deep_recursion_on_divisible_sizes() {
    let strassen = algo::by_name("strassen").unwrap().dec;
    check(&strassen, (256, 256, 256), 5, Options::default(), 13);
}

#[test]
fn extreme_aspect_ratios() {
    let a424 = algo::by_name("<4,2,4>").unwrap().dec;
    check(&a424, (400, 16, 400), 1, Options::default(), 17); // outer product
    let a433 = algo::by_name("<4,3,3>").unwrap().dec;
    check(&a433, (500, 27, 27), 1, Options::default(), 19); // tall and skinny
    let strassen = algo::by_name("strassen").unwrap().dec;
    check(&strassen, (8, 512, 8), 1, Options::default(), 23); // inner product shape
}

#[test]
fn one_dimensional_degenerate_cases() {
    let strassen = algo::by_name("strassen").unwrap().dec;
    for (p, q, r) in [(1, 64, 64), (64, 1, 64), (64, 64, 1), (1, 1, 1)] {
        check(&strassen, (p, q, r), 2, Options::default(), 29);
    }
}
