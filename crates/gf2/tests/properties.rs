//! Property tests of the GF(2) backend: every multiply path — naive
//! broadcast, M4RM, and Strassen recursion at depths 1 and 2 — is
//! bitwise-equal to a scalar O(n³) boolean reference across ragged
//! shapes and rayon pool widths 1/2/4, and the packed representation
//! round-trips losslessly.

use fmm_gf2::{Gf2, Gf2Matrix, Gf2Planner, Gf2Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Scalar triple-loop reference over individual bits: XOR-accumulate
/// of AND products, the GF(2) ground truth.
fn reference(a: &Gf2Matrix, b: &Gf2Matrix) -> Gf2Matrix {
    assert_eq!(a.cols(), b.rows());
    Gf2Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = false;
        for p in 0..a.cols() {
            acc ^= a.get(i, p) && b.get(p, j);
        }
        acc
    })
}

/// One long-lived pool per width for the whole test binary — spinning
/// a pool up per proptest case would dominate the runtime.
fn pool(width: usize) -> &'static rayon::ThreadPool {
    static POOLS: OnceLock<Mutex<HashMap<usize, &'static rayon::ThreadPool>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut by_width = pools.lock().unwrap();
    by_width.entry(width).or_insert_with(|| {
        Box::leak(Box::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("thread pool"),
        ))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_multiply_paths_match_scalar_reference(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1000,
        width_idx in 0usize..3,
        steps in 1usize..3,
    ) {
        let width = [1, 2, 4][width_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Gf2Matrix::random(m, k, &mut rng);
        let b = Gf2Matrix::random(k, n, &mut rng);
        let expect = reference(&a, &b);

        prop_assert_eq!(&a.mul_naive(&b), &expect);
        prop_assert_eq!(&a.mul_m4rm(&b), &expect);

        let plan = Gf2Planner::new()
            .shape(m, k, n)
            .steps(steps)
            .plan()
            .expect("strassen lifts mod 2 at any shape");
        let mut ws = Gf2Workspace::for_plan(&plan);
        let got = pool(width).install(|| plan.execute(&a, &b, &mut ws));
        prop_assert_eq!(&got, &expect);
    }

    /// Every integer-coefficient `.alg` in the embedded catalog — which
    /// automatically includes newly landed flip-graph search output —
    /// lifts mod 2 and executes bitwise-equal to the scalar reference.
    /// No hardcoded scheme list: the filter mirrors the xtask lint's
    /// integer/fractional classification.
    #[test]
    fn integer_catalog_schemes_execute_under_the_mod_2_lift(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
        pick in 0usize..64,
        steps in 1usize..3,
    ) {
        let integer: Vec<_> = fmm_algo::embedded_files()
            .iter()
            .filter_map(|(_, text)| fmm_algo::parse(text).ok())
            .filter(|dec| {
                [&dec.u, &dec.v, &dec.w].iter().all(|mat| {
                    mat.as_slice()
                        .iter()
                        .all(|c| c.fract() == 0.0 && c.is_finite())
                })
            })
            .collect();
        prop_assert!(!integer.is_empty(), "catalog lost all integer schemes");
        let dec = &integer[pick % integer.len()];

        let mut rng = StdRng::seed_from_u64(seed);
        let a = Gf2Matrix::random(m, k, &mut rng);
        let b = Gf2Matrix::random(k, n, &mut rng);
        let expect = reference(&a, &b);

        let plan = Gf2Planner::new()
            .shape(m, k, n)
            .algorithm(dec)
            .steps(steps)
            .plan()
            .expect("integer scheme must lift mod 2");
        let mut ws = Gf2Workspace::for_plan(&plan);
        let got = plan.execute(&a, &b, &mut ws);
        prop_assert_eq!(&got, &expect);
    }

    #[test]
    fn xor_is_self_inverse_and_or_is_idempotent(
        rows in 1usize..80,
        cols in 1usize..150,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Gf2Matrix::random(rows, cols, &mut rng);
        let b = Gf2Matrix::random(rows, cols, &mut rng);
        let mut x = a.clone();
        x.xor_assign(&b);
        x.xor_assign(&b);
        prop_assert_eq!(&x, &a);
        let mut y = a.clone();
        y.or_assign(&b);
        let once = y.clone();
        y.or_assign(&b);
        prop_assert_eq!(&y, &once);
    }

    #[test]
    fn packing_roundtrips_bitwise(
        rows in 0usize..40,
        cols in 0usize..200,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Gf2Matrix::random(rows, cols, &mut rng);
        // Packed → element-typed dense → packed is the identity.
        let dense = m.to_dense();
        prop_assert_eq!(&Gf2Matrix::from_dense(&dense), &m);
        // Every addressable bit agrees with the dense view.
        for i in 0..rows {
            for j in 0..cols {
                prop_assert_eq!(m.get(i, j), dense[(i, j)] == Gf2::ONE);
            }
        }
    }
}
