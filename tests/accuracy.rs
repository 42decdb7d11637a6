//! Numerical-accuracy integration tests (§2.2.3 / §6): exact fast
//! algorithms stay within a modest factor of classical round-off; APA
//! algorithms show the large, λ-dependent error the paper warns about;
//! ill-scaled equivalent algorithms (Prop. 2.3) lose accuracy even
//! though they are algebraically exact.

use fast_matmul::algo;
use fast_matmul::core::{forward_error, max_rel_error_vs_classical, Options};
use fast_matmul::tensor::transform::scale_columns;

#[test]
fn exact_algorithms_have_tiny_forward_error() {
    for name in ["strassen", "winograd", "<3,3,3>", "<4,2,4>", "<4,3,3>"] {
        let alg = algo::by_name(name).unwrap();
        for steps in 1..=2usize {
            let e = forward_error(&alg.dec, steps, Options::default(), 192, 11);
            assert!(e < 1e-11, "{name} at {steps} steps: error {e:.2e}");
        }
    }
}

#[test]
fn error_grows_with_recursion_depth_but_stays_bounded() {
    let strassen = algo::by_name("strassen").unwrap();
    let mut last = 0.0;
    for steps in 1..=4usize {
        let e = max_rel_error_vs_classical(&strassen.dec, steps, Options::default(), 256, 2, 5);
        assert!(e < 1e-10, "steps {steps}: error {e:.2e}");
        // not strictly monotone run-to-run, but 4 steps must not be
        // orders of magnitude better than 1 step (sanity of the metric)
        last = e;
    }
    assert!(last > 0.0);
}

#[test]
fn apa_error_is_many_orders_above_exact() {
    let Some(bini) = algo::bini_apa() else {
        eprintln!("bini APA data file absent; skipping");
        return;
    };
    let strassen = algo::by_name("strassen").unwrap();
    let opts = Options::default();
    let e_apa = forward_error(&bini.dec, 1, opts, 96, 3);
    let e_exact = forward_error(&strassen.dec, 1, opts, 96, 3);
    assert!(
        e_apa > 1e4 * e_exact,
        "APA error {e_apa:.2e} should dwarf exact error {e_exact:.2e}"
    );
    // but the APA result is still a usable approximation, not garbage
    assert!(e_apa < 0.2, "APA error {e_apa:.2e} unexpectedly large");
}

#[test]
fn diagonal_scaling_is_stability_neutral() {
    // Prop. 2.3 column scaling multiplies S_r and divides the output
    // coefficient by the same factor: relative round-off is unchanged.
    let strassen = algo::strassen();
    let r = strassen.rank();
    let dx = vec![1e6; r];
    let dy = vec![1.0; r];
    let dz: Vec<f64> = dx.iter().map(|x| 1.0 / x).collect();
    let scaled = scale_columns(&strassen, &dx, &dy, &dz);
    scaled.verify(1e-3).expect("still algebraically exact");
    let opts = Options::default();
    let e_plain = forward_error(&strassen, 2, opts, 128, 9);
    let e_scaled = forward_error(&scaled, 2, opts, 128, 9);
    assert!(
        e_scaled < 100.0 * e_plain.max(1e-16),
        "column scaling must not change relative error materially: {e_scaled:.2e} vs {e_plain:.2e}"
    );
}

#[test]
fn ill_conditioned_sandwich_transform_loses_accuracy() {
    // Prop. 2.3 (iii) with a nearly-singular X produces an equivalent,
    // algebraically exact algorithm whose linear combinations cancel
    // catastrophically — the stability consideration §6 raises: which
    // member of an equivalence class you implement matters numerically.
    use fast_matmul::matrix::Matrix;
    use fast_matmul::tensor::transform::sandwich;
    let strassen = algo::strassen();
    let delta = 1e-7;
    let x = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + delta]]);
    let i2 = Matrix::identity(2);
    let twisted = sandwich(&strassen, &x, &i2, &i2).expect("nonsingular");
    let opts = Options::default();
    let e_plain = forward_error(&strassen, 2, opts, 128, 9);
    let e_twisted = forward_error(&twisted, 2, opts, 128, 9);
    assert!(
        e_twisted > 1e3 * e_plain.max(1e-16),
        "ill-conditioned equivalent should visibly hurt accuracy: {e_twisted:.2e} vs {e_plain:.2e}"
    );
}

#[test]
fn classical_decomposition_error_matches_gemm_roundoff() {
    let c = algo::classical(2, 2, 2);
    let e = forward_error(&c.dec, 2, Options::default(), 128, 13);
    assert!(e < 1e-13, "classical recursion error {e:.2e}");
}
