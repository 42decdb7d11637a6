//! Smoke tests over every `.alg` coefficient file embedded by
//! `crates/algo/build.rs`: each must parse, carry consistent
//! (m,k,n)/rank dimensions, satisfy the Brent equations (APA files
//! excepted — they are exact only in the λ → 0 limit), and multiply a
//! random matrix to the `tests/correctness.rs` tolerance.

mod common;

use fast_matmul::algo;
use fast_matmul::core::Options;
use fast_matmul::matrix::{max_abs_diff, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn catalog_ships_at_least_strassen() {
    let names: Vec<&str> = algo::embedded_files().iter().map(|(n, _)| *n).collect();
    assert!(
        names.contains(&"strassen_222.alg"),
        "strassen_222.alg missing from embedded catalog: {names:?}"
    );
}

#[test]
fn every_embedded_file_parses_with_consistent_dimensions() {
    for (name, text) in algo::embedded_files() {
        let dec = algo::parse(text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let (m, k, n) = dec.base();
        let rank = dec.rank();
        assert!(
            m > 0 && k > 0 && n > 0,
            "{name}: degenerate base {m},{k},{n}"
        );
        assert!(rank > 0, "{name}: zero rank");
        assert!(
            rank <= m * k * n,
            "{name}: rank {rank} exceeds classical {}",
            m * k * n
        );
        assert_eq!(dec.u.rows(), m * k, "{name}: U rows");
        assert_eq!(dec.v.rows(), k * n, "{name}: V rows");
        assert_eq!(dec.w.rows(), m * n, "{name}: W rows");
        assert_eq!(dec.u.cols(), rank, "{name}: U cols");
        assert_eq!(dec.v.cols(), rank, "{name}: V cols");
        assert_eq!(dec.w.cols(), rank, "{name}: W cols");
    }
}

#[test]
fn every_exact_embedded_file_satisfies_brent_and_multiplies() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut checked = 0;
    for (name, text) in algo::embedded_files() {
        if name.starts_with("apa_") {
            continue; // border-rank files are exact only as λ → 0
        }
        let dec = algo::parse(text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        dec.verify(algo::EXACT_TOL)
            .unwrap_or_else(|e| panic!("{name}: Brent equations failed: {e}"));

        // One recursive step on a problem a few multiples of the base,
        // plus a ragged size to exercise peeling.
        let (m, k, n) = dec.base();
        for (p, q, r) in [(4 * m, 4 * k, 4 * n), (4 * m + 1, 4 * k + 1, 4 * n + 1)] {
            let a = Matrix::random(p, q, &mut rng);
            let b = Matrix::random(q, r, &mut rng);
            let mut want = Matrix::zeros(p, r);
            fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, want.as_mut());
            let got = common::multiply(&dec, 1, Options::default(), &a, &b);
            let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
            assert!(d < 1e-9 * q as f64, "{name} on {p}x{q}x{r}: diff {d}");
        }
        checked += 1;
    }
    assert!(checked > 0, "no exact embedded algorithms were checked");
}
