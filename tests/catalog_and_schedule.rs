//! Integration tests of the catalog, the construction optimizer and
//! the composed ⟨54,54,54⟩ schedule.

mod common;

use fast_matmul::algo;
use fast_matmul::core::{Options, Planner};
use fast_matmul::matrix::{max_abs_diff, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn table2_ranks_never_exceed_derived_upper_bounds() {
    // The catalog entry must be at least as good as pure classical and
    // no worse than the documented fallback constructions.
    let bounds = [
        ((2usize, 2usize, 3usize), 11usize),
        ((2, 2, 4), 14),
        ((2, 2, 5), 18),
        ((2, 3, 3), 15), // flip-graph searched (paper Table 2 rank)
        ((2, 3, 4), 21), // ⟨2,3,1⟩ ⊕ ⟨2,3,3⟩ on the searched 15
        ((2, 4, 4), 28),
        ((3, 3, 3), 24), // ⟨1,3,3⟩ ⊕ ⟨2,3,3⟩; 23 with a searched file
        ((3, 3, 4), 30),
        ((3, 4, 4), 42),
        ((3, 3, 6), 45), // ⟨3,3,2⟩ ⊕ ⟨3,3,4⟩; 40 with a searched file
    ];
    for ((m, k, n), bound) in bounds {
        let alg = algo::by_base(m, k, n);
        assert!(
            alg.dec.rank() <= bound,
            "⟨{m},{k},{n}⟩ rank {} exceeds bound {bound}",
            alg.dec.rank()
        );
        alg.dec.verify(algo::EXACT_TOL).unwrap();
    }
}

#[test]
fn schedule_54_multiplies_correctly_on_divisible_size() {
    let sched = algo::schedule_54();
    let refs: Vec<&fast_matmul::tensor::Decomposition> = sched.iter().collect();
    let n = 108; // 2 × 54
    let mut rng = StdRng::seed_from_u64(1);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let mut want = Matrix::zeros(n, n);
    fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, want.as_mut());
    let (got, _) = common::run(Planner::new().schedule(&refs), &a, &b);
    let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
    assert!(d < 1e-9, "diff {d}");
}

#[test]
fn schedule_54_handles_non_divisible_sizes_via_peeling() {
    let sched = algo::schedule_54();
    let refs: Vec<&fast_matmul::tensor::Decomposition> = sched.iter().collect();
    let (p, q, r) = (100, 75, 131);
    let mut rng = StdRng::seed_from_u64(2);
    let a = Matrix::random(p, q, &mut rng);
    let b = Matrix::random(q, r, &mut rng);
    let mut want = Matrix::zeros(p, r);
    fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, want.as_mut());
    let (got, _) = common::run(Planner::new().schedule(&refs), &a, &b);
    let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
    assert!(d < 1e-9, "diff {d}");
}

#[test]
fn composed_exponent_tracks_336_rank() {
    let sched = algo::schedule_54();
    let rank: usize = sched.iter().map(|d| d.rank()).product();
    let omega = 3.0 * (rank as f64).ln() / (54.0f64.powi(3)).ln();
    // With the paper's rank 40: ω = 2.775. The flip-graph-searched
    // ⟨2,3,3⟩:15 puts the derived ⟨3,3,6⟩ at rank 45 (ω ≈ 2.863),
    // strictly below the pre-search rank-51 construction's 2.957.
    assert!(omega < 2.957, "composed exponent regressed: {omega}");
    let r336 = sched[0].rank();
    assert_eq!(rank, r336.pow(3));
    // ω = 3·log₅₄³(R³) = 3·log₅₄(R) — the per-level and aggregate views
    // of the exponent must agree.
    let direct = 3.0 * (r336 as f64).ln() / 54.0f64.ln();
    assert!((omega - direct).abs() < 1e-12);
}

#[test]
fn apa_entries_if_present_have_small_residual_and_run() {
    for apa in [algo::bini_apa(), algo::schonhage_apa()]
        .into_iter()
        .flatten()
    {
        let residual = match apa.provenance {
            algo::Provenance::Apa(r) => r,
            ref other => panic!("APA entry has provenance {other:?}"),
        };
        // Below 1/2, the 0/1 matmul tensor is the unique nearest
        // integer tensor — the acceptance bound check_apa_fit enforces.
        assert!(
            residual < fast_matmul::verify::UNIQUE_ROUNDING_BOUND,
            "{}: residual {residual} too large",
            apa.name
        );
        // APA algorithms multiply with bounded (not machine-precision)
        // error: check the error is comparable to the residual scale.
        let (m, k, n) = apa.dec.base();
        let (p, q, r) = (m * 16, k * 16, n * 16);
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let mut want = Matrix::zeros(p, r);
        fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, want.as_mut());
        let got = common::multiply(&apa.dec, 1, Options::default(), &a, &b);
        let err = fast_matmul::matrix::relative_error(&got.as_ref(), &want.as_ref());
        assert!(
            err < residual.max(1e-12) * 1e3 + 1e-9,
            "{}: error {err} vs residual {residual}",
            apa.name
        );
    }
}

#[test]
fn derive_best_monotone_in_seeds() {
    let no_seeds = algo::derive_best(3, 3, 3, &[]);
    let with = algo::derive_best(3, 3, 3, &[algo::strassen()]);
    assert!(with.0.rank() <= no_seeds.0.rank());
}

#[test]
fn facade_reexports_are_consistent() {
    // The root crate re-exports each sub-crate under a stable name.
    let s1 = fast_matmul::algo::strassen();
    let s2 = algo::strassen();
    assert_eq!(s1.rank(), s2.rank());
    let _ = fast_matmul::core::Options::default();
    let _ = fast_matmul::tensor::matmul_tensor(2, 2, 2);
    let _ = fast_matmul::matrix::Matrix::zeros(1, 1);
}
