//! Execution-statistics and border-handling integration tests: the
//! `R^L` leaf-count law, the §4.2 memory-footprint factor, and the
//! padding-vs-peeling equivalence (§3.5).

mod common;

use common::{multiply, run};
use fast_matmul::algo;
use fast_matmul::core::{BorderHandling, Options, Planner};
use fast_matmul::matrix::{max_abs_diff, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn leaf_count_is_rank_to_the_steps_on_divisible_problems() {
    let strassen = algo::strassen();
    for steps in 1..=3usize {
        let n = 8 * 16; // divisible by 2^steps for steps ≤ 3
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);
        let (_, stats) = run(Planner::new().algorithm(&strassen).steps(steps), &a, &b);
        assert_eq!(stats.base_gemms, 7u64.pow(steps as u32));
        assert_eq!(stats.peel_gemms, 0, "divisible sizes never peel");
    }
}

#[test]
fn peel_gemms_appear_on_ragged_sizes() {
    let strassen = algo::strassen();
    let mut rng = StdRng::seed_from_u64(2);
    let a = Matrix::random(65, 65, &mut rng);
    let b = Matrix::random(65, 65, &mut rng);
    let (_, stats) = run(Planner::new().algorithm(&strassen).steps(1), &a, &b);
    assert_eq!(stats.base_gemms, 7);
    // all three dims ragged ⇒ all four quadrant fix-ups, 7 thin gemms
    assert_eq!(stats.peel_gemms, 7);
}

#[test]
fn memory_footprint_matches_section_4_2_factor() {
    // One step of ⟨M,K,N⟩ rank R on a P×Q×S problem stores R temporaries
    // of size (P/M)·(S/N) for the M_r — a factor R/(M·N) more than C —
    // plus the S_r/T_r temporaries.
    let a424 = algo::by_name("<4,2,4>").unwrap().dec;
    let (m, _, n) = a424.base();
    let rank = a424.rank() as u64;
    let (p, q, s) = (64, 64, 64);
    let mut rng = StdRng::seed_from_u64(3);
    let a = Matrix::random(p, q, &mut rng);
    let b = Matrix::random(q, s, &mut rng);
    let (_, stats) = run(Planner::new().algorithm(&a424).steps(1), &a, &b);
    let m_r_elems = rank * (p as u64 / m as u64) * (s as u64 / n as u64);
    assert!(
        stats.temp_elements >= m_r_elems,
        "must account for at least the M_r storage"
    );
    let c_elems = (p * s) as u64;
    assert!(
        stats.temp_elements >= c_elems * rank / (m as u64 * n as u64),
        "the R/(MN) memory factor of §4.2"
    );
}

#[test]
fn padding_and_peeling_agree_everywhere() {
    let strassen = algo::strassen();
    let mut rng = StdRng::seed_from_u64(4);
    for (p, q, r) in [(63, 65, 67), (100, 50, 75), (31, 97, 41)] {
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let with = |border| {
            multiply(
                &strassen,
                2,
                Options {
                    border,
                    ..Options::default()
                },
                &a,
                &b,
            )
        };
        let peel = with(BorderHandling::DynamicPeeling);
        let pad = with(BorderHandling::Padding);
        let d = max_abs_diff(&peel.as_ref(), &pad.as_ref()).unwrap();
        assert!(d < 1e-10 * q as f64, "{p}x{q}x{r}: diff {d}");
    }
}

#[test]
fn padding_eliminates_peel_gemms() {
    let strassen = algo::strassen();
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::random(65, 63, &mut rng);
    let b = Matrix::random(63, 61, &mut rng);
    let padding = Options {
        border: BorderHandling::Padding,
        ..Options::default()
    };
    let planner = Planner::new()
        .algorithm(&strassen)
        .steps(2)
        .options(padding);
    let (_, stats) = run(planner, &a, &b);
    assert_eq!(stats.peel_gemms, 0, "padded problems never peel");
    assert_eq!(stats.base_gemms, 49);
}

#[test]
fn composed_schedule_leaf_count_is_product_of_ranks() {
    let sched = algo::schedule_54();
    let refs: Vec<&fast_matmul::tensor::Decomposition> = sched.iter().collect();
    let expect: u64 = sched.iter().map(|d| d.rank() as u64).product();
    let n = 54;
    let mut rng = StdRng::seed_from_u64(6);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let (_, stats) = run(Planner::new().schedule(&refs), &a, &b);
    assert_eq!(stats.base_gemms, expect);
}
