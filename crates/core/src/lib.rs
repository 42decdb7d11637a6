//! The paper's framework: practical parallel fast matrix multiplication.
//!
//! This crate turns any verified tensor decomposition
//! ([`fmm_tensor::Decomposition`]) into a high-performance matrix
//! multiplication routine, reproducing the design space of Benson &
//! Ballard (PPoPP 2015):
//!
//! * recursion with **dynamic peeling** for arbitrary dimensions (§3.5);
//! * three **addition strategies** — pairwise, write-once, streaming
//!   (§3.2) — with optional greedy **common subexpression elimination**
//!   (§3.3, Table 3);
//! * the **singleton-column optimization**: columns of U/V with one
//!   non-zero pipe a scale through to the output combination instead of
//!   materializing a temporary (§3.1);
//! * three **parallel schemes** — DFS, BFS, HYBRID (§4) — implemented
//!   on scoped tasks over the in-tree work-stealing scheduler
//!   (`fmm-runtime`, reached through the rayon-compatible facade);
//!   [`ExecStatsSnapshot::tasks_stolen`] / `threads_used` expose the
//!   scheduler's behaviour so tests can assert stealing happens;
//! * **composed schedules** (different base case per recursion level),
//!   which is how the ⟨54,54,54⟩, ω ≈ 2.775 algorithm of §5.2 is built;
//! * the **effective GFLOPS** metric (Eq. 3) and forward-error
//!   instrumentation for APA and exact algorithms (§2.2.3, §6).
//!
//! # Plan once, execute many
//!
//! The framework's design space (depth × scheme × additions) only pays
//! off when resolved per machine and problem shape, so the primary API
//! separates the two phases FFTW-style:
//!
//! * [`Planner`] resolves the configuration into an immutable [`Plan`]
//!   whose exact temporary footprint is computed by walking the
//!   recursion tree once. [`Planner::plan`] is the one function that
//!   turns a shape into a schedule: without an algorithm it takes the
//!   catalog entry with the highest per-step speedup, and without a
//!   depth it takes one fast step.
//! * [`Plan::execute`] runs against a reusable [`Workspace`]: after
//!   the first call every S/T/M temporary is checked out of the same
//!   arena, which never grows again (asserted by
//!   [`ExecStatsSnapshot::workspace_reused`]).
//!
//! ```
//! use fmm_core::{Planner, Workspace};
//! use fmm_matrix::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let dec = fmm_tensor::compose::classical(2, 2, 2); // any Decomposition works
//! let plan = Planner::new()
//!     .shape(100, 100, 100)
//!     .algorithm(&dec)
//!     // The classical decomposition saves no multiplies, so the
//!     // default rule would plan depth 0; pin two steps here.
//!     .steps(2)
//!     .plan()
//!     .unwrap();
//! assert!(plan.workspace_len() > 0);
//! let mut ws = Workspace::for_plan(&plan);
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = Matrix::random(100, 100, &mut rng);
//! let b = Matrix::random(100, 100, &mut rng);
//! let mut c = Matrix::zeros(100, 100);
//! for _ in 0..3 {
//!     plan.execute(&a, &b, &mut c, &mut ws); // the workspace never grows again
//! }
//! ```
//!
//! # Serve many: the engine
//!
//! On top of plan/execute sits [`FmmEngine`] ([`engine`]), the
//! concurrent multiply *service*: a long-lived object owning an
//! `fmm-runtime` thread pool, a bounded LRU plan cache that plans a
//! missed shape through its one [`Planner`], and a workspace pool that
//! checks arenas in and out, so steady-state serving creates no new
//! arena. [`FmmEngine::multiply`] is the synchronous call,
//! [`FmmEngine::submit`] hands back a [`MultiplyHandle`] that joins a
//! detached pool job (with work-stealing help when the waiter is a pool
//! thread), and [`FmmEngine::submit_batch`] fans out mixed-shape
//! streams — the front door a server hands its request threads.
//!
//! There is no second front door: a caller that multiplies a shape once
//! plans it and executes once, with a fresh [`Workspace`].
//!
//! # Element types
//!
//! Every layer here is generic over [`fmm_matrix::Scalar`] (through
//! the [`GemmScalar`] bound that adds the per-type packed microkernel),
//! with `f64` as the default type parameter everywhere: `Plan`,
//! `Workspace`, `FmmEngine` written without a parameter mean exactly
//! what they did before generics. `f32` is the second shipped
//! instantiation — `Planner::plan::<f32>()`,
//! `FmmEngine::<f32>::builder()` — and the `fmm-gf2` crate's packed
//! GF(2) word is the third: it packs 64 entries of an `A` row per
//! element ([`GemmScalar::K_PACK`]) and runs the same recursion with
//! M4RM at the leaves. Decomposition coefficients are injected once per
//! level at plan time via [`fmm_matrix::Scalar::from_coeff`]. That
//! injection is fallible by design
//! ([`PlanError::UnrepresentableCoefficient`]): GF(2) rejects
//! fractional APA coefficients there instead of computing nonsense.

mod accuracy;
mod certificate;
pub mod codegen;
pub mod engine;
mod executor;
pub mod plan;
mod planner;
mod workspace;

pub use accuracy::{
    forward_error, forward_error_in, max_rel_error_vs_classical, max_rel_error_vs_classical_in,
};
pub use certificate::PlanCertificate;
pub use codegen::generate_rust;
pub use engine::{
    shape_class, EngineBuilder, EngineError, EngineStats, FmmEngine, MultiplyHandle,
    PLAN_CACHE_CAPACITY,
};
pub use executor::{AdditionMethod, ExecStatsSnapshot, Options, Scheme};
pub use fmm_gemm::{classical_flops, effective_gflops, GemmScalar};
pub use plan::{cse_stats, CseStats};
pub use planner::{Plan, PlanError, Planner};
pub use workspace::Workspace;

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_algo::strassen;
    use fmm_gemm::naive_gemm;
    use fmm_matrix::{max_abs_diff, Matrix};
    use fmm_tensor::compose::{classical, direct_sum_n, kron_compose};
    use fmm_tensor::Decomposition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        c
    }

    fn multiply(plan: &Plan, a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        plan.execute(a, b, &mut c, &mut Workspace::new());
        c
    }

    fn check(
        dec: &Decomposition,
        (p, q, r): (usize, usize, usize),
        steps: usize,
        opts: Options,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let want = reference(&a, &b);
        let plan = Planner::new()
            .shape(p, q, r)
            .algorithm(dec)
            .steps(steps)
            .options(opts)
            .plan()
            .unwrap();
        let got = multiply(&plan, &a, &b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(
            d < 1e-9 * q as f64,
            "mismatch {d} for {p}x{q}x{r} opts {opts:?}"
        );
    }

    #[test]
    fn strassen_one_step_exact_dims() {
        let s = strassen();
        s.verify(0.0).unwrap();
        check(&s, (64, 64, 64), 1, Options::default(), 1);
    }

    #[test]
    fn strassen_multi_step_and_peeling() {
        let s = strassen();
        for steps in 1..=3 {
            let opts = Options::default();
            check(&s, (97, 53, 71), steps, opts, 2); // odd sizes force peeling
            check(&s, (96, 96, 96), steps, opts, 3);
        }
    }

    #[test]
    fn all_addition_methods_agree() {
        let s = strassen();
        for additions in [
            AdditionMethod::Pairwise,
            AdditionMethod::WriteOnce,
            AdditionMethod::Streaming,
        ] {
            for cse in [false, true] {
                let opts = Options {
                    additions,
                    cse,
                    ..Options::default()
                };
                check(&s, (60, 60, 60), 2, opts, 4);
                check(&s, (59, 61, 67), 2, opts, 5);
            }
        }
    }

    #[test]
    fn rectangular_base_case_algorithms() {
        // ⟨2,2,3⟩ rank 11 via direct sum, and ⟨2,2,4⟩ rank 14 via
        // composition — the constructions behind Table 2.
        let s = strassen();
        let a223 = direct_sum_n(&s, &classical(2, 2, 1));
        let a224 = kron_compose(&s, &classical(1, 1, 2));
        for dec in [&a223, &a224] {
            dec.verify(1e-12).unwrap();
            for steps in 1..=2 {
                check(dec, (48, 44, 60), steps, Options::default(), 6);
                check(dec, (50, 45, 61), steps, Options::default(), 7);
            }
        }
    }

    #[test]
    fn parallel_schemes_match_sequential() {
        let s = strassen();
        for scheme in [Scheme::Dfs, Scheme::Bfs, Scheme::Hybrid] {
            for additions in [
                AdditionMethod::Pairwise,
                AdditionMethod::WriteOnce,
                AdditionMethod::Streaming,
            ] {
                let opts = Options {
                    additions,
                    scheme,
                    ..Options::default()
                };
                check(&s, (80, 80, 80), 2, opts, 8);
                check(&s, (83, 77, 85), 2, opts, 9);
            }
        }
    }

    #[test]
    fn composed_schedule_multiplies_correctly() {
        // Mixed schedule: Strassen at level 0, ⟨2,2,3⟩ at level 1.
        let s = strassen();
        let a223 = direct_sum_n(&s, &classical(2, 2, 1));
        let sched = [&s, &a223];
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::random(4 * 13, 4 * 9, &mut rng);
        let b = Matrix::random(4 * 9, 6 * 7, &mut rng);
        let plan = Planner::new()
            .shape(a.rows(), a.cols(), b.cols())
            .schedule(&sched)
            .plan()
            .unwrap();
        let want = reference(&a, &b);
        let got = multiply(&plan, &a, &b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(d < 1e-10 * a.cols() as f64, "mismatch {d}");
    }

    #[test]
    fn zero_steps_is_plain_gemm() {
        let s = strassen();
        check(&s, (33, 45, 27), 0, Options::default(), 11);
    }

    #[test]
    fn tiny_problems_fall_back_to_gemm() {
        let s = strassen();
        // 1×1×1 and problems smaller than the base case.
        check(&s, (1, 1, 1), 1, Options::default(), 12);
        check(&s, (1, 5, 3), 2, Options::default(), 13);
    }

    #[test]
    fn multiply_into_writes_over_existing_content() {
        let s = strassen();
        let mut rng = StdRng::seed_from_u64(14);
        let a = Matrix::random(32, 32, &mut rng);
        let b = Matrix::random(32, 32, &mut rng);
        let want = reference(&a, &b);
        let mut c = Matrix::filled(32, 32, 123.0);
        let plan = Planner::new()
            .shape(32, 32, 32)
            .algorithm(&s)
            .steps(1)
            .plan()
            .unwrap();
        plan.execute(&a, &b, &mut c, &mut Workspace::new());
        let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
        assert!(d < 1e-10);
    }
}
