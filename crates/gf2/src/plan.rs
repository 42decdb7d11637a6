//! Strassen over the packed M4RM kernel: [`Gf2Planner`] → [`Gf2Plan`]
//! → [`Gf2Plan::execute`] against a [`Gf2Workspace`].
//!
//! A [`Gf2Matrix`] stores [`Gf2Word`]s, and `Gf2Word` is a
//! [`fmm_gemm::GemmScalar`] whose words of `A` each cover 64 rows of
//! `B`. A GF(2) plan is therefore an [`fmm_core::Plan`] over the word
//! shape `m × ⌈k/64⌉ × ⌈n/64⌉`: the core executor forms S/T/M with its
//! `lincomb` kernels (XOR under a lifted coefficient mask), runs M4RM
//! at the leaves, peels ragged word dimensions, fans out under BFS,
//! and emits the same `fmm-trace` spans as for floats. This module adds
//! only what is GF(2)-specific:
//!
//! * the depth rule: an explicit [`Gf2Planner::steps`], or the fixed
//!   [`GF2_CUTOFF_BITS`] bit cutoff;
//! * the mod-2 lift check (odd → 1, even → 0, fractional →
//!   [`PlanError::UnrepresentableCoefficient`], the rule of
//!   [`Gf2::from_coeff`]), so an APA scheme fails at plan time at any
//!   depth, including depth 0 where the executor never reads it;
//! * padding `B`'s rows to a multiple of 64 when `k` is not one, in the
//!   workspace;
//! * the parallel scheme: Sequential when planned in a one-thread pool,
//!   BFS above.

use crate::matrix::{Gf2Matrix, WORD_BITS};
use crate::{Gf2, Gf2Word};
use fmm_core::{Options, Plan, PlanError, Planner, Scheme, Workspace};
use fmm_matrix::{DenseMatrix, Scalar};
use fmm_tensor::Decomposition;

/// Recursion cutoff (bits): without explicit steps, take a Strassen
/// step only while the *smallest* problem dimension stays at or above
/// this after the split. Below ~1k bits the O(n²) block XORs rival the
/// saved eighth of the M4RM word-ops.
pub const GF2_CUTOFF_BITS: usize = 1024;

/// Depth ceiling for automatic selection.
const MAX_STEPS: usize = 3;

/// Builder for [`Gf2Plan`]: the depth rule and lift check around a
/// [`fmm_core::Planner`].
pub struct Gf2Planner {
    shape: Option<(usize, usize, usize)>,
    algorithm: Option<Decomposition>,
    steps: Option<usize>,
}

impl Default for Gf2Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Gf2Planner {
    /// A planner with no shape; [`Gf2Planner::shape`] is mandatory.
    pub fn new() -> Self {
        Gf2Planner {
            shape: None,
            algorithm: None,
            steps: None,
        }
    }

    /// Problem shape in **bits**: `C (m×n) = A (m×k) · B (k×n)`.
    pub fn shape(mut self, m: usize, k: usize, n: usize) -> Self {
        self.shape = Some((m, k, n));
        self
    }

    /// The scheme to recurse with (default: `fmm_algo::strassen()`).
    /// Must lift mod 2 — APA schemes with fractional coefficients fail
    /// at [`Gf2Planner::plan`] time with a named-scheme error.
    pub fn algorithm(mut self, dec: &Decomposition) -> Self {
        self.algorithm = Some(dec.clone());
        self
    }

    /// Force an exact recursion depth (0 = plain M4RM, no recursion).
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = Some(steps);
        self
    }

    /// Build the immutable plan: check the mod-2 lift, choose the
    /// depth, and plan the word-shaped product on the core executor.
    /// The pool width at plan time picks the scheme.
    pub fn plan(self) -> Result<Gf2Plan, PlanError> {
        let (m, k, n) = self.shape.ok_or(PlanError::MissingShape)?;
        let dec = self.algorithm.unwrap_or_else(fmm_algo::strassen);
        let scheme = format!("<{},{},{}> rank {}", dec.m, dec.k, dec.n, dec.rank());
        let mut coeffs = [&dec.u, &dec.v, &dec.w]
            .into_iter()
            .flat_map(|f| f.as_slice());
        if let Some(&value) = coeffs.find(|&&c| Gf2::from_coeff(c).is_none()) {
            return Err(PlanError::UnrepresentableCoefficient {
                value,
                scheme,
                dtype: Gf2::NAME,
            });
        }

        let min_dim = m.min(k).min(n);
        let shrink = dec.m.max(dec.k).max(dec.n).max(1);
        let depth = self.steps.unwrap_or_else(|| {
            let mut steps = 0;
            let mut cur = min_dim;
            while steps < MAX_STEPS && cur / shrink >= GF2_CUTOFF_BITS {
                cur /= shrink;
                steps += 1;
            }
            steps
        });

        let parallel = fmm_runtime::current_num_threads() > 1;
        let plan = Planner::new()
            .shape(m, k.div_ceil(WORD_BITS), n.div_ceil(WORD_BITS))
            .algorithm(&dec)
            .steps(depth)
            .options(Options {
                scheme: if parallel {
                    Scheme::Bfs
                } else {
                    Scheme::Sequential
                },
                ..Options::default()
            })
            .plan::<Gf2Word>()?;
        // `workspace_words` adds a copy of `B` padded to whole words of
        // `A` to the core workspace; the sum must fit in `usize` too.
        let (_, kw, nw) = plan.shape();
        kw.checked_mul(WORD_BITS)
            .and_then(|rows| rows.checked_mul(nw))
            .and_then(|words| words.checked_add(plan.workspace_len()))
            .ok_or(PlanError::ShapeOverflow)?;
        Ok(Gf2Plan {
            shape: (m, k, n),
            plan,
            scheme,
        })
    }
}

/// An immutable GF(2) multiply plan: a core plan over words plus the
/// bit shape, whose `k` decides whether `B` needs padding.
pub struct Gf2Plan {
    shape: (usize, usize, usize),
    plan: Plan<Gf2Word>,
    scheme: String,
}

impl Gf2Plan {
    /// Recursion depth (0 = plain M4RM).
    pub fn depth(&self) -> usize {
        self.plan.depth()
    }

    /// Exact workspace footprint in words: the executor's temporaries
    /// plus the padded copy of `B` when `k` is not a multiple of 64.
    pub fn workspace_words(&self) -> usize {
        self.plan.workspace_len() + self.padded_b_shape().map_or(0, |(r, c)| r * c)
    }

    /// The scheme label, e.g. `"<2,2,2> rank 7"`.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Word shape of `B` padded to 64 rows per word of `A`, or `None`
    /// when `B` already has that many rows.
    fn padded_b_shape(&self) -> Option<(usize, usize)> {
        let (_, kw, nw) = self.plan.shape();
        (kw * WORD_BITS != self.shape.1).then_some((kw * WORD_BITS, nw))
    }

    /// `C = A·B` into a fresh matrix.
    ///
    /// # Panics
    /// Panics when the operand shapes disagree with the planned shape.
    pub fn execute(&self, a: &Gf2Matrix, b: &Gf2Matrix, ws: &mut Gf2Workspace) -> Gf2Matrix {
        let mut c = Gf2Matrix::zeros(self.shape.0, self.shape.2);
        self.execute_into(a, b, &mut c, ws);
        c
    }

    /// `C = A·B` into a caller-provided matrix (contents overwritten).
    ///
    /// # Panics
    /// Panics when the operand shapes disagree with the planned shape.
    pub fn execute_into(
        &self,
        a: &Gf2Matrix,
        b: &Gf2Matrix,
        c: &mut Gf2Matrix,
        ws: &mut Gf2Workspace,
    ) {
        let (m, k, n) = self.shape;
        assert_eq!((a.rows(), a.cols()), (m, k), "A shape disagrees with plan");
        assert_eq!((b.rows(), b.cols()), (k, n), "B shape disagrees with plan");
        assert_eq!((c.rows(), c.cols()), (m, n), "C shape disagrees with plan");
        let Gf2Workspace { core, padded_b } = ws;
        let b_words = match self.padded_b_shape() {
            None => b.packed(),
            Some((rows, cols)) => {
                if padded_b.shape() != (rows, cols) {
                    *padded_b = DenseMatrix::zeros(rows, cols);
                }
                let dst = padded_b.as_mut_slice();
                let (head, tail) = dst.split_at_mut(b.words().len());
                head.copy_from_slice(b.words());
                tail.fill(Gf2Word::ZERO);
                padded_b
            }
        };
        self.plan.execute(a.packed(), b_words, c.packed_mut(), core);
    }
}

/// Reusable arena for [`Gf2Plan::execute`]: the executor's word
/// workspace plus the padded copy of `B`. Sized once (e.g. via
/// [`Gf2Workspace::for_plan`]), it never grows on a further execute of
/// the plan.
pub struct Gf2Workspace {
    core: Workspace<Gf2Word>,
    padded_b: DenseMatrix<Gf2Word>,
}

impl Default for Gf2Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Gf2Workspace {
    /// An empty workspace (grows on first use).
    pub fn new() -> Self {
        Gf2Workspace {
            core: Workspace::new(),
            padded_b: DenseMatrix::zeros(0, 0),
        }
    }

    /// A workspace pre-sized for `plan`.
    pub fn for_plan(plan: &Gf2Plan) -> Self {
        let (rows, cols) = plan.padded_b_shape().unwrap_or((0, 0));
        Gf2Workspace {
            core: Workspace::for_plan(&plan.plan),
            padded_b: DenseMatrix::zeros(rows, cols),
        }
    }

    /// Current capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.core.len() + self.padded_b.as_slice().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_trace::SpanKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_plan(m: usize, k: usize, n: usize, steps: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Gf2Matrix::random(m, k, &mut rng);
        let b = Gf2Matrix::random(k, n, &mut rng);
        let plan = Gf2Planner::new()
            .shape(m, k, n)
            .steps(steps)
            .plan()
            .unwrap();
        let mut ws = Gf2Workspace::for_plan(&plan);
        let c = plan.execute(&a, &b, &mut ws);
        assert_eq!(c, a.mul_naive(&b), "{m}x{k}x{n} steps={steps}");
    }

    #[test]
    fn depth_zero_is_m4rm() {
        check_plan(33, 70, 129, 0, 1);
        check_plan(64, 64, 64, 0, 2);
    }

    #[test]
    fn strassen_one_and_two_steps_match_naive() {
        for steps in [1, 2] {
            check_plan(64, 64, 64, steps, 3);
            check_plan(130, 190, 70, steps, 4); // ragged: padding path
            check_plan(256, 256, 256, steps, 5);
        }
    }

    #[test]
    fn ragged_odd_shapes() {
        check_plan(1, 1, 1, 1, 6);
        check_plan(65, 3, 127, 2, 7);
        check_plan(7, 300, 5, 1, 8);
        // Empty dimensions reach the executor's empty-core leaf.
        check_plan(5, 0, 70, 1, 9);
        check_plan(0, 70, 5, 1, 10);
        check_plan(70, 5, 0, 2, 11);
    }

    #[test]
    fn integer_catalog_schemes_recurse_in_word_units() {
        // Two levels of every scheme that lifts mod 2, on shapes with
        // enough words to split twice and ragged in bits and in words,
        // planned sequentially and with BFS fan-out.
        let mut rng = StdRng::seed_from_u64(13);
        let mut checked = 0;
        for (name, text) in fmm_algo::embedded_files() {
            let Ok(dec) = fmm_algo::parse(text) else {
                continue;
            };
            let lifted = |planner: Gf2Planner| planner.algorithm(&dec).steps(2).plan();
            if lifted(Gf2Planner::new().shape(1, 1, 1)).is_err() {
                continue;
            }
            let (m, k, n) = (
                dec.m * dec.m * 3 + 1,
                (dec.k * dec.k + 1) * WORD_BITS - 5,
                (dec.n * dec.n + 1) * WORD_BITS - 9,
            );
            let a = Gf2Matrix::random(m, k, &mut rng);
            let b = Gf2Matrix::random(k, n, &mut rng);
            let want = a.mul_naive(&b);
            for width in [1, 2] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap();
                let plan = pool
                    .install(|| lifted(Gf2Planner::new().shape(m, k, n)))
                    .unwrap();
                let mut ws = Gf2Workspace::for_plan(&plan);
                let got = pool.install(|| plan.execute(&a, &b, &mut ws));
                assert_eq!(got, want, "{name} at width {width}");
            }
            checked += 1;
        }
        assert!(checked > 0, "no integer scheme in the catalog");
    }

    #[test]
    fn workspace_is_reused_not_regrown() {
        let plan = Gf2Planner::new()
            .shape(128, 128, 128)
            .steps(1)
            .plan()
            .unwrap();
        let mut ws = Gf2Workspace::for_plan(&plan);
        let cap = ws.capacity_words();
        assert_eq!(cap, plan.workspace_words());
        let mut rng = StdRng::seed_from_u64(11);
        let a = Gf2Matrix::random(128, 128, &mut rng);
        let b = Gf2Matrix::random(128, 128, &mut rng);
        for _ in 0..3 {
            let _ = plan.execute(&a, &b, &mut ws);
            assert_eq!(ws.capacity_words(), cap, "steady state must not grow");
        }
    }

    #[test]
    fn default_depth_uses_bit_cutoff() {
        let small = Gf2Planner::new().shape(256, 256, 256).plan().unwrap();
        assert_eq!(small.depth(), 0, "256 bits is below the cutoff");
        let big = Gf2Planner::new().shape(4096, 4096, 4096).plan().unwrap();
        assert!(big.depth() >= 1, "4096 bits should recurse");
        assert!(big.depth() <= 3);
    }

    #[test]
    fn apa_scheme_fails_with_named_scheme_and_coefficient() {
        // Planning an APA scheme over GF(2) must name the offending
        // coefficient and the scheme in the Display output, at any
        // depth.
        let bini = fmm_algo::by_name("bini").expect("bini is in the catalog");
        for steps in [0, 1] {
            let err = Gf2Planner::new()
                .shape(512, 512, 512)
                .algorithm(&bini.dec)
                .steps(steps)
                .plan()
                .err()
                .expect("an APA scheme must not plan over gf2");
            let PlanError::UnrepresentableCoefficient {
                value,
                ref scheme,
                dtype,
            } = err
            else {
                panic!("expected UnrepresentableCoefficient, got {err:?}");
            };
            assert!(
                value.fract() != 0.0,
                "offender should be fractional: {value}"
            );
            assert_eq!(dtype, "gf2");
            assert!(scheme.contains("<3,2,2>"), "scheme label: {scheme}");
            let msg = err.to_string();
            assert!(msg.contains("<3,2,2>"), "message names the scheme: {msg}");
            assert!(msg.contains("gf2"), "message names the dtype: {msg}");
        }
    }

    #[test]
    fn core_planner_names_the_first_unrepresentable_coefficient() {
        // Planned straight through fmm_core, an APA scheme fails on its
        // first nonzero coefficient that does not lift: W by rows, then
        // U and V by columns.
        let bini = fmm_algo::by_name("bini")
            .expect("bini is in the catalog")
            .dec;
        let nonzero = |f: &fmm_matrix::Matrix, by_rows: bool| {
            let (outer, inner) = if by_rows {
                (f.rows(), f.cols())
            } else {
                (f.cols(), f.rows())
            };
            (0..outer)
                .flat_map(move |o| (0..inner).map(move |i| if by_rows { (o, i) } else { (i, o) }))
                .map(|ij| f[ij])
                .filter(|c| c.abs() > 1e-14)
                .collect::<Vec<_>>()
        };
        let expected = [
            nonzero(&bini.w, true),
            nonzero(&bini.u, false),
            nonzero(&bini.v, false),
        ]
        .concat()
        .into_iter()
        .find(|&c| Gf2Word::from_coeff(c).is_none())
        .expect("bini has a fractional coefficient");
        let err = Planner::new()
            .shape(64, 8, 8)
            .algorithm(&bini)
            .steps(1)
            .plan::<Gf2Word>()
            .err();
        let Some(PlanError::UnrepresentableCoefficient { value, dtype, .. }) = err else {
            panic!("expected UnrepresentableCoefficient, got {err:?}");
        };
        assert_eq!((value, dtype), (expected, "gf2"));
    }

    #[test]
    fn oversized_shapes_fail_planning() {
        // The core workspace overflows, through fmm_core::Planner.
        let huge = 1 << 40;
        let core = Gf2Planner::new().shape(huge, huge, huge).steps(2).plan();
        assert_eq!(core.err(), Some(PlanError::ShapeOverflow));
        // Plain M4RM needs no core workspace, but the padded copy of B
        // would have more rows than usize can count.
        let padded = Gf2Planner::new()
            .shape(1, usize::MAX - 1, 64)
            .steps(0)
            .plan();
        assert_eq!(padded.err(), Some(PlanError::ShapeOverflow));
    }

    #[test]
    fn float_planner_error_matches_over_gf2_elementwise_path() {
        // The generic DenseMatrix<Gf2> path through fmm_core::Planner
        // hits the same seam (Scalar::from_coeff) and names the scheme
        // too.
        let bini = fmm_algo::by_name("bini").expect("bini is in the catalog");
        let result = fmm_core::Planner::new()
            .shape(12, 8, 8)
            .algorithm(&bini.dec)
            .steps(1)
            .plan::<Gf2>();
        let err = match result {
            Err(e) => e,
            Ok(_) => panic!("expected an APA scheme to fail planning over gf2"),
        };
        let msg = err.to_string();
        assert!(msg.contains("<3,2,2>"), "{msg}");
        assert!(msg.contains("gf2"), "{msg}");
    }

    #[test]
    fn plan_scheme_follows_the_pool_width() {
        let width = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| Gf2Planner::new().shape(256, 256, 256).steps(1).plan())
                .unwrap()
                .plan
                .options()
                .scheme
        };
        assert_eq!(width(1), Scheme::Sequential);
        assert_eq!(width(2), Scheme::Bfs);
    }

    #[test]
    fn spans_are_emitted_when_tracing() {
        fmm_trace::set_enabled(true);
        let plan = Gf2Planner::new()
            .shape(128, 128, 128)
            .steps(1)
            .plan()
            .unwrap();
        let mut ws = Gf2Workspace::for_plan(&plan);
        let mut rng = StdRng::seed_from_u64(12);
        let a = Gf2Matrix::random(128, 128, &mut rng);
        let b = Gf2Matrix::random(128, 128, &mut rng);
        let _ = plan.execute(&a, &b, &mut ws);
        fmm_trace::set_enabled(false);
        let kinds: Vec<_> = fmm_trace::TraceSink::collect()
            .tracks
            .into_iter()
            .flat_map(|t| t.records.into_iter().map(|r| r.kind))
            .collect();
        for want in [SpanKind::BaseGemm, SpanKind::Additions, SpanKind::Combine] {
            assert!(kinds.contains(&want), "missing {want:?} in {kinds:?}");
        }
    }
}
