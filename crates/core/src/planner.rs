//! Plan/execute separation for fast matrix multiplication.
//!
//! The paper's central practical lesson (§3.4, §4) is that a fast
//! algorithm only pays when the recursion depth, parallel scheme and
//! addition strategy are chosen *for the machine and the problem
//! shape*. [`Planner`] is where those choices are made — once, up
//! front, and in one function, [`Planner::plan`] — and [`Plan`] is the
//! immutable result: per-level addition plans plus the exact temporary
//! footprint of the whole recursion tree, computed by walking it once
//! at plan time. Executing a plan against a reusable [`Workspace`]
//! never grows the workspace after the first call (the FFTW
//! plan/execute and BLIS preallocated-packing-buffer discipline).

use crate::certificate::{derive_certificate, PlanCertificate};
use crate::executor::{
    execute_on, required_workspace, ExecStats, ExecStatsSnapshot, LevelPlan, Options,
};
use crate::workspace::Workspace;
use fmm_gemm::GemmScalar;
use fmm_matrix::DenseMatrix;
use fmm_tensor::Decomposition;

/// Why [`Planner::plan`] could not produce a [`Plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No problem shape was given ([`Planner::shape`] is mandatory —
    /// the workspace footprint depends on it).
    MissingShape,
    /// An explicit [`Planner::steps`] conflicts with the schedule
    /// length, which is authoritative for schedules.
    StepsConflict {
        /// The schedule length.
        schedule_len: usize,
        /// The conflicting explicit steps value.
        steps: usize,
    },
    /// A decomposition coefficient is not representable in the target
    /// element type ([`fmm_matrix::Scalar::from_coeff`] returned `None`). Cannot
    /// happen for the float types; this is the designed rejection path
    /// for non-field semiring backends fed fractional APA coefficients.
    UnrepresentableCoefficient {
        /// The offending coefficient, as stored in the `.alg` data.
        value: f64,
        /// The scheme it came from, e.g. `"<3,2,2> rank 10"` — APA
        /// catalogs mix exact and border schemes, so the failing one
        /// must be named for the error to be self-diagnosing.
        scheme: String,
        /// The element type that rejected it.
        dtype: &'static str,
    },
    /// The shape's workspace size does not fit in `usize`, or one of
    /// its certificate counts (composed rank, gemm counts, flops) does
    /// not fit in `u64`.
    ShapeOverflow,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MissingShape => write!(f, "Planner::shape(m, k, n) was not called"),
            PlanError::StepsConflict {
                schedule_len,
                steps,
            } => write!(
                f,
                "steps({steps}) conflicts with schedule length {schedule_len}; \
                 the schedule length is authoritative"
            ),
            PlanError::UnrepresentableCoefficient {
                value,
                scheme,
                dtype,
            } => write!(
                f,
                "coefficient {value} of scheme {scheme} is not representable in {dtype}"
            ),
            PlanError::ShapeOverflow => {
                write!(f, "the shape's workspace size or operation counts overflow")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[derive(Clone, Default)]
enum AlgChoice {
    /// The catalog default for the shape (see [`Planner::plan`]).
    #[default]
    Catalog,
    /// One decomposition applied uniformly for the chosen depth.
    Single(Decomposition),
    /// One decomposition per recursion level; the length is the depth.
    Schedule(Vec<Decomposition>),
}

/// Builder that turns an algorithm choice and a problem shape into a
/// [`Plan`].
///
/// Only [`Planner::shape`] is mandatory. Without [`Planner::algorithm`]
/// or [`Planner::schedule`] the planner picks a catalog entry for the
/// shape, and without [`Planner::steps`] it takes one fast step when
/// the decomposition saves multiplies and none otherwise — both rules
/// live in [`Planner::plan`]. Here an explicit depth keeps the example
/// self-contained (the classical decomposition saves nothing, so the
/// default rule would plan depth 0 for it):
///
/// ```
/// use fmm_core::{Planner, Workspace};
/// use fmm_matrix::Matrix;
///
/// let dec = fmm_tensor::compose::classical(2, 2, 2); // any Decomposition
/// let plan = Planner::new()
///     .shape(128, 128, 128)
///     .algorithm(&dec)
///     .steps(2)
///     .plan()
///     .unwrap();
/// assert_eq!(plan.depth(), 2);
/// assert!(plan.workspace_len() > 0);
/// let mut ws = Workspace::for_plan(&plan);
/// let a = Matrix::identity(128);
/// let b = Matrix::identity(128);
/// let mut c = Matrix::zeros(128, 128);
/// plan.execute(&a, &b, &mut c, &mut ws); // plan once, execute many
/// ```
#[derive(Clone, Default)]
pub struct Planner {
    shape: Option<(usize, usize, usize)>,
    alg: AlgChoice,
    steps: Option<usize>,
    opts: Options,
}

impl Planner {
    /// A planner with the catalog default, the one-step depth rule and
    /// the executor defaults ([`Options::default`]: write-once
    /// additions, no CSE, Sequential scheme).
    #[must_use]
    pub fn new() -> Self {
        Planner::default()
    }

    /// Problem shape `C(m×n) = A(m×k) · B(k×n)`. Mandatory: the plan's
    /// workspace footprint is exact for this shape.
    #[must_use]
    pub fn shape(mut self, m: usize, k: usize, n: usize) -> Self {
        self.shape = Some((m, k, n));
        self
    }

    /// Use one decomposition uniformly instead of the catalog default.
    /// Depth comes from [`Planner::steps`] when set, otherwise one step
    /// when `dec` saves multiplies and none otherwise.
    #[must_use]
    pub fn algorithm(mut self, dec: &Decomposition) -> Self {
        self.alg = AlgChoice::Single(dec.clone());
        self
    }

    /// Use a composed schedule: one decomposition per recursion level
    /// (§5.2). The schedule length is the depth.
    #[must_use]
    pub fn schedule(mut self, schedule: &[&Decomposition]) -> Self {
        self.alg = AlgChoice::Schedule(schedule.iter().map(|d| (*d).clone()).collect());
        self
    }

    /// Explicit recursion depth, overriding the one-step default. With
    /// [`Planner::schedule`] it must be 0 or equal to the schedule
    /// length.
    #[must_use]
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = Some(steps);
        self
    }

    /// Executor strategy: addition method (§3.2), CSE (§3.3) and
    /// parallel scheme (§4). BFS/HYBRID plans reserve disjoint
    /// workspace for every concurrent task, making the §4.2 memory
    /// factor visible in [`Plan::workspace_len`].
    #[must_use]
    pub fn options(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Resolve the configuration into an immutable [`Plan`].
    ///
    /// This is the one place a shape becomes a schedule. Without an
    /// algorithm the planner takes the first entry with the highest
    /// per-step speedup in `fmm_algo::candidates_for_shape` order, so
    /// the ranking's aspect-ratio order only breaks ties. The depth is
    /// [`Planner::steps`] when set, otherwise one step when the chosen
    /// decomposition saves multiplies and none otherwise.
    ///
    /// Generic over the element type the plan will execute in; `T`
    /// defaults to `f64` through [`Plan`]'s own default parameter and
    /// is normally inferred from the matrices later passed to
    /// [`Plan::execute`]. Request single precision explicitly with
    /// `planner.plan::<f32>()`.
    pub fn plan<T: GemmScalar>(self) -> Result<Plan<T>, PlanError> {
        let shape = self.shape.ok_or(PlanError::MissingShape)?;
        let depth = |dec: &Decomposition| {
            self.steps
                .unwrap_or(usize::from(dec.speedup_per_step() > 0.0))
        };
        let schedule: Vec<Decomposition> = match self.alg {
            AlgChoice::Catalog => {
                // Strict `>` keeps the first of equal speedups.
                let dec = fmm_algo::candidates_for_shape(shape.0, shape.1, shape.2)
                    .into_iter()
                    .map(|a| a.dec)
                    .reduce(|best, d| {
                        if d.speedup_per_step() > best.speedup_per_step() {
                            d
                        } else {
                            best
                        }
                    })
                    .expect("the catalog always holds Strassen");
                let steps = depth(&dec);
                vec![dec; steps]
            }
            AlgChoice::Single(dec) => {
                let steps = depth(&dec);
                vec![dec; steps]
            }
            AlgChoice::Schedule(s) => {
                if let Some(steps) = self.steps {
                    if steps != 0 && steps != s.len() {
                        return Err(PlanError::StepsConflict {
                            schedule_len: s.len(),
                            steps,
                        });
                    }
                }
                s
            }
        };
        let opts = self.opts;
        let levels: Vec<LevelPlan<T>> = schedule
            .iter()
            .map(|d| {
                LevelPlan::try_new(d, opts.cse).map_err(|value| {
                    PlanError::UnrepresentableCoefficient {
                        value,
                        scheme: format!("<{},{},{}> rank {}", d.m, d.k, d.n, d.rank()),
                        dtype: T::NAME,
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        let ws_len = required_workspace(&levels, 0, opts.scheme, shape.0, shape.1, shape.2)?;
        let certificate = derive_certificate(&levels, opts.scheme, shape)?;
        // Audit: the certificate re-derives the workspace footprint
        // from the recursion tree independently of the executor's
        // NodeLayout arithmetic; any disagreement is a sizing bug.
        debug_assert_eq!(
            certificate.workspace_len, ws_len,
            "plan certificate disagrees with precomputed workspace"
        );
        Ok(Plan {
            levels,
            opts,
            shape,
            ws_len,
            certificate,
        })
    }
}

/// An immutable, shape-specialized execution plan: per-level addition
/// plans (coefficients pre-injected into the element type) plus the
/// precomputed temporary footprint of the whole recursion tree.
/// Produced by [`Planner::plan`]; executed repeatedly against a
/// [`Workspace`] that never grows after the first call. `Plan` (no
/// parameter) is a `Plan<f64>`.
pub struct Plan<T = f64> {
    levels: Vec<LevelPlan<T>>,
    opts: Options,
    shape: (usize, usize, usize),
    ws_len: usize,
    certificate: PlanCertificate,
}

impl<T: GemmScalar> Plan<T> {
    /// The `(m, k, n)` problem shape this plan is specialized for.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.shape
    }

    /// Recursion depth the planner settled on.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The resolved executor options.
    pub fn options(&self) -> Options {
        self.opts
    }

    /// Exact workspace requirement in scalar elements: every S/T/M
    /// buffer and CSE temporary of the recursion tree, summed with
    /// per-task reservations under BFS/HYBRID.
    pub fn workspace_len(&self) -> usize {
        self.ws_len
    }

    /// [`Plan::workspace_len`] in bytes (of this plan's element type).
    pub fn workspace_bytes(&self) -> usize {
        self.ws_len * std::mem::size_of::<T>()
    }

    /// This plan's composed rank, gemm counts, flop count and exact
    /// workspace footprint, re-derived from the recursion tree at plan
    /// time — an independent audit of the planner's precomputed values
    /// (cross-checked with a `debug_assert`) and an exact prediction of
    /// the executor's runtime statistics.
    pub fn certificate(&self) -> PlanCertificate {
        self.certificate.clone()
    }

    /// `C = A · B`. After the first call on a given `workspace`,
    /// repeated calls reuse it without growing it
    /// ([`ExecStatsSnapshot::workspace_reused`]); the recursion's
    /// per-node bookkeeping (block splits, term lists) still allocates.
    ///
    /// # Panics
    /// Panics when the operand shapes differ from [`Plan::shape`] (`B`
    /// has `k · K_PACK` rows, see [`GemmScalar::K_PACK`]).
    pub fn execute(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
        workspace: &mut Workspace<T>,
    ) {
        self.exec(a, b, c, workspace, None);
    }

    /// As [`Plan::execute`], additionally returning execution
    /// statistics including the workspace footprint and whether the
    /// workspace buffer was reused without growing.
    pub fn execute_with_stats(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
        workspace: &mut Workspace<T>,
    ) -> ExecStatsSnapshot {
        let stats = ExecStats::default();
        let steals_before = fmm_runtime::steal_count();
        let reused = self.exec(a, b, c, workspace, Some(&stats));
        let tasks_stolen = fmm_runtime::steal_count() - steals_before;
        stats.snapshot(self.workspace_bytes() as u64, reused, tasks_stolen)
    }

    fn exec(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
        workspace: &mut Workspace<T>,
        stats: Option<&ExecStats>,
    ) -> bool {
        let (m, k, n) = self.shape;
        assert_eq!(a.shape(), (m, k), "A shape differs from the planned shape");
        assert_eq!(
            b.shape(),
            (k * T::K_PACK, n),
            "B shape differs from the planned shape"
        );
        assert_eq!(c.shape(), (m, n), "C shape differs from the planned shape");
        let (buf, reused) = workspace.checkout(self.ws_len);
        execute_on(
            &self.levels,
            &self.opts,
            a.as_ref(),
            b.as_ref(),
            c.as_mut(),
            stats,
            buf,
        );
        reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_algo::strassen;
    use fmm_gemm::naive_gemm;
    use fmm_matrix::{max_abs_diff, Matrix};
    use fmm_tensor::compose::classical;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        c
    }

    #[test]
    fn default_depth_is_one_step_for_strassen_and_none_for_classical() {
        let plan = Planner::new()
            .shape(512, 512, 512)
            .algorithm(&strassen())
            .plan::<f64>()
            .unwrap();
        assert_eq!(plan.depth(), 1, "Strassen saves multiplies: one step");

        let plan = Planner::new()
            .shape(512, 512, 512)
            .algorithm(&classical(2, 2, 2))
            .plan::<f64>()
            .unwrap();
        assert_eq!(plan.depth(), 0, "classical has no speedup, never pays");
    }

    #[test]
    fn catalog_default_keeps_the_first_of_equal_speedups() {
        // ⟨2,3,3⟩:15, ⟨3,3,4⟩:30 and ⟨3,3,6⟩:45 all save exactly 20%
        // per step; the shape's ranking decides which one plans.
        for ((m, k, n), rank) in [
            ((64, 64, 64), 30),
            ((100, 200, 300), 15),
            ((512, 32, 512), 45),
        ] {
            let ranked = fmm_algo::candidates_for_shape(m, k, n);
            let top = ranked
                .iter()
                .map(|a| a.dec.speedup_per_step())
                .fold(f64::MIN, f64::max);
            let tied: Vec<usize> = ranked
                .iter()
                .filter(|a| a.dec.speedup_per_step() == top)
                .map(|a| a.dec.rank())
                .collect();
            assert_eq!(tied.len(), 3, "{m}x{k}x{n}: {tied:?}");
            assert_eq!(tied[0], rank, "{m}x{k}x{n}: {tied:?}");
            let plan = Planner::new().shape(m, k, n).plan::<f64>().unwrap();
            assert_eq!(plan.depth(), 1);
            assert_eq!(plan.certificate().composed_rank, rank as u64);
        }
        let plan = Planner::new()
            .shape(64, 64, 64)
            .steps(2)
            .plan::<f64>()
            .unwrap();
        assert_eq!(plan.certificate().composed_rank, 30 * 30);
    }

    #[test]
    fn plan_errors_are_reported() {
        assert_eq!(
            Planner::new().algorithm(&strassen()).plan::<f64>().err(),
            Some(PlanError::MissingShape)
        );
        let s = strassen();
        let sched = [&s, &s];
        assert_eq!(
            Planner::new()
                .shape(8, 8, 8)
                .schedule(&sched)
                .steps(3)
                .plan::<f64>()
                .err(),
            Some(PlanError::StepsConflict {
                schedule_len: 2,
                steps: 3
            })
        );
        // steps == 0 and steps == len are both accepted for schedules.
        assert_eq!(
            Planner::new()
                .shape(8, 8, 8)
                .schedule(&sched)
                .steps(0)
                .plan::<f64>()
                .unwrap()
                .depth(),
            2
        );
        // Sizes past usize are an error in debug and release alike,
        // never a wrapped workspace length.
        let huge = 1 << 33;
        assert_eq!(
            Planner::new()
                .shape(huge, huge, huge)
                .algorithm(&s)
                .steps(2)
                .plan::<f64>()
                .err(),
            Some(PlanError::ShapeOverflow)
        );
        // So are certificate counts past u64: 7^23 leaves overflow the
        // composed rank, and one (2^22)³ gemm overflows the flop count.
        assert_eq!(
            Planner::new()
                .shape(1, 1, 1)
                .algorithm(&s)
                .steps(23)
                .plan::<f64>()
                .err(),
            Some(PlanError::ShapeOverflow)
        );
        let big = 1 << 22;
        assert_eq!(
            Planner::new()
                .shape(big, big, big)
                .algorithm(&s)
                .steps(0)
                .plan::<f64>()
                .err(),
            Some(PlanError::ShapeOverflow)
        );
    }

    #[test]
    fn execute_matches_reference_and_reuses_workspace() {
        let plan = Planner::new()
            .shape(96, 96, 96)
            .algorithm(&strassen())
            .steps(2)
            .plan()
            .unwrap();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut last_bytes = None;
        for trial in 0..3 {
            let a = Matrix::random(96, 96, &mut rng);
            let b = Matrix::random(96, 96, &mut rng);
            let mut c = Matrix::zeros(96, 96);
            let stats = plan.execute_with_stats(&a, &b, &mut c, &mut ws);
            let want = reference(&a, &b);
            let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
            assert!(d < 1e-9, "trial {trial}: diff {d}");
            assert_eq!(stats.workspace_bytes, plan.workspace_bytes() as u64);
            if let Some(prev) = last_bytes {
                assert_eq!(stats.workspace_bytes, prev);
            }
            last_bytes = Some(stats.workspace_bytes);
            assert_eq!(stats.workspace_reused, trial > 0);
        }
    }

    #[test]
    fn zero_depth_plan_is_plain_gemm() {
        let plan = Planner::new()
            .shape(33, 21, 17)
            .algorithm(&strassen())
            .steps(0)
            .plan()
            .unwrap();
        assert_eq!(plan.workspace_len(), 0);
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random(33, 21, &mut rng);
        let b = Matrix::random(21, 17, &mut rng);
        let mut c = Matrix::zeros(33, 17);
        let mut ws = Workspace::new();
        plan.execute(&a, &b, &mut c, &mut ws);
        let want = reference(&a, &b);
        assert!(max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap() < 1e-10);
    }
}
