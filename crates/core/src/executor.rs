//! The recursive fast-matrix-multiplication executor.
//!
//! Given a schedule of verified decompositions (one per recursion
//! level — a uniform algorithm is a schedule of `L` copies; the
//! composed ⟨54,54,54⟩ algorithm of §5.2 is a schedule of three
//! different ones), every recursion node takes one fast step:
//!
//! 1. it forms the `S_r`/`T_r` linear combinations with the configured
//!    addition method (§3.2) and optional CSE temporaries (§3.3); a
//!    singleton column reads its source block in place, with its scale
//!    folded into `W` at plan time (§3.1);
//! 2. it multiplies `M_r = S_r · T_r` recursively, running the children
//!    in turn or as tasks by parallel scheme (§4);
//! 3. it combines the `M_r` into `C` with the rows of `W`;
//! 4. it fixes up the dynamic-peeling strips (§3.5) with classical
//!    gemms, so arbitrary dimensions work.
//!
//! Each of these is written once. Every linear combination — CSE
//! temporaries, operands and the output combine — goes through one
//! addition routine, [`form`], over chains whose source indices and
//! coefficients were resolved at plan time. One child loop recurses,
//! either in a plain loop or inside one `rayon::scope`. One loop over
//! the 2×2 core/strip blocks of `C` issues the peel gemms, and leaves
//! and strips share one counted, traced gemm call.
//!
//! The whole recursion is generic over the element type
//! ([`fmm_gemm::GemmScalar`]): decomposition coefficients are injected
//! into the scalar once per level at plan time
//! ([`Scalar::from_coeff`]), so the hot path never converts. A
//! word-packed element type whose `A` entries each cover
//! [`GemmScalar::K_PACK`] rows of `B` runs the same recursion: every
//! row count of `B` (block splits, peel strips, temporaries) is the
//! matching column count of `A` times `K_PACK`.
//!
//! # Memory model
//!
//! Every S/T/M buffer and every CSE temporary is carved out of a flat
//! `&mut [T]` workspace whose exact size is computed by walking the
//! recursion tree once ([`required_workspace`]). The [`crate::Plan`]
//! API computes that size at plan time and reuses a
//! [`crate::Workspace`] across executes, so a warm execute grows no
//! buffer, which [`ExecStatsSnapshot::workspace_reused`] reports. Small
//! bookkeeping still allocates on every execute: each node's term lists
//! for the addition kernels and its split of `C` into blocks. The base
//! gemm packs into per-thread buffers that only grow, so a warm leaf
//! allocates nothing. Under the BFS/HYBRID schemes each spawned
//! task receives a disjoint slice of the workspace, which makes the
//! §4.2 memory growth factor explicit in [`crate::Plan::workspace_len`].

use crate::plan::{output_plan, side_plan, SidePlan, Var};
use crate::planner::PlanError;
use fmm_gemm::{gemm, par_gemm, GemmScalar};
use fmm_matrix::kernels;
use fmm_matrix::partition::{Grid, PeelSplit};
use fmm_matrix::{MatMut, MatRef, Scalar};
use fmm_tensor::Decomposition;
use fmm_trace::SpanKind;

/// How the bandwidth-bound addition chains are evaluated (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdditionMethod {
    /// One `daxpy`-style pass per chain term.
    Pairwise,
    /// Each destination entry written exactly once (the paper's
    /// best-performing variant).
    #[default]
    WriteOnce,
    /// Each source block read once; all dependent temporaries updated
    /// while it streams through cache.
    Streaming,
}

/// Shared-memory parallelization scheme (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// Single-threaded recursion, sequential base-case gemm.
    #[default]
    Sequential,
    /// Depth-first: recursion is sequential, every base-case gemm and
    /// every addition uses all threads (§4.1).
    Dfs,
    /// Breadth-first: each recursive multiply is an independent task
    /// with sequential leaf gemms; per-level joins are the taskwait
    /// barriers (§4.2).
    Bfs,
    /// BFS for the first `R^L − (R^L mod P)` leaves, all-threads DFS
    /// for the remainder (§4.3). The runtime's work stealing supplies
    /// the "no oversubscription" guarantee the paper builds with
    /// OpenMP locks: an idle worker steals a pending BFS task instead
    /// of a new thread being created.
    Hybrid,
}

impl Scheme {
    /// True when recursive children run as independent tasks whose
    /// workspaces must be disjoint (BFS/HYBRID); Sequential/DFS run
    /// children one at a time and share a single child region.
    pub(crate) fn concurrent_children(self) -> bool {
        matches!(self, Scheme::Bfs | Scheme::Hybrid)
    }
}

/// Executor configuration.
///
/// The recursion depth is not an option: [`crate::Planner::steps`],
/// the planner's one-step default or the schedule length sets it.
/// Non-divisible dimensions are always handled by dynamic peeling
/// (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Options {
    /// Addition-chain evaluation strategy.
    pub additions: AdditionMethod,
    /// Apply greedy length-2 common subexpression elimination.
    pub cse: bool,
    /// Parallel scheme.
    pub scheme: Scheme,
}

/// Execution statistics collected by
/// [`crate::Plan::execute_with_stats`]: used by the tests to verify
/// the `R^L` leaf count and by the memory discussion of §4.2.
#[derive(Debug, Default)]
pub(crate) struct ExecStats {
    /// Base-case gemm calls (the "active multiplications").
    base_gemms: std::sync::atomic::AtomicU64,
    /// Classical fix-up products issued by dynamic peeling.
    peel_gemms: std::sync::atomic::AtomicU64,
    /// Total scalar elements checked out of the workspace for the M_r
    /// products.
    temp_elements: std::sync::atomic::AtomicU64,
    /// Bitmask of pool workers that executed at least one gemm during
    /// this run (bit 63 stands for any non-worker thread). Feeds
    /// [`ExecStatsSnapshot::threads_used`].
    thread_mask: std::sync::atomic::AtomicU64,
}

/// Plain snapshot of the statistics of one
/// [`crate::Plan::execute_with_stats`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStatsSnapshot {
    /// Base-case gemm calls.
    pub base_gemms: u64,
    /// Peel fix-up gemm calls.
    pub peel_gemms: u64,
    /// Total temporary scalar elements checked out of the workspace.
    pub temp_elements: u64,
    /// Size in bytes of the workspace this execution ran in.
    pub workspace_bytes: u64,
    /// True when the execution reused an existing workspace buffer
    /// without growing it — i.e. the run allocated no workspace.
    pub workspace_reused: bool,
    /// Number of distinct threads that executed at least one gemm of
    /// this run — direct evidence of how many workers participated.
    /// Exact for pools up to 63 workers; wider pools alias into 63
    /// index buckets (plus one for non-worker threads), making this a
    /// lower bound there.
    pub threads_used: u32,
    /// Work-stealing events (tasks taken from another worker's deque)
    /// observed across the runtime while this run executed. `> 0` under
    /// BFS/HYBRID with several workers means the scheduler actually
    /// balanced load; always 0 for Sequential. Process-wide counter
    /// diff, so concurrent executions can inflate each other's count.
    pub tasks_stolen: u64,
}

impl ExecStats {
    pub(crate) fn snapshot(
        &self,
        workspace_bytes: u64,
        workspace_reused: bool,
        tasks_stolen: u64,
    ) -> ExecStatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        ExecStatsSnapshot {
            base_gemms: self.base_gemms.load(Relaxed),
            peel_gemms: self.peel_gemms.load(Relaxed),
            temp_elements: self.temp_elements.load(Relaxed),
            workspace_bytes,
            workspace_reused,
            threads_used: self.thread_mask.load(Relaxed).count_ones(),
            tasks_stolen,
        }
    }
}

/// A linear combination `Σ c·src_j` over source indices `j`.
type Chain<T> = Vec<(usize, T)>;

/// Inject a chain's coefficients into `T`; `Err` carries the first
/// coefficient `T` rejects.
fn inject<T: Scalar>(terms: impl IntoIterator<Item = (usize, f64)>) -> Result<Chain<T>, f64> {
    terms
        .into_iter()
        .map(|(j, c)| T::from_coeff(c).map(|tc| (j, tc)).ok_or(c))
        .collect()
}

/// One side's chains (U ⇒ every `S_r`, V ⇒ every `T_r`) in the element
/// type, each [`Var`] resolved to a source index: the operand's grid
/// blocks in row-major order come first, then the side's CSE
/// temporaries.
struct Side<T> {
    /// CSE temporaries in evaluation order; each reads blocks and
    /// earlier temporaries.
    temps: Vec<Chain<T>>,
    /// `chains[r]` forms `S_r` (or `T_r`).
    chains: Vec<Chain<T>>,
    /// `Some(j)` when `chains[r]` is the single block `j`: the operand
    /// reads that block in place and its scale is folded into `W`
    /// (§3.1).
    passthrough: Vec<Option<usize>>,
}

impl<T: Scalar> Side<T> {
    /// Inject `plan` with every term resolved to its source index:
    /// temporaries first, then chains, the order in which a rejected
    /// coefficient is reported.
    fn try_new(plan: &SidePlan, blocks: usize) -> Result<Self, f64> {
        let resolve = |chain: &[(Var, f64)]| {
            inject(chain.iter().map(|&(v, c)| match v {
                Var::Block(b) => (b, c),
                Var::Temp(t) => (blocks + t, c),
            }))
        };
        Ok(Side {
            temps: plan
                .temps
                .iter()
                .map(|t| resolve(t))
                .collect::<Result<_, _>>()?,
            chains: plan
                .chains
                .iter()
                .map(|c| resolve(c))
                .collect::<Result<_, _>>()?,
            passthrough: plan.passthrough.iter().map(|p| p.map(|(b, _)| b)).collect(),
        })
    }

    /// The scale operand `r` carries into `W`: its coefficient for a
    /// passthrough, one otherwise.
    fn scale(&self, r: usize) -> T {
        match self.passthrough[r] {
            Some(_) => self.chains[r][0].1,
            None => T::ONE,
        }
    }

    /// The chains formed into workspace buffers, in `r` order.
    fn formed(&self) -> impl Iterator<Item = &[(usize, T)]> + Clone {
        self.chains
            .iter()
            .zip(&self.passthrough)
            .filter(|(_, p)| p.is_none())
            .map(|(c, _)| c.as_slice())
    }
}

/// Pre-computed per-level plan, with coefficients in the element type.
pub(crate) struct LevelPlan<T> {
    pub(crate) m: usize,
    pub(crate) k: usize,
    pub(crate) n: usize,
    u: Side<T>,
    v: Side<T>,
    /// One chain per output block `C_ij` over the products `M_r`, with
    /// the passthrough scales folded in as `w·(s_r·t_r)`.
    w: Vec<Chain<T>>,
    pub(crate) rank: usize,
}

impl<T: Scalar> LevelPlan<T> {
    /// Build the level plan, injecting every coefficient through
    /// [`Scalar::from_coeff`]. `Err` carries the first coefficient the
    /// scalar type rejected, looking at W, then U, then V — impossible
    /// for the float types, the designed failure mode for non-field
    /// semirings.
    pub(crate) fn try_new(dec: &Decomposition, cse: bool) -> Result<Self, f64> {
        const TOL: f64 = 1e-14;
        let mut w = output_plan(&dec.w, TOL)
            .into_iter()
            .map(inject)
            .collect::<Result<Vec<Chain<T>>, f64>>()?;
        let u = Side::try_new(&side_plan(&dec.u, cse, TOL), dec.m * dec.k)?;
        let v = Side::try_new(&side_plan(&dec.v, cse, TOL), dec.k * dec.n)?;
        for (r, c) in w.iter_mut().flatten() {
            *c *= u.scale(*r) * v.scale(*r);
        }
        Ok(LevelPlan {
            m: dec.m,
            k: dec.k,
            n: dec.n,
            u,
            v,
            w,
            rank: dec.rank(),
        })
    }

    /// Number of U-side CSE temporaries (certificate audit).
    pub(crate) fn u_temp_count(&self) -> usize {
        self.u.temps.len()
    }

    /// Number of V-side CSE temporaries (certificate audit).
    pub(crate) fn v_temp_count(&self) -> usize {
        self.v.temps.len()
    }

    /// Whether multiplication `r` reads its S/T operand directly from a
    /// source block (passthrough) instead of a workspace temporary.
    pub(crate) fn passthrough(&self, r: usize) -> (bool, bool) {
        (
            self.u.passthrough[r].is_some(),
            self.v.passthrough[r].is_some(),
        )
    }
}

// Checked size arithmetic: a shape whose workspace does not fit in
// `usize` is a typed plan error, never a wrapped length.
fn mul(a: usize, b: usize) -> Result<usize, PlanError> {
    a.checked_mul(b).ok_or(PlanError::ShapeOverflow)
}

fn sum(parts: &[usize]) -> Result<usize, PlanError> {
    parts.iter().try_fold(0usize, |acc, &x| {
        acc.checked_add(x).ok_or(PlanError::ShapeOverflow)
    })
}

/// Workspace layout of one recursion node, derived from the node's
/// problem dimensions. The same arithmetic drives both plan-time sizing
/// ([`required_workspace`]) and runtime carving, so the two can never
/// disagree.
struct NodeLayout {
    peel: PeelSplit,
    /// Elements of one S_r temporary (`(p1/m) · (q1/k)`).
    s_size: usize,
    /// Elements of one T_r temporary (`(q1/k) · K_PACK · (r1/n)`).
    t_size: usize,
    /// Elements of one M_r product (`(p1/m) · (r1/n)`).
    m_size: usize,
    /// U-side CSE temporary region.
    ut_len: usize,
    /// V-side CSE temporary region.
    vt_len: usize,
    /// All `rank` M_r products.
    ms_len: usize,
    /// All non-passthrough S_r/T_r operands.
    st_len: usize,
    /// Workspace of one recursive child.
    child_len: usize,
    /// Total child region: `rank · child_len` when children run as
    /// concurrent tasks (BFS/HYBRID), `child_len` when they run one at
    /// a time (Sequential/DFS).
    children_len: usize,
}

impl NodeLayout {
    /// Layout for a node at `depth` on a `p × q × r` problem, or `None`
    /// when the node degenerates to a single base-case gemm (recursion
    /// exhausted or core empty) and needs no workspace.
    fn at<T: GemmScalar>(
        levels: &[LevelPlan<T>],
        depth: usize,
        scheme: Scheme,
        p: usize,
        q: usize,
        r: usize,
    ) -> Result<Option<Self>, PlanError> {
        let Some(lp) = levels.get(depth) else {
            return Ok(None);
        };
        let peel = PeelSplit::new(p, q, r, lp.m, lp.k, lp.n);
        if peel.core_is_empty() {
            return Ok(None);
        }
        let (cp, cq, cr) = (peel.p1 / lp.m, peel.q1 / lp.k, peel.r1 / lp.n);
        let s_size = mul(cp, cq)?;
        let t_size = mul(mul(cq, T::K_PACK)?, cr)?;
        let m_size = mul(cp, cr)?;
        let st_len = (0..lp.rank).try_fold(0, |len, i| {
            let s = if lp.u.passthrough[i].is_none() {
                s_size
            } else {
                0
            };
            let t = if lp.v.passthrough[i].is_none() {
                t_size
            } else {
                0
            };
            sum(&[len, s, t])
        })?;
        let child_len = required_workspace(levels, depth + 1, scheme, cp, cq, cr)?;
        let children_len = if scheme.concurrent_children() {
            mul(lp.rank, child_len)?
        } else {
            child_len
        };
        let layout = NodeLayout {
            peel,
            s_size,
            t_size,
            m_size,
            ut_len: mul(lp.u.temps.len(), s_size)?,
            vt_len: mul(lp.v.temps.len(), t_size)?,
            ms_len: mul(lp.rank, m_size)?,
            st_len,
            child_len,
            children_len,
        };
        Ok(Some(layout))
    }

    fn total(&self) -> Result<usize, PlanError> {
        sum(&[
            self.ut_len,
            self.vt_len,
            self.ms_len,
            self.st_len,
            self.children_len,
        ])
    }
}

/// Exact workspace size (in scalar elements) the subtree rooted at
/// `depth` needs for a `p × q × r` problem, or
/// [`PlanError::ShapeOverflow`] when it does not fit in `usize`. One
/// walk of the recursion tree; at depth 0 this is what
/// [`crate::Plan::workspace_len`] precomputes.
pub(crate) fn required_workspace<T: GemmScalar>(
    levels: &[LevelPlan<T>],
    depth: usize,
    scheme: Scheme,
    p: usize,
    q: usize,
    r: usize,
) -> Result<usize, PlanError> {
    NodeLayout::at(levels, depth, scheme, p, q, r)?.map_or(Ok(0), |l| l.total())
}

/// Run the schedule inside `ws`, which must hold at least
/// [`required_workspace`] elements: the body of
/// [`crate::Plan::execute`].
pub(crate) fn execute_on<T: GemmScalar>(
    levels: &[LevelPlan<T>],
    opts: &Options,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    stats: Option<&ExecStats>,
    ws: &mut [T],
) {
    assert_eq!(a.cols() * T::K_PACK, b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "output cols mismatch");
    let threshold = match opts.scheme {
        Scheme::Sequential | Scheme::Bfs => u64::MAX,
        Scheme::Dfs => 0,
        Scheme::Hybrid => {
            let total_leaves: u64 = levels.iter().map(|l| l.rank as u64).product();
            let threads = rayon::current_num_threads() as u64;
            total_leaves - (total_leaves % threads.max(1))
        }
    };
    let ctx = Ctx {
        levels,
        additions: opts.additions,
        scheme: opts.scheme,
        threshold,
        stats,
        // The tracing gate is read once per execute and carried as a
        // plain bool so recursion leaves never touch the atomic.
        trace: fmm_trace::enabled(),
    };
    run_node(&ctx, 0, 0, a, b, c, ws);
}

struct Ctx<'p, T> {
    levels: &'p [LevelPlan<T>],
    additions: AdditionMethod,
    scheme: Scheme,
    /// Index of the first leaf whose gemm uses all threads: 0 under
    /// DFS, `R^L − (R^L mod P)` under HYBRID (§4.3), none under
    /// Sequential and BFS.
    threshold: u64,
    stats: Option<&'p ExecStats>,
    trace: bool,
}

impl<T> Ctx<'_, T> {
    fn count(&self, field: impl Fn(&ExecStats) -> &std::sync::atomic::AtomicU64, amount: u64) {
        if let Some(stats) = self.stats {
            field(stats).fetch_add(amount, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Record which thread is doing compute: pool worker `i` sets bit
    /// `i` (mod 63), non-worker threads set bit 63.
    fn mark_thread(&self) {
        if let Some(stats) = self.stats {
            let bit = match fmm_runtime::worker_index() {
                Some(i) => i as u64 % 63,
                None => 63,
            };
            stats
                .thread_mask
                .fetch_or(1 << bit, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl<T: GemmScalar> Ctx<'_, T> {
    /// Leaves under one child of a node at `depth`.
    fn leaves_below(&self, depth: usize) -> u64 {
        self.levels[depth + 1..]
            .iter()
            .map(|l| l.rank as u64)
            .product()
    }

    /// Should the additions and peel strips of a node at this depth use
    /// all threads?
    fn par_at(&self, depth: usize) -> bool {
        match self.scheme {
            Scheme::Sequential => false,
            Scheme::Dfs => true,
            // BFS/HYBRID: only the top level runs outside tasks.
            Scheme::Bfs | Scheme::Hybrid => depth == 0,
        }
    }

    /// One counted, traced classical product `C = A·B + β·C`: a leaf of
    /// the recursion ([`SpanKind::BaseGemm`]) or a peel strip
    /// ([`SpanKind::PeelGemm`]), on all threads when `par`.
    fn gemm(
        &self,
        kind: SpanKind,
        par: bool,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        if kind == SpanKind::BaseGemm {
            self.count(|s| &s.base_gemms, 1);
        } else {
            self.count(|s| &s.peel_gemms, 1);
        }
        self.mark_thread();
        let flops = (a.rows() * b.rows() * b.cols()) as u64;
        let t_span = fmm_trace::now_if(self.trace);
        if par {
            par_gemm(T::ONE, a, b, beta, c)
        } else {
            gemm(T::ONE, a, b, beta, c)
        }
        fmm_trace::span_end(kind, t_span, flops);
    }
}

/// Recursive driver: the fast step on the divisible core, then the
/// peel fix-ups.
fn run_node<T: GemmScalar>(
    ctx: &Ctx<'_, T>,
    depth: usize,
    leaf_lo: u64,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
    ws: &mut [T],
) {
    let (p, q, r) = (a.rows(), a.cols(), b.cols());
    let Some(layout) =
        NodeLayout::at(ctx.levels, depth, ctx.scheme, p, q, r).expect("sized at plan time")
    else {
        // Recursion exhausted, or the core is smaller than the base
        // case: one classical product.
        ctx.gemm(
            SpanKind::BaseGemm,
            leaf_lo >= ctx.threshold,
            a,
            b,
            T::ZERO,
            c,
        );
        return;
    };
    let PeelSplit {
        p1,
        q1,
        r1,
        dp,
        dq,
        dr,
    } = layout.peel;
    fast_step(
        ctx,
        depth,
        leaf_lo,
        a.block(0, 0, p1, q1),
        b.block(0, 0, q1 * T::K_PACK, r1),
        c.reborrow().into_block(0, 0, p1, r1),
        &layout,
        ws,
    );

    // Dynamic-peeling fix-ups (§3.5): C_ij = Σ_l A_il·B_lj over the 2×2
    // core/strip blocks, in block order. The core block C11 already
    // holds A11·B11, so it only adds A12·B21.
    let par = ctx.par_at(depth);
    let (rows, inner, cols) = (
        [(0, p1), (p1, dp)],
        [(0, q1), (q1, dq)],
        [(0, r1), (r1, dr)],
    );
    for (i, &(i0, ni)) in rows.iter().enumerate() {
        for (j, &(j0, nj)) in cols.iter().enumerate() {
            for &(l0, nl) in &inner[usize::from(i + j == 0)..] {
                if ni == 0 || nj == 0 || nl == 0 {
                    continue;
                }
                let beta = if l0 == 0 { T::ZERO } else { T::ONE };
                ctx.gemm(
                    SpanKind::PeelGemm,
                    par,
                    a.block(i0, l0, ni, nl),
                    b.block(l0 * T::K_PACK, j0, nl * T::K_PACK, nj),
                    beta,
                    c.reborrow().into_block(i0, j0, ni, nj),
                );
            }
        }
    }
}

/// Form `dst_i = Σ c·src(j)` over each chain and its destination with
/// one of the three addition methods (§3.2), on all threads when `par`:
///
/// * write-once: one `lincomb` per destination;
/// * pairwise: one single-term `lincomb` per term, overwriting with the
///   first (β = 0) and accumulating the rest (β = 1);
/// * streaming: zero every destination, then one pass per source in
///   source order, updating every destination whose chain reads it.
fn form<'c, 's, T: Scalar>(
    method: AdditionMethod,
    par: bool,
    src: &impl Fn(usize) -> MatRef<'s, T>,
    chains: impl Iterator<Item = &'c [(usize, T)]> + Clone,
    dsts: &mut [MatMut<'_, T>],
) {
    match method {
        AdditionMethod::WriteOnce => {
            let mut terms = Vec::new();
            for (chain, dst) in chains.zip(dsts) {
                terms.clear();
                terms.extend(chain.iter().map(|&(j, c)| (c, src(j))));
                lincomb(par, dst.reborrow(), T::ZERO, &terms);
            }
        }
        AdditionMethod::Pairwise => {
            for (chain, dst) in chains.zip(dsts) {
                if chain.is_empty() {
                    dst.fill(T::ZERO);
                }
                for (t, &(j, c)) in chain.iter().enumerate() {
                    let beta = if t == 0 { T::ZERO } else { T::ONE };
                    lincomb(par, dst.reborrow(), beta, &[(c, src(j))]);
                }
            }
        }
        AdditionMethod::Streaming => {
            // The workspace may hold stale values; streaming
            // accumulates, so every destination starts from exact zero.
            for dst in dsts.iter_mut() {
                dst.fill(T::ZERO);
            }
            let sources = chains.clone().flatten().map(|&(j, _)| j + 1).max();
            for j in 0..sources.unwrap_or(0) {
                let mut refs: Vec<(T, MatMut<'_, T>)> = chains
                    .clone()
                    .zip(dsts.iter_mut())
                    .filter_map(|(chain, dst)| {
                        let &(_, c) = chain.iter().find(|&&(s, _)| s == j)?;
                        Some((c, dst.reborrow()))
                    })
                    .collect();
                if refs.is_empty() {
                    continue;
                }
                if par {
                    kernels::par_stream_update(&mut refs, src(j));
                } else {
                    kernels::stream_update(&mut refs, src(j));
                }
            }
        }
    }
}

/// `dst ← β·dst + Σ c·src` on all threads when `par`.
fn lincomb<T: Scalar>(par: bool, dst: MatMut<'_, T>, beta: T, terms: &[(T, MatRef<'_, T>)]) {
    if par {
        kernels::par_lincomb(dst, beta, terms);
    } else {
        kernels::lincomb(dst, beta, terms);
    }
}

/// The `i`-th `rows × cols` matrix stored back to back in `buf`.
fn chunk<T: Scalar>(buf: &[T], i: usize, rows: usize, cols: usize) -> MatRef<'_, T> {
    let size = rows * cols;
    MatRef::from_slice(&buf[i * size..(i + 1) * size], rows, cols, cols)
}

/// Source `j` of one side: block `j` of `x` on `grid`, or CSE temporary
/// `j − blocks` stored in `temps`.
fn source<'a, T: Scalar>(grid: Grid, x: MatRef<'a, T>, temps: &'a [T], j: usize) -> MatRef<'a, T> {
    let blocks = grid.br * grid.bc;
    if j < blocks {
        grid.block(&x, j / grid.bc, j % grid.bc)
    } else {
        chunk(temps, j - blocks, grid.rs, grid.cs)
    }
}

/// Evaluate a side's CSE temporaries write-once into `buf`, in order (a
/// temporary may read earlier ones), and return the filled buffer.
fn eval_cse<'a, T: Scalar>(
    side: &Side<T>,
    grid: Grid,
    x: MatRef<'a, T>,
    par: bool,
    buf: &'a mut [T],
) -> &'a [T] {
    let size = grid.rs * grid.cs;
    for (t, chain) in side.temps.iter().enumerate() {
        let (done, rest) = buf.split_at_mut(t * size);
        let done: &[T] = done;
        let dst = MatMut::from_slice(&mut rest[..size], grid.rs, grid.cs, grid.cs);
        let src = |j| source(grid, x, done, j);
        form(
            AdditionMethod::WriteOnce,
            par,
            &src,
            std::iter::once(chain.as_slice()),
            &mut [dst],
        );
    }
    buf
}

/// Split `len` elements off the front of `rest`.
fn carve<'w, T>(rest: &mut &'w mut [T], len: usize) -> &'w mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// The S_r/T_r buffers of each product `r` in turn, carved from the
/// node's operand region (S before T); `None` for a passthrough
/// operand, which needs no buffer (§3.1).
fn operand_slots<'w, T>(
    lp: &'w LevelPlan<T>,
    layout: &NodeLayout,
    mut st: &'w mut [T],
) -> impl Iterator<Item = (Option<&'w mut [T]>, Option<&'w mut [T]>)> {
    let (s_size, t_size) = (layout.s_size, layout.t_size);
    lp.u.passthrough
        .iter()
        .zip(&lp.v.passthrough)
        .map(move |(u, v)| {
            let s = u.is_none().then(|| carve(&mut st, s_size));
            let t = v.is_none().then(|| carve(&mut st, t_size));
            (s, t)
        })
}

/// Operand `r` of one side: the source block itself for a passthrough
/// (§3.1), else chain `r` in `buf` — formed here unless Streaming
/// already formed every chain of the side.
fn operand<'s: 'b, 'b, T: Scalar>(
    method: AdditionMethod,
    par: bool,
    side: &Side<T>,
    r: usize,
    src: &impl Fn(usize) -> MatRef<'s, T>,
    grid: Grid,
    buf: Option<&'b mut [T]>,
) -> MatRef<'b, T> {
    if let Some(j) = side.passthrough[r] {
        return src(j);
    }
    let buf = buf.expect("a formed operand has a workspace buffer");
    if method != AdditionMethod::Streaming {
        let dst = MatMut::from_slice(&mut buf[..], grid.rs, grid.cs, grid.cs);
        form(
            method,
            par,
            src,
            std::iter::once(side.chains[r].as_slice()),
            &mut [dst],
        );
    }
    MatRef::from_slice(buf, grid.rs, grid.cs, grid.cs)
}

/// One fast recursive step on a divisible core problem, entirely inside
/// the `ws` region described by `layout`: CSE temporaries, one child
/// per product `M_r`, then the combine into `C`.
#[allow(clippy::too_many_arguments)]
fn fast_step<T: GemmScalar>(
    ctx: &Ctx<'_, T>,
    depth: usize,
    leaf_lo: u64,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    layout: &NodeLayout,
    ws: &mut [T],
) {
    let lp = &ctx.levels[depth];
    let ga = Grid::new(a.rows(), a.cols(), lp.m, lp.k);
    let gb = Grid::new(b.rows(), b.cols(), lp.k, lp.n);
    let method = ctx.additions;
    let streaming = method == AdditionMethod::Streaming;
    let par = ctx.par_at(depth);

    let (ut_buf, rest) = ws.split_at_mut(layout.ut_len);
    let (vt_buf, rest) = rest.split_at_mut(layout.vt_len);
    let (ms_buf, rest) = rest.split_at_mut(layout.ms_len);
    let (st_buf, child_buf) = rest.split_at_mut(layout.st_len);

    // CSE temporaries are shared across all chains of a side.
    let has_cse = !(lp.u.temps.is_empty() && lp.v.temps.is_empty());
    let t_span = fmm_trace::now_if(ctx.trace && has_cse);
    let ut = eval_cse(&lp.u, ga, a, par, ut_buf);
    let vt = eval_cse(&lp.v, gb, b, par, vt_buf);
    fmm_trace::span_end(SpanKind::Additions, t_span, depth as u64);
    let usrc = |j| source(ga, a, ut, j);
    let vsrc = |j| source(gb, b, vt, j);

    if streaming {
        // Streaming forms every operand up front, reading each source
        // once for all the chains of its side.
        let t_span = fmm_trace::now_if(ctx.trace);
        let (mut s, mut t) = (Vec::with_capacity(lp.rank), Vec::with_capacity(lp.rank));
        for (sb, tb) in operand_slots(lp, layout, &mut *st_buf) {
            s.extend(sb.map(|buf| MatMut::from_slice(buf, ga.rs, ga.cs, ga.cs)));
            t.extend(tb.map(|buf| MatMut::from_slice(buf, gb.rs, gb.cs, gb.cs)));
        }
        form(method, par, &usrc, lp.u.formed(), &mut s);
        form(method, par, &vsrc, lp.v.formed(), &mut t);
        fmm_trace::span_end(SpanKind::Additions, t_span, depth as u64);
    }

    ctx.count(|s| &s.temp_elements, layout.ms_len as u64);
    let (rows, cols) = (ga.rs, gb.cs);
    let leaves = ctx.leaves_below(depth);
    // A child that runs as a task forms its own operands inside the
    // task (§4.2), hence sequentially.
    let child_par = par && !ctx.scheme.concurrent_children();
    let child = |r: usize, s: Option<&mut [T]>, t: Option<&mut [T]>, m: &mut [T], kid: &mut [T]| {
        let t_span = fmm_trace::now_if(ctx.trace && !streaming);
        let s = operand(method, child_par, &lp.u, r, &usrc, ga, s);
        let t = operand(method, child_par, &lp.v, r, &vsrc, gb, t);
        fmm_trace::span_end(SpanKind::Additions, t_span, r as u64);
        let m = MatMut::from_slice(m, rows, cols, cols);
        run_node(ctx, depth + 1, leaf_lo + r as u64 * leaves, s, t, m, kid);
    };
    let slots = operand_slots(lp, layout, st_buf)
        .zip(ms_buf.chunks_mut(layout.m_size))
        .enumerate();
    if ctx.scheme.concurrent_children() {
        let mut kids = child_buf;
        rayon::scope(|scope| {
            for (r, ((s, t), m)) in slots {
                let kid = carve(&mut kids, layout.child_len);
                let child = &child;
                scope.spawn(move |_| child(r, s, t, m, kid));
            }
        });
    } else {
        for (r, ((s, t), m)) in slots {
            child(r, s, t, m, &mut child_buf[..layout.child_len]);
        }
    }

    // Combine: C_ij = Σ_r w_ijr·M_r, the passthrough scales already
    // folded into w.
    let t_span = fmm_trace::now_if(ctx.trace);
    let gc = Grid::new(c.rows(), c.cols(), lp.m, lp.n);
    let msrc = |r| chunk(ms_buf, r, rows, cols);
    let wchains = lp.w.iter().map(Vec::as_slice);
    form(method, par, &msrc, wchains, &mut gc.blocks_mut(c));
    fmm_trace::span_end(SpanKind::Combine, t_span, depth as u64);
}
