//! Static plan audits: re-derive what a plan will do from its
//! recursion tree and cross-check the planner's precomputed values.
//!
//! [`PlanCertificate`] is computed by walking the level schedule the
//! same way the executor recurses — peel split per level, one classical
//! gemm per exhausted leaf, §3.5 fix-up strips per peeled node — but in
//! a *second, independent implementation* of the arithmetic: the
//! executor derives its workspace carving from `NodeLayout`, the
//! certificate re-derives every region size from the level metadata
//! alone. `Planner::plan` derives the certificate in every build, so a
//! count that does not fit in `u64` is a typed plan error, and
//! cross-checks the two workspace sizes with a `debug_assert`, so a
//! divergence between sizing and execution is caught at plan time
//! rather than as a slice-carving panic (or silent corruption) mid
//! multiply.

use crate::executor::{LevelPlan, Scheme};
use crate::planner::PlanError;
use fmm_gemm::GemmScalar;
use fmm_matrix::partition::PeelSplit;

/// Statically derived facts about a [`crate::Plan`].
///
/// All counts are exact for the plan's shape and options — the
/// executor's runtime statistics ([`crate::ExecStatsSnapshot`]) must
/// match them gemm for gemm, which the integration tests assert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanCertificate {
    /// Problem shape the plan was built for.
    pub shape: (usize, usize, usize),
    /// Recursion depth (number of fast levels).
    pub depth: usize,
    /// Product of the per-level ranks: the leaf count of an unpeeled
    /// recursion tree (Π_l R_l).
    pub composed_rank: u64,
    /// Exact number of classical base-case gemms the executor will
    /// issue. Equals `composed_rank` when every level divides evenly;
    /// smaller when empty cores collapse subtrees into single gemms.
    pub base_gemms: u64,
    /// Exact number of §3.5 dynamic-peeling fix-up gemms.
    pub peel_gemms: u64,
    /// Workspace temporaries the executor will account: the M_r product
    /// buffers of every node.
    pub temp_elements: u64,
    /// Exact workspace footprint in scalar elements — must equal
    /// [`crate::Plan::workspace_len`].
    pub workspace_len: usize,
    /// Multiply–add flops (`2·p·q·r` per gemm) summed over every
    /// base-case and peel gemm. Linear-combination work (the O(n²)
    /// additions) is excluded: it depends on the addition method and is
    /// asymptotically dominated.
    pub gemm_flops: u64,
}

/// Counts accumulated by one subtree walk.
#[derive(Clone, Copy, Default)]
struct Counts {
    base_gemms: u64,
    peel_gemms: u64,
    temp_elements: u64,
    gemm_flops: u64,
    workspace: u64,
}

// Checked count arithmetic: a count past `u64::MAX` is a typed plan
// error, never a wrapped number.
fn mul(a: u64, b: u64) -> Result<u64, PlanError> {
    a.checked_mul(b).ok_or(PlanError::ShapeOverflow)
}

fn sum(parts: &[u64]) -> Result<u64, PlanError> {
    parts.iter().try_fold(0u64, |acc, &x| {
        acc.checked_add(x).ok_or(PlanError::ShapeOverflow)
    })
}

/// Multiply–add flops of one classical `p × q × r` gemm: `2·p·q·r`.
fn flops(p: u64, q: u64, r: u64) -> Result<u64, PlanError> {
    mul(2, mul(mul(p, q)?, r)?)
}

impl Counts {
    fn leaf(p: u64, q: u64, r: u64) -> Result<Counts, PlanError> {
        Ok(Counts {
            base_gemms: 1,
            gemm_flops: flops(p, q, r)?,
            ..Counts::default()
        })
    }

    fn strip(&mut self, p: u64, q: u64, r: u64) -> Result<(), PlanError> {
        self.peel_gemms = sum(&[self.peel_gemms, 1])?;
        self.gemm_flops = sum(&[self.gemm_flops, flops(p, q, r)?])?;
        Ok(())
    }
}

/// Walk the subtree rooted at `depth` for a `p × q × r` problem.
fn walk<T: GemmScalar>(
    levels: &[LevelPlan<T>],
    scheme: Scheme,
    depth: usize,
    p: usize,
    q: usize,
    r: usize,
) -> Result<Counts, PlanError> {
    let Some(lp) = levels.get(depth) else {
        return Counts::leaf(p as u64, q as u64, r as u64);
    };
    let peel = PeelSplit::new(p, q, r, lp.m, lp.k, lp.n);
    if peel.core_is_empty() {
        return Counts::leaf(p as u64, q as u64, r as u64);
    }
    let (p1, q1, r1) = (peel.p1 as u64, peel.q1 as u64, peel.r1 as u64);
    let (dp, dq, dr) = (peel.dp as u64, peel.dq as u64, peel.dr as u64);
    let (cp, cq, cr) = (peel.p1 / lp.m, peel.q1 / lp.k, peel.r1 / lp.n);
    let rank = lp.rank as u64;

    let child = walk(levels, scheme, depth + 1, cp, cq, cr)?;
    let (cp, cq, cr) = (cp as u64, cq as u64, cr as u64);
    let mut acc = Counts {
        base_gemms: mul(rank, child.base_gemms)?,
        peel_gemms: mul(rank, child.peel_gemms)?,
        temp_elements: sum(&[mul(rank, child.temp_elements)?, mul(mul(rank, cp)?, cr)?])?,
        gemm_flops: mul(rank, child.gemm_flops)?,
        workspace: 0,
    };

    // Fix-up strips in run_node order: C11 += A12·B21, C12, C21, C22.
    if dq > 0 {
        acc.strip(p1, dq, r1)?;
    }
    if dr > 0 {
        acc.strip(p1, q1, dr)?;
        if dq > 0 {
            acc.strip(p1, dq, dr)?;
        }
    }
    if dp > 0 {
        acc.strip(dp, q1, r1)?;
        if dq > 0 {
            acc.strip(dp, dq, r1)?;
        }
    }
    if dp > 0 && dr > 0 {
        acc.strip(dp, q1, dr)?;
        if dq > 0 {
            acc.strip(dp, dq, dr)?;
        }
    }

    // Workspace regions of this node, re-derived from level metadata:
    // CSE temporaries, per-multiplication S/T operands (skipping
    // passthroughs), the rank M_r products, and the child region —
    // replicated per child when children run concurrently.
    let s_size = mul(cp, cq)?;
    let t_size = mul(mul(cq, T::K_PACK as u64)?, cr)?;
    let m_size = mul(cp, cr)?;
    let ut_len = mul(lp.u_temp_count() as u64, s_size)?;
    let vt_len = mul(lp.v_temp_count() as u64, t_size)?;
    let st_len = (0..lp.rank).try_fold(0, |len, i| {
        let (u_pass, v_pass) = lp.passthrough(i);
        let s = if u_pass { 0 } else { s_size };
        let t = if v_pass { 0 } else { t_size };
        sum(&[len, s, t])
    })?;
    let children = if scheme.concurrent_children() {
        mul(rank, child.workspace)?
    } else {
        child.workspace
    };
    acc.workspace = sum(&[ut_len, vt_len, mul(rank, m_size)?, st_len, children])?;
    Ok(acc)
}

/// Compute the certificate for a level schedule on `shape` under
/// `scheme`, or [`PlanError::ShapeOverflow`] when a count does not fit
/// in `u64` (or the workspace in `usize`). [`crate::Planner::plan`]
/// derives it once; [`crate::Plan::certificate`] returns it.
pub(crate) fn derive_certificate<T: GemmScalar>(
    levels: &[LevelPlan<T>],
    scheme: Scheme,
    shape: (usize, usize, usize),
) -> Result<PlanCertificate, PlanError> {
    let (p, q, r) = shape;
    let counts = walk(levels, scheme, 0, p, q, r)?;
    Ok(PlanCertificate {
        shape,
        depth: levels.len(),
        composed_rank: levels
            .iter()
            .try_fold(1, |acc, l| mul(acc, l.rank as u64))?,
        base_gemms: counts.base_gemms,
        peel_gemms: counts.peel_gemms,
        temp_elements: counts.temp_elements,
        workspace_len: usize::try_from(counts.workspace).map_err(|_| PlanError::ShapeOverflow)?,
        gemm_flops: counts.gemm_flops,
    })
}
