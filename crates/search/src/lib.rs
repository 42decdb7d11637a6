//! Numerical search for fast matrix multiplication algorithms.
//!
//! Implements the method of §2.3.2 of the paper: given a base case
//! `⟨M,K,N⟩` and a target rank `R`, find factor matrices `⟦U,V,W⟧` that
//! satisfy the Brent equations by **alternating least squares** (ALS) —
//! fix two factors and solve a linear least-squares problem for the
//! third — with the refinements the paper inherits from Johnson &
//! McLoughlin and Smirnov:
//!
//! * multiple random starting points (local-minimum escape),
//! * Tikhonov regularization of the inner solves (ill-conditioning),
//! * sparsification/rounding toward discrete values to recover exact
//!   algorithms from numerical approximations, and
//! * a *repair* mode that starts ALS from a hand-entered candidate and
//!   snaps it back onto an exact nearby solution.
//!
//! The same machinery doubles as a **border-rank fitter** for APA
//! algorithms (§2.2.3): run at a rank below the exact rank, the best
//! achievable residual decays as factor norms grow, which is exactly
//! the behaviour of an approximate (Bini-style) algorithm at a fixed
//! `λ`.
//!
//! # Flip-graph search (exact, no numerics)
//!
//! Alongside ALS the crate implements **flip-graph exploration** over
//! exact ℤ-coefficient schemes ("Fast Matrix Multiplication in Small
//! Formats", PAPERS.md): [`scheme`] is the integer state space,
//! [`flip`] the tensor-preserving moves (flips, reductions, splits),
//! and [`mod@explore`] the seeded parallel random-walk search. Where ALS
//! descends a float residual and must *round* its way back to an exact
//! algorithm, every flip-graph state is exact by construction — the
//! search's only objective is rank. The `discover-flip` binary runs it
//! end to end and emits `.alg` files only after
//! [`fmm_verify::certify_exact`] proves every Brent equation in ℚ.
//!
//! For ⟨3,3,3⟩ specifically, the flip graph **supersedes the ALS
//! border-rank route for planning**: ALS runs below rank 23 stall in
//! the well-known border swamp (Frobenius residual plateauing near
//! 1.0, factor norms growing — the signature of a border-rank-only
//! decomposition), whereas the flip walk lands the exact rank-23
//! scheme that the catalog can certify and every backend (including
//! GF(2), which cannot execute border fits at all) can run.

mod als;
pub mod explore;
pub mod flip;
mod polish;
pub mod scheme;

pub use als::{als_fit, als_from_random, frob_residual, random_init, AlsOptions, AlsReport};
pub use explore::{explore, FlipOptions, FlipReport, WalkerOutcome};
pub use flip::{
    apply_flip, reduce_all, reduce_touching, shared_sign, split, undo_flip, FlipMove, FlipUndo,
    Slot,
};
pub use polish::{polish_to_exact, repair, search};
pub use scheme::{matmul_tensor_int, IntScheme, Term};

use fmm_tensor::Decomposition;

/// Outcome of a search: the decomposition plus provenance diagnostics.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The discovered (or repaired) decomposition.
    pub decomposition: Decomposition,
    /// Final max-norm Brent residual.
    pub residual: f64,
    /// Number of ALS restarts consumed.
    pub restarts_used: usize,
    /// Whether the factor entries were successfully rounded to small
    /// dyadic rationals (an "exact" discrete algorithm).
    pub discrete: bool,
}
