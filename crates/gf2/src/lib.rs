//! # fmm-gf2 — the bit-packed GF(2) backend
//!
//! The Benson–Ballard framework is element-type agnostic: the recursion
//! only needs a ring whose elements scale by the decomposition
//! coefficients. This crate instantiates it over **GF(2)**, where the
//! payoff is structural, not incremental — 64 matrix entries pack into
//! one `u64` (~64× memory density), addition and subtraction collapse
//! into XOR (characteristic 2: every element is its own negative), and
//! the base case becomes the **Method of Four Russians** (M4RM), which
//! replaces per-bit inner products with Gray-code combination-table
//! lookups for an extra `≈ log₂ m` over word-parallel broadcast.
//!
//! One recursion engine serves both element types, the core executor
//! of `fmm-core`:
//!
//! * [`Gf2`] is one entry per byte: `DenseMatrix<Gf2>` and
//!   `fmm_core::Planner::plan::<Gf2>()` run the float stack unchanged,
//!   for correctness and plan-time coefficient checking, not speed.
//! * [`Gf2Word`] packs 64 entries of a row. Its
//!   [`fmm_gemm::GemmScalar::K_PACK`] is 64 (one word of `A` meets 64
//!   rows of `B`) and its base-case gemm is M4RM, so [`Gf2Matrix`] +
//!   [`Gf2Planner`]/[`Gf2Plan`] is a core plan over words: Strassen
//!   over the `.alg` catalog, BFS fan-out on the `fmm-runtime` pool,
//!   a [`Gf2Workspace`] that never grows once sized, and the
//!   executor's `fmm-trace` spans. This is the performance path.
//!
//! ## The coefficient-lift rule
//!
//! `.alg` files store scheme coefficients as `f64`. GF(2) can only
//! represent their images mod 2, so `Scalar::from_coeff` of both
//! element types (and the lift check in [`Gf2Planner`]) applies:
//! **odd → 1, even → 0, fractional → error**. Exact integer schemes
//! (Strassen's ±1/0) lift cleanly; APA border schemes (Bini ⟨3,2,2⟩,
//! Schönhage ⟨3,3,3⟩) carry fractional fit coefficients and are
//! rejected at *plan* time with
//! [`fmm_core::PlanError::UnrepresentableCoefficient`] naming the
//! scheme and the offending value — never a silently wrong answer.
//!
//! ## XOR vs OR: two semirings
//!
//! GF(2) multiply counts paths **mod 2** — for boolean reachability
//! that is the wrong algebra (two distinct paths would cancel). The
//! packed type therefore ships both products: [`Gf2Matrix::mul_m4rm`]
//! (XOR accumulation, a ring — Strassen applies) and
//! [`Gf2Matrix::or_mul`] (OR accumulation, the OR–AND semiring —
//! no subtraction, so no Strassen, but M4RM still applies with a
//! clear-lowest-bit table construction). `examples/reachability.rs`
//! builds transitive closures on the OR path.

#![forbid(unsafe_code)]

mod elem;
mod m4rm;
mod matrix;
mod plan;

pub use elem::{Gf2, Gf2Word};
pub use matrix::{Gf2Matrix, WORD_BITS};
pub use plan::{Gf2Plan, Gf2Planner, Gf2Workspace, GF2_CUTOFF_BITS};
