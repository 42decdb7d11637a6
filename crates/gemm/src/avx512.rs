//! AVX-512F register tile for `f64`.
//!
//! An `MR × NR` = 8 × 16 block of `C` lives in 16 zmm accumulators
//! (two per row) while the packed panels stream past: each step of the
//! inner dimension loads one 16-wide row of the `B` micro-panel into
//! two registers, broadcasts the 8 entries of the `A` micro-panel's
//! column and issues 16 fused multiply-adds. 19 of the 32 zmm registers
//! are live, so nothing spills.
//!
//! This is the only library file of the crate with `unsafe` code. The
//! tile is reachable only through [`Avx512`], a token that
//! [`Avx512::detect`] hands out after the CPU reported AVX-512F, and its
//! safe entry point asserts the panel lengths that the raw loads rely
//! on.

use std::arch::x86_64::{
    _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_pd,
};

/// Rows of the tile.
pub(crate) const MR: usize = 8;
/// Columns of the tile: two zmm registers of 8 lanes.
pub(crate) const NR: usize = 16;

/// Proof that this CPU executes AVX-512F instructions. Only
/// [`Avx512::detect`] constructs it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// The token when the CPU reports AVX-512F. `std` caches the CPUID
    /// probe, so this is one load and a bit test per call.
    pub(crate) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx512f").then_some(Avx512(()))
    }

    /// `Σ_p a[p·MR .. p·MR + MR] ⊗ b[p·NR .. p·NR + NR]` over the first
    /// `kc` steps of an `MR`-row micro-panel `a` and an `NR`-column
    /// micro-panel `b`, as the packers lay them out. Each element's
    /// sum starts at zero and takes one fused multiply-add per step, in
    /// step order.
    ///
    /// # Panics
    /// Panics when either panel holds fewer than `kc` steps.
    pub(crate) fn tile(self, a: &[f64], b: &[f64], kc: usize) -> [[f64; NR]; MR] {
        assert!(a.len() >= kc * MR, "A micro-panel shorter than kc steps");
        assert!(b.len() >= kc * NR, "B micro-panel shorter than kc steps");
        let mut acc = [[0.0; NR]; MR];
        // SAFETY: `self` exists only if `detect` saw AVX-512F on this
        // CPU, and the two asserts above give `a` at least `kc·MR` and
        // `b` at least `kc·NR` readable elements, which are all the
        // loads `tile_kernel` makes.
        unsafe { tile_kernel(a.as_ptr(), b.as_ptr(), kc, &mut acc) };
        acc
    }
}

/// The tile body, see [`Avx512::tile`].
///
/// # Safety
/// The CPU must support AVX-512F, `a` must be valid for `kc·MR` reads
/// and `b` for `kc·NR` reads.
#[target_feature(enable = "avx512f")]
unsafe fn tile_kernel(a: *const f64, b: *const f64, kc: usize, acc: &mut [[f64; NR]; MR]) {
    let mut c = [[_mm512_setzero_pd(); 2]; MR];
    for p in 0..kc {
        // SAFETY: `p < kc`, so the 16 elements at `b + p·NR` and the 8
        // at `a + p·MR` lie inside the ranges the caller guarantees.
        let (b0, b1, ap) = unsafe {
            let bp = b.add(p * NR);
            (
                _mm512_loadu_pd(bp),
                _mm512_loadu_pd(bp.add(8)),
                a.add(p * MR),
            )
        };
        for (i, row) in c.iter_mut().enumerate() {
            // SAFETY: `i < MR`, inside the step's `MR` entries of `a`.
            let ai = _mm512_set1_pd(unsafe { *ap.add(i) });
            row[0] = _mm512_fmadd_pd(ai, b0, row[0]);
            row[1] = _mm512_fmadd_pd(ai, b1, row[1]);
        }
    }
    for (out, row) in acc.iter_mut().zip(&c) {
        // SAFETY: each output row holds `NR` = 16 elements, written as
        // two 8-lane stores at offsets 0 and 8.
        unsafe {
            _mm512_storeu_pd(out.as_mut_ptr(), row[0]);
            _mm512_storeu_pd(out.as_mut_ptr().add(8), row[1]);
        }
    }
}
