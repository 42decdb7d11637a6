//! M4RM — the Method of Four Russians for matrix multiplication.
//!
//! The classical word-parallel product costs `m·k` row-XORs (one per set
//! bit of `A`). M4RM instead processes `A`'s columns in groups of `kb`
//! bits: for each group it precomputes all `2^kb` XOR-combinations of
//! the corresponding `kb` rows of `B` (a *combination table*), then each
//! row of `A` contributes one table lookup + one row-XOR per group —
//! `m·k/kb` row-ops plus `2^kb·k/kb` table-build row-ops, an asymptotic
//! `kb ≈ log₂ m` speedup over the broadcast baseline.
//!
//! Two table constructions share the code path:
//!
//! * **XOR mode** (GF(2)): tables are filled in Gray-code order — entry
//!   `g = idx ^ (idx >> 1)` differs from its predecessor in exactly one
//!   bit, so each entry is one row-XOR from the previous.
//! * **OR mode** (boolean OR–AND semiring, used by transitive closure):
//!   Gray stepping is impossible (OR cannot *remove* a bit), so entries
//!   build by clearing the lowest set bit: `table[idx] =
//!   table[idx & (idx−1)] | B.row(lsb(idx))` — still one row-op each.
//!
//! Several tables are built per pass ([`TABLES_PER_PASS`]) so each
//! sweep over `A`'s rows retires `TABLES_PER_PASS · kb` columns of `k`,
//! amortizing the traffic on `C`'s rows.
//!
//! The kernel is *accumulating* (`C ⊕= A·B` or `C |= A·B`) and works on
//! strided [`Gf2Word`] views, so one kernel serves the whole-matrix
//! products of [`Gf2Matrix`] and the leaves of the core executor, which
//! reach it through `Gf2Word`'s `packed_gemm` on word-aligned blocks of
//! its operands and temporaries. The tables live in a per-thread buffer
//! that only grows, so steady-state calls allocate nothing.

use crate::elem::Gf2Word;
use crate::matrix::{Gf2Matrix, WORD_BITS};
use fmm_matrix::{MatMut, MatRef};
use std::cell::RefCell;

/// Combination tables built per pass over `A`'s rows.
const TABLES_PER_PASS: usize = 4;

/// Upper bound on the group width `kb` (table size `2^kb` rows).
const MAX_KB: usize = 8;

thread_local! {
    /// This thread's combination tables, sized by the largest call yet.
    static TABLES: RefCell<Vec<Gf2Word>> = const { RefCell::new(Vec::new()) };
}

/// Group width for an `m × k` multiply: `≈ log₂ m − 2`, clamped to
/// `[1, MAX_KB]` and to `k`. The `−2` biases toward smaller tables —
/// table build cost `2^kb` must stay well under `m` lookups per group.
fn choose_kb(m: usize, k: usize) -> usize {
    let log2m = (usize::BITS - m.max(1).leading_zeros()) as usize;
    log2m.saturating_sub(2).clamp(1, MAX_KB).min(k.max(1))
}

/// Words of one pass's tables for a `kb`-bit kernel writing `nw`-word rows.
fn tables_len(kb: usize, nw: usize) -> usize {
    TABLES_PER_PASS * (1usize << kb) * nw
}

/// Extract `nbits ≤ 64` bits of `row` starting at bit `start`
/// (LSB-first packing; may straddle one word boundary).
#[inline]
fn extract_bits(row: &[Gf2Word], start: usize, nbits: usize) -> usize {
    let w = start / WORD_BITS;
    let o = start % WORD_BITS;
    let mut v = row[w].0 >> o;
    if o + nbits > WORD_BITS {
        // Straddle: o ≥ 57 here (nbits ≤ 8), so 64 − o is a valid shift.
        v |= row[w + 1].0 << (WORD_BITS - o);
    }
    (v & ((1u64 << nbits) - 1)) as usize
}

/// Accumulating M4RM product with the group width chosen for the shape
/// and the tables in this thread's buffer: `C ⊕= α·(A·B)` (`or_mode =
/// false`, GF(2); `α` masks lanes) or `C |= A·B` (`or_mode = true`).
///
/// `A` holds `m` rows of words covering at least `k` bit columns, `B`
/// is `k` rows of `nw` words, and `C` is `m × nw` words, where
/// `k = b.rows()`. Bits of `A` past column `k` are never read.
pub(crate) fn m4rm_acc(
    c: MatMut<'_, Gf2Word>,
    a: MatRef<'_, Gf2Word>,
    b: MatRef<'_, Gf2Word>,
    alpha: Gf2Word,
    or_mode: bool,
) {
    let (m, k, nw) = (a.rows(), b.rows(), b.cols());
    if m == 0 || k == 0 || nw == 0 || alpha == Gf2Word::ZERO {
        return;
    }
    let kb = choose_kb(m, k);
    TABLES.with(|tables| {
        let mut tables = tables.borrow_mut();
        let need = tables_len(kb, nw);
        if tables.len() < need {
            tables.resize(need, Gf2Word::ZERO);
        }
        m4rm_kb(c, a, b, alpha, or_mode, kb, &mut tables);
    });
}

/// [`m4rm_acc`] with an explicit group width `kb` and table buffer of
/// at least [`tables_len`]`(kb, nw)` words (contents irrelevant).
fn m4rm_kb(
    mut c: MatMut<'_, Gf2Word>,
    a: MatRef<'_, Gf2Word>,
    b: MatRef<'_, Gf2Word>,
    alpha: Gf2Word,
    or_mode: bool,
    kb: usize,
    tables: &mut [Gf2Word],
) {
    let (m, k, nw) = (a.rows(), b.rows(), b.cols());
    debug_assert!(k <= a.cols() * WORD_BITS);
    debug_assert_eq!((c.rows(), c.cols()), (m, nw));
    debug_assert!((1..=MAX_KB).contains(&kb));
    debug_assert!(tables.len() >= tables_len(kb, nw));
    let tbl_rows = 1usize << kb;
    let tbl_words = tbl_rows * nw;

    let mut k0 = 0;
    while k0 < k {
        // This pass covers bits k0 .. k0 + Σ bits_t of the k dimension,
        // one table per kb-bit group (the last group may be narrower).
        let mut widths = [0usize; TABLES_PER_PASS];
        let mut ntab = 0;
        let mut covered = 0;
        while ntab < TABLES_PER_PASS && k0 + covered < k {
            widths[ntab] = kb.min(k - k0 - covered);
            covered += widths[ntab];
            ntab += 1;
        }

        // Build the tables for this pass.
        let mut s = k0;
        for (t, &bits) in widths.iter().enumerate().take(ntab) {
            let tbl = &mut tables[t * tbl_words..(t + 1) * tbl_words];
            tbl[..nw].fill(Gf2Word::ZERO);
            for idx in 1..(1usize << bits) {
                let low = idx.trailing_zeros() as usize;
                let brow = b.row(s + low);
                if or_mode {
                    // Clear-lowest-bit recurrence: idx & (idx − 1) is
                    // already filled (it is smaller than idx).
                    let prev = idx & (idx - 1);
                    for w in 0..nw {
                        tbl[idx * nw + w].0 = tbl[prev * nw + w].0 | brow[w].0;
                    }
                } else {
                    // Gray-code walk: entry g(idx) toggles exactly bit
                    // `low` relative to g(idx − 1).
                    let g = idx ^ (idx >> 1);
                    let prev = (idx - 1) ^ ((idx - 1) >> 1);
                    for w in 0..nw {
                        tbl[g * nw + w].0 = tbl[prev * nw + w].0 ^ brow[w].0;
                    }
                }
            }
            if alpha != Gf2Word::ONE {
                // α·(A·B) = A·(B with lanes masked): mask the table once.
                for e in &mut tbl[..(1usize << bits) * nw] {
                    e.0 &= alpha.0;
                }
            }
            s += bits;
        }

        // Sweep A's rows once, retiring all `covered` columns.
        for i in 0..m {
            let arow = a.row(i);
            let crow = c.row_mut(i);
            let mut s = k0;
            for (t, &bits) in widths.iter().enumerate().take(ntab) {
                let idx = extract_bits(arow, s, bits);
                if idx != 0 {
                    let trow = &tables[t * tbl_words + idx * nw..t * tbl_words + (idx + 1) * nw];
                    if or_mode {
                        for (cd, tv) in crow.iter_mut().zip(trow) {
                            cd.0 |= tv.0;
                        }
                    } else {
                        for (cd, tv) in crow.iter_mut().zip(trow) {
                            cd.0 ^= tv.0;
                        }
                    }
                }
                s += bits;
            }
        }

        k0 += covered;
    }
}

impl Gf2Matrix {
    /// GF(2) product `A·B` via the M4RM kernel.
    ///
    /// # Panics
    /// Panics when `self.cols() != rhs.rows()`.
    pub fn mul_m4rm(&self, rhs: &Gf2Matrix) -> Gf2Matrix {
        self.m4rm_convenience(rhs, false)
    }

    /// Boolean OR–AND semiring product `A·B` via M4RM — the transitive-
    /// closure kernel (XOR would cancel even path counts).
    ///
    /// # Panics
    /// Panics when `self.cols() != rhs.rows()`.
    pub fn or_mul(&self, rhs: &Gf2Matrix) -> Gf2Matrix {
        self.m4rm_convenience(rhs, true)
    }

    fn m4rm_convenience(&self, rhs: &Gf2Matrix, or_mode: bool) -> Gf2Matrix {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "mul: inner dimension mismatch ({}x{} · {}x{})",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let mut c = Gf2Matrix::zeros(self.rows(), rhs.cols());
        m4rm_acc(
            c.packed_mut().as_mut(),
            self.packed().as_ref(),
            rhs.packed().as_ref(),
            Gf2Word::ONE,
            or_mode,
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kb_heuristic_bounds() {
        assert_eq!(choose_kb(1, 1), 1);
        assert_eq!(choose_kb(0, 0), 1);
        assert!(choose_kb(64, 64) >= 3);
        assert_eq!(choose_kb(1 << 20, 1 << 20), MAX_KB);
        // Never wider than k.
        assert_eq!(choose_kb(1 << 20, 3), 3);
    }

    #[test]
    fn extract_bits_straddles_words() {
        let row = [Gf2Word(0xF000_0000_0000_0000), Gf2Word(0b1011)];
        // Bits 60..68 = high nibble of word 0 (all ones) then 0b1011.
        assert_eq!(extract_bits(&row, 60, 8), 0b1011_1111);
        assert_eq!(extract_bits(&row, 0, 4), 0);
        assert_eq!(extract_bits(&row, 64, 4), 0b1011);
    }

    #[test]
    fn m4rm_matches_naive_across_shapes_and_kb() {
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [
            (1, 1, 1),
            (5, 9, 3),
            (33, 65, 129),
            (40, 200, 70),
            (64, 64, 64),
        ] {
            let a = Gf2Matrix::random(m, k, &mut rng);
            let b = Gf2Matrix::random(k, n, &mut rng);
            assert_eq!(a.mul_m4rm(&b), a.mul_naive(&b), "xor {m}x{k}x{n}");
            assert_eq!(a.or_mul(&b), a.or_mul_naive(&b), "or {m}x{k}x{n}");
        }
    }

    #[test]
    fn m4rm_every_kb_width() {
        // Force each group width 1..=8 through the raw kernel.
        let mut rng = StdRng::seed_from_u64(8);
        let (m, k, n) = (13, 47, 90);
        let a = Gf2Matrix::random(m, k, &mut rng);
        let b = Gf2Matrix::random(k, n, &mut rng);
        let want = a.mul_naive(&b);
        let or_want = a.or_mul_naive(&b);
        for kb in 1..=MAX_KB {
            for &or_mode in &[false, true] {
                let mut c = Gf2Matrix::zeros(m, n);
                let mut tables = vec![Gf2Word::ZERO; tables_len(kb, c.stride())];
                m4rm_kb(
                    c.packed_mut().as_mut(),
                    a.packed().as_ref(),
                    b.packed().as_ref(),
                    Gf2Word::ONE,
                    or_mode,
                    kb,
                    &mut tables,
                );
                let want = if or_mode { &or_want } else { &want };
                assert_eq!(&c, want, "kb={kb} or={or_mode}");
            }
        }
    }

    #[test]
    fn accumulation_contract() {
        // C starts nonzero: XOR mode must fold into it, not overwrite.
        let mut rng = StdRng::seed_from_u64(9);
        let (m, k, n) = (10, 30, 20);
        let a = Gf2Matrix::random(m, k, &mut rng);
        let b = Gf2Matrix::random(k, n, &mut rng);
        let mut c = Gf2Matrix::random(m, n, &mut rng);
        let mut want = c.clone();
        want.xor_assign(&a.mul_naive(&b));
        m4rm_acc(
            c.packed_mut().as_mut(),
            a.packed().as_ref(),
            b.packed().as_ref(),
            Gf2Word::ONE,
            false,
        );
        assert_eq!(c, want);
    }

    #[test]
    fn alpha_masks_the_product_lanes() {
        let mut rng = StdRng::seed_from_u64(10);
        let (m, k, n) = (9, 70, 64);
        let a = Gf2Matrix::random(m, k, &mut rng);
        let b = Gf2Matrix::random(k, n, &mut rng);
        let mask = Gf2Word(0x00ff_00ff_00ff_00ff);
        let mut c = Gf2Matrix::zeros(m, n);
        m4rm_acc(
            c.packed_mut().as_mut(),
            a.packed().as_ref(),
            b.packed().as_ref(),
            mask,
            false,
        );
        let want = a.mul_naive(&b);
        for i in 0..m {
            assert_eq!(c.row_words(i)[0].0, want.row_words(i)[0].0 & mask.0);
        }
    }
}
