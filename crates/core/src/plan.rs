//! Addition plans: how the `S_r`, `T_r` and `C_ij` linear combinations
//! are evaluated, including greedy length-2 common subexpression
//! elimination (paper §3.3).

use fmm_matrix::Matrix;
use std::cmp::Reverse;
use std::collections::HashMap;

/// A variable in an addition chain: either an original operand block or
/// a temporary produced by CSE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Var {
    /// Index of an operand sub-block (row index of U or V; row-major).
    Block(usize),
    /// Index into the plan's temporary list.
    Temp(usize),
}

/// One linear combination `Σ coefᵢ · varᵢ`.
pub type Chain = Vec<(Var, f64)>;

/// Evaluation plan for one side (U ⇒ all `S_r`, V ⇒ all `T_r`).
#[derive(Debug, Clone)]
pub struct SidePlan {
    /// CSE temporaries, in evaluation order (a temp may reference
    /// earlier temps).
    pub temps: Vec<Chain>,
    /// One chain per multiplication `r`; `chains[r]` forms `S_r`/`T_r`.
    pub chains: Vec<Chain>,
    /// For chains that are a single scaled block (`nnz = 1`) the
    /// executor skips the temporary entirely and pipes the scale through
    /// to the output combination (paper §3.1). `passthrough[r]` is
    /// `Some((block, scale))` in that case.
    pub passthrough: Vec<Option<(usize, f64)>>,
}

impl SidePlan {
    /// Number of scalar-block additions this plan performs
    /// (each chain of `z` terms costs `z − 1`; each temp costs its
    /// length − 1).
    pub fn addition_count(&self) -> usize {
        let chain_adds: usize = self.chains.iter().map(|c| c.len().saturating_sub(1)).sum();
        let temp_adds: usize = self.temps.iter().map(|t| t.len().saturating_sub(1)).sum();
        chain_adds + temp_adds
    }

    /// Number of CSE temporaries.
    pub fn temp_count(&self) -> usize {
        self.temps.len()
    }
}

/// Build the plan for one factor matrix: chains are its columns.
///
/// With `cse = true`, greedily eliminate the most frequent length-2
/// subexpression (a pair of variables with a fixed coefficient ratio)
/// until no pair occurs at least twice, exactly the greedy scheme whose
/// savings the paper reports in Table 3.
pub fn side_plan(factor: &Matrix, cse: bool, tol: f64) -> SidePlan {
    let rank = factor.cols();
    let mut chains: Vec<Chain> = (0..rank)
        .map(|c| {
            (0..factor.rows())
                .filter(|&i| factor[(i, c)].abs() > tol)
                .map(|i| (Var::Block(i), factor[(i, c)]))
                .collect()
        })
        .collect();
    let mut temps: Vec<Chain> = Vec::new();

    if cse {
        while let Some(((va, vb, ratio), count)) = most_frequent_pair(&chains) {
            if count < 2 {
                break;
            }
            // New temp Y = va + ratio·vb.
            let y = Var::Temp(temps.len());
            temps.push(vec![(va, 1.0), (vb, ratio)]);
            for chain in &mut chains {
                rewrite_chain(chain, va, vb, ratio, y);
            }
        }
    }

    let passthrough = chains
        .iter()
        .map(|c| match c.as_slice() {
            [(Var::Block(b), coef)] => Some((*b, *coef)),
            _ => None,
        })
        .collect();

    SidePlan {
        temps,
        chains,
        passthrough,
    }
}

/// Key identifying a subexpression up to scale: ordered variable pair
/// plus the bits of the exact coefficient ratio `coef_b / coef_a`.
/// Only pairs whose ratios are bitwise equal share a temporary, so CSE
/// never changes the bilinear map, whatever the coefficients.
fn pair_key(va: Var, ca: f64, vb: Var, cb: f64) -> (Var, Var, u64) {
    (va, vb, (cb / ca).to_bits())
}

/// The pair occurring most often, ties going to the smallest ratio
/// magnitude and then to the largest key: a total order, so the plan
/// does not depend on the map's iteration order.
fn most_frequent_pair(chains: &[Chain]) -> Option<((Var, Var, f64), usize)> {
    let mut counts: HashMap<(Var, Var, u64), usize> = HashMap::new();
    for chain in chains {
        for x in 0..chain.len() {
            for y in x + 1..chain.len() {
                let (va, ca) = chain[x];
                let (vb, cb) = chain[y];
                *counts.entry(pair_key(va, ca, vb, cb)).or_insert(0) += 1;
            }
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(key, c)| {
            let magnitude = f64::from_bits(key.2).abs().to_bits();
            (c, Reverse(magnitude), key)
        })
        .map(|((va, vb, bits), c)| ((va, vb, f64::from_bits(bits)), c))
}

/// Replace `ca·va + ca·ratio·vb` by `ca·y` in `chain` when present.
fn rewrite_chain(chain: &mut Chain, va: Var, vb: Var, ratio: f64, y: Var) {
    let pos_a = chain.iter().position(|&(v, _)| v == va);
    let pos_b = chain.iter().position(|&(v, _)| v == vb);
    if let (Some(ia), Some(ib)) = (pos_a, pos_b) {
        let ca = chain[ia].1;
        let cb = chain[ib].1;
        if (cb / ca).to_bits() == ratio.to_bits() {
            chain[ia] = (y, ca);
            chain.remove(ib);
        }
    }
}

/// CSE statistics for Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CseStats {
    /// Additions in S/T formation without CSE.
    pub original_adds: usize,
    /// Additions with CSE (including temp formation).
    pub cse_adds: usize,
    /// Number of length-2 subexpressions eliminated.
    pub subexpressions: usize,
}

impl CseStats {
    /// `original − cse`, the "Additions saved" column of Table 3.
    pub fn saved(&self) -> usize {
        self.original_adds.saturating_sub(self.cse_adds)
    }
}

/// Compute Table-3-style CSE statistics for the S and T chains of an
/// algorithm's U and V factors.
pub fn cse_stats(u: &Matrix, v: &Matrix, tol: f64) -> CseStats {
    let before =
        side_plan(u, false, tol).addition_count() + side_plan(v, false, tol).addition_count();
    let up = side_plan(u, true, tol);
    let vp = side_plan(v, true, tol);
    CseStats {
        original_adds: before,
        cse_adds: up.addition_count() + vp.addition_count(),
        subexpressions: up.temp_count() + vp.temp_count(),
    }
}

/// Plan for the output side: one chain per output block `C_ij`, built
/// from the *rows* of W. No CSE is applied on the output side (the
/// paper's Table 3 covers S/T formation only).
pub fn output_plan(w: &Matrix, tol: f64) -> Vec<Vec<(usize, f64)>> {
    (0..w.rows())
        .map(|i| {
            (0..w.cols())
                .filter(|&r| w[(i, r)].abs() > tol)
                .map(|r| (r, w[(i, r)]))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn plan_without_cse_mirrors_columns() {
        let u = mat(&[&[1.0, 0.0], &[-1.0, 2.0], &[0.0, 0.0], &[0.0, 1.0]]);
        let p = side_plan(&u, false, 1e-12);
        assert_eq!(p.chains.len(), 2);
        assert_eq!(
            p.chains[0],
            vec![(Var::Block(0), 1.0), (Var::Block(1), -1.0)]
        );
        assert_eq!(
            p.chains[1],
            vec![(Var::Block(1), 2.0), (Var::Block(3), 1.0)]
        );
        assert_eq!(p.addition_count(), 2);
        assert!(p.passthrough.iter().all(|x| x.is_none()));
    }

    #[test]
    fn passthrough_detected_for_singletons() {
        let u = mat(&[&[1.0, 0.0], &[0.0, -2.0]]);
        let p = side_plan(&u, false, 1e-12);
        assert_eq!(p.passthrough[0], Some((0, 1.0)));
        assert_eq!(p.passthrough[1], Some((1, -2.0)));
        assert_eq!(p.addition_count(), 0);
    }

    #[test]
    fn cse_eliminates_repeated_pair() {
        // Three columns all containing (b0 + b1); like T11/T25 in §3.3.
        let u = mat(&[
            &[1.0, 1.0, 2.0],
            &[1.0, 1.0, 2.0],
            &[1.0, 0.0, 0.0],
            &[0.0, -1.0, 0.0],
        ]);
        let p = side_plan(&u, true, 1e-12);
        assert_eq!(p.temps.len(), 1);
        assert_eq!(p.temps[0], vec![(Var::Block(0), 1.0), (Var::Block(1), 1.0)]);
        // chains: col0 = temp + b2 (1 add), col1 = temp - b3 (1 add),
        // col2 = 2*temp (0 adds) → 2 + 1 temp add = 3 vs original 2+2+1=5.
        assert_eq!(p.addition_count(), 3);
        let no = side_plan(&u, false, 1e-12);
        assert_eq!(no.addition_count(), 5);
    }

    #[test]
    fn cse_respects_coefficient_ratio() {
        // col0 has b0 + b1, col1 has b0 - b1: different ratios, no CSE.
        let u = mat(&[&[1.0, 1.0], &[1.0, -1.0]]);
        let p = side_plan(&u, true, 1e-12);
        assert!(p.temps.is_empty());
    }

    #[test]
    fn cse_matches_scaled_occurrences() {
        // col0 = b0 + b1, col1 = -b0 - b1 = -(b0 + b1): same ratio +1.
        let u = mat(&[&[1.0, -1.0], &[1.0, -1.0]]);
        let p = side_plan(&u, true, 1e-12);
        assert_eq!(p.temps.len(), 1);
        // both chains become a single scaled temp → 1 temp add total
        assert_eq!(p.addition_count(), 1);
        // and they are NOT passthrough (temp is not an original block)
        assert!(p.passthrough.iter().all(|x| x.is_none()));
    }

    #[test]
    fn strassen_has_no_length2_cse() {
        // Strassen's U: no repeated length-2 subexpression occurs twice.
        let u = mat(&[
            &[1., 0., 1., 0., 1., -1., 0.],
            &[0., 0., 0., 0., 1., 0., 1.],
            &[0., 1., 0., 0., 0., 1., 0.],
            &[1., 1., 0., 1., 0., 0., -1.],
        ]);
        let p = side_plan(&u, true, 1e-12);
        assert_eq!(p.temps.len(), 0);
        assert_eq!(p.addition_count(), 5);
    }

    #[test]
    fn output_plan_reads_rows() {
        let w = mat(&[&[1.0, 0.0, -1.0], &[0.0, 2.0, 0.0]]);
        let p = output_plan(&w, 1e-12);
        assert_eq!(p[0], vec![(0, 1.0), (2, -1.0)]);
        assert_eq!(p[1], vec![(1, 2.0)]);
    }

    #[test]
    fn cse_stats_report() {
        let u = mat(&[
            &[1.0, 1.0, 2.0],
            &[1.0, 1.0, 2.0],
            &[1.0, 0.0, 0.0],
            &[0.0, -1.0, 0.0],
        ]);
        let v = mat(&[&[1.0], &[0.0]]);
        let s = cse_stats(&u, &v, 1e-12);
        assert_eq!(s.original_adds, 5);
        assert_eq!(s.cse_adds, 3);
        assert_eq!(s.subexpressions, 1);
        assert_eq!(s.saved(), 2);
    }

    #[test]
    fn temps_can_chain_recursively() {
        // Four columns sharing (b0+b1), two also sharing ((b0+b1)+b2).
        let u = mat(&[
            &[1.0, 1.0, 1.0, 1.0],
            &[1.0, 1.0, 1.0, 1.0],
            &[1.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0, 1.0],
        ]);
        let p = side_plan(&u, true, 1e-12);
        assert!(!p.temps.is_empty());
        // Evaluating the plan must still reproduce each original column —
        // expand chains symbolically and compare.
        let expand = |p: &SidePlan, chain: &Chain| -> Vec<f64> {
            fn add_into(p: &SidePlan, acc: &mut Vec<f64>, var: Var, coef: f64) {
                match var {
                    Var::Block(b) => acc[b] += coef,
                    Var::Temp(t) => {
                        let def = p.temps[t].clone();
                        for (v, c) in def {
                            add_into(p, acc, v, coef * c);
                        }
                    }
                }
            }
            let mut acc = vec![0.0; 4];
            for &(v, c) in chain {
                add_into(p, &mut acc, v, c);
            }
            acc
        };
        for (col, chain) in p.chains.iter().enumerate() {
            let got = expand(&p, chain);
            for row in 0..4 {
                assert!(
                    (got[row] - u[(row, col)]).abs() < 1e-12,
                    "column {col} row {row}: {} vs {}",
                    got[row],
                    u[(row, col)]
                );
            }
        }
    }
}
