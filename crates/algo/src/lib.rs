//! Catalog of fast matrix multiplication algorithms (paper Table 2).
//!
//! Every entry is a verified [`fmm_tensor::Decomposition`] wrapped with
//! a name and provenance. Entries come from three sources, in order of
//! preference:
//!
//! 1. **hand-entered** literature algorithms (Strassen,
//!    Strassen–Winograd);
//! 2. **searched** coefficient files under `data/` produced by the
//!    `fmm-search` ALS tooling (the paper's §2.3.2 method) and embedded
//!    at build time;
//! 3. **derived** constructions from verified seeds via permutation,
//!    direct-sum splitting and tensor-product composition (§2.3) — the
//!    fallback when no searched file reaches the paper's rank, with the
//!    rank difference recorded in the provenance.
//!
//! Every entry is checked against the Brent equations before use (the
//! [`catalog`] once per process), so a corrupted data file cannot
//! produce silent wrong results. Discrete (dyadic-coefficient) schemes
//! are *certified* identically in ℚ via [`fmm_verify::certify_exact`] —
//! not accepted at a float tolerance — and APA instantiations go through
//! [`fmm_verify::check_apa_fit`], which replaces the old fixed-residual
//! heuristic with a rank-deficit + unique-rounding + header-agreement
//! check.

mod derive;
mod format;
mod hardcoded;

pub use derive::derive_best;
pub use format::{declared_residual, parse, serialize};
pub use hardcoded::{strassen, winograd};

use fmm_tensor::transform::permute_to;
use fmm_tensor::Decomposition;
use fmm_verify::Certify;
use std::sync::OnceLock;

mod embedded {
    include!(concat!(env!("OUT_DIR"), "/embedded.rs"));
}

/// Where a catalog algorithm came from.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// Transcribed from the literature and verified.
    HandCoded,
    /// Loaded from a searched `.alg` coefficient file (exact).
    Searched,
    /// Loaded from a searched `.alg` file with floating-point entries
    /// (exact within numerical tolerance, but not discrete).
    SearchedFloat,
    /// Derived by split/composition from seeds; the string describes
    /// the construction.
    Derived(String),
    /// Permutation (Prop. 2.1/2.2) of another entry.
    Permuted(&'static str),
    /// Approximate (APA) algorithm: exact only in the λ → 0 limit; the
    /// f64 is the Brent residual of this instantiation.
    Apa(f64),
    /// The classical algorithm.
    Classical,
}

/// A named, verified fast multiplication algorithm.
#[derive(Debug, Clone)]
pub struct FastAlgorithm {
    /// Display name, e.g. `"strassen"` or `"<4,2,4>"`.
    pub name: String,
    /// The underlying decomposition.
    pub dec: Decomposition,
    /// Provenance record.
    pub provenance: Provenance,
}

impl FastAlgorithm {
    /// Paper-style base-case label `⟨m,k,n⟩` rendered as `<m,k,n>`.
    pub fn base_label(&self) -> String {
        let (m, k, n) = self.dec.base();
        format!("<{m},{k},{n}>")
    }

    /// True when the algorithm is only approximately correct (APA).
    pub fn is_apa(&self) -> bool {
        matches!(self.provenance, Provenance::Apa(_))
    }
}

/// Tolerance below which a catalog decomposition must satisfy the Brent
/// equations to be considered exact.
pub const EXACT_TOL: f64 = 1e-9;

/// The raw `.alg` files embedded at build time, as
/// `(file_name, contents)` pairs — exposed so integration tests can
/// smoke-check every shipped coefficient file.
pub fn embedded_files() -> &'static [(&'static str, &'static str)] {
    embedded::EMBEDDED
}

fn load_embedded(m: usize, k: usize, n: usize, rank: usize) -> Option<(Decomposition, Provenance)> {
    let want = format!("searched_{m}{k}{n}_{rank}.alg");
    for (name, text) in embedded::EMBEDDED {
        if *name == want {
            let dec = parse(text).ok()?;
            if dec.base() != (m, k, n) || dec.rank() != rank {
                return None;
            }
            // Discrete schemes must survive exact ℚ certification —
            // every Brent equation identically, no tolerance. Only
            // genuinely float-fitted schemes fall back to the float
            // check.
            if dec.is_discrete(1e-9) {
                if dec.certify().is_ok() {
                    return Some((dec, Provenance::Searched));
                }
            } else if dec.verify(EXACT_TOL).is_ok() {
                return Some((dec, Provenance::SearchedFloat));
            }
            return None;
        }
    }
    None
}

fn load_apa(m: usize, k: usize, n: usize, rank: usize, label: &str) -> Option<FastAlgorithm> {
    let want = format!("apa_{m}{k}{n}_{rank}.alg");
    for (name, text) in embedded::EMBEDDED {
        if *name == want {
            let dec = parse(text).ok()?;
            if dec.base() != (m, k, n) || dec.rank() != rank {
                return None;
            }
            // Principled acceptance (fmm-verify): the fit must claim a
            // rank deficit, its residual must be < 1/2 so the matmul
            // tensor is the *unique* nearest integer tensor, and the
            // header-declared residual must match the recomputation.
            let declared = declared_residual(text)?;
            let report = fmm_verify::check_apa_fit(&dec, declared).ok()?;
            return Some(FastAlgorithm {
                name: label.to_string(),
                dec,
                provenance: Provenance::Apa(report.residual),
            });
        }
    }
    None
}

/// Seeds available to the construction optimizer: hand-coded entries
/// plus every exact searched file.
fn seeds() -> Vec<Decomposition> {
    let mut s = vec![strassen()];
    for (name, text) in embedded::EMBEDDED {
        if name.starts_with("searched_") {
            if let Ok(dec) = parse(text) {
                let exact = if dec.is_discrete(1e-9) {
                    dec.certify().is_ok()
                } else {
                    dec.verify(EXACT_TOL).is_ok()
                };
                if exact {
                    s.push(dec);
                }
            }
        }
    }
    s
}

/// The canonical Table-2 base cases and their paper ranks.
pub const TABLE2_BASES: &[((usize, usize, usize), usize)] = &[
    ((2, 2, 2), 7),
    ((2, 2, 3), 11),
    ((2, 2, 4), 14),
    ((2, 2, 5), 18),
    ((2, 3, 3), 15),
    ((2, 3, 4), 20),
    ((2, 4, 4), 26),
    ((3, 3, 3), 23),
    ((3, 3, 4), 29),
    ((3, 4, 4), 38),
    ((3, 3, 6), 40),
];

/// Catalog entry for a base case: searched file at the paper rank when
/// available and exact, otherwise the best derived construction.
pub fn by_base(m: usize, k: usize, n: usize) -> FastAlgorithm {
    let mut sorted = [m, k, n];
    sorted.sort_unstable();
    // Find the canonical (sorted) Table-2 rank target, if listed.
    let paper_rank = TABLE2_BASES
        .iter()
        .find(|((a, b, c), _)| [*a, *b, *c] == sorted)
        .map(|(_, r)| *r);

    // Canonical orientation is the sorted one; permute at the end.
    let (cm, ck, cn) = (sorted[0], sorted[1], sorted[2]);
    let canonical = if let Some(rank) = paper_rank {
        if let Some((dec, prov)) = load_embedded(cm, ck, cn, rank) {
            FastAlgorithm {
                name: format!("<{cm},{ck},{cn}>"),
                dec,
                provenance: prov,
            }
        } else {
            let (dec, how) = derive_best(cm, ck, cn, &seeds());
            FastAlgorithm {
                name: format!("<{cm},{ck},{cn}>"),
                dec,
                provenance: Provenance::Derived(how),
            }
        }
    } else {
        let (dec, how) = derive_best(cm, ck, cn, &seeds());
        FastAlgorithm {
            name: format!("<{cm},{ck},{cn}>"),
            dec,
            provenance: Provenance::Derived(how),
        }
    };

    if (cm, ck, cn) == (m, k, n) {
        canonical
    } else {
        let dec = permute_to(&canonical.dec, (m, k, n)).expect("same multiset");
        FastAlgorithm {
            name: format!("<{m},{k},{n}>"),
            dec,
            provenance: Provenance::Permuted("Prop. 2.1/2.2 permutation of canonical base"),
        }
    }
}

/// The classical algorithm as a catalog entry.
pub fn classical(m: usize, k: usize, n: usize) -> FastAlgorithm {
    FastAlgorithm {
        name: format!("classical<{m},{k},{n}>"),
        dec: fmm_tensor::compose::classical(m, k, n),
        provenance: Provenance::Classical,
    }
}

/// Bini's approximate ⟨3,2,2⟩ algorithm with 10 multiplies, loaded as a
/// numerical border-rank instantiation (see DESIGN.md substitutions).
pub fn bini_apa() -> Option<FastAlgorithm> {
    load_apa(3, 2, 2, 10, "bini")
}

/// Schönhage's approximate ⟨3,3,3⟩ algorithm with 21 multiplies, loaded
/// as a numerical border-rank instantiation.
pub fn schonhage_apa() -> Option<FastAlgorithm> {
    load_apa(3, 3, 3, 21, "schonhage")
}

/// Look an algorithm up by name:
/// `"strassen"`, `"winograd"`, `"classical"`, `"bini"`, `"schonhage"`,
/// or a base-case label like `"<4,2,4>"` / `"4,2,4"`.
pub fn by_name(name: &str) -> Option<FastAlgorithm> {
    match name {
        "strassen" => Some(FastAlgorithm {
            name: "strassen".into(),
            dec: strassen(),
            provenance: Provenance::HandCoded,
        }),
        "winograd" | "strassen-winograd" => Some(FastAlgorithm {
            name: "winograd".into(),
            dec: winograd(),
            provenance: Provenance::HandCoded,
        }),
        "bini" => bini_apa(),
        "schonhage" => schonhage_apa(),
        _ => {
            let trimmed = name.trim_start_matches('<').trim_end_matches('>');
            let dims: Vec<usize> = trimmed
                .split(',')
                .map(|t| t.trim().parse().ok())
                .collect::<Option<_>>()?;
            if dims.len() == 3 {
                Some(by_base(dims[0], dims[1], dims[2]))
            } else {
                None
            }
        }
    }
}

/// Shape-indexed catalog lookup: every exact catalog algorithm, ranked
/// for a `p × q × r` problem — best candidate first.
///
/// The paper's shape lesson (§5.3, Fig. 5/6) is that the base case
/// should mirror the problem's aspect ratio (an outer-product-shaped
/// problem wants ⟨4,2,4⟩, not Strassen), so the ranking combines the
/// log-space distance between the base-case and problem aspect ratios
/// with the per-step multiplication speedup. `fmm_core::Planner::plan`
/// reads this order when no algorithm is given: it takes the entry with
/// the highest per-step speedup, and the aspect-ratio order breaks ties.
pub fn candidates_for_shape(p: usize, q: usize, r: usize) -> Vec<FastAlgorithm> {
    let aspect = |x: usize, y: usize| (x.max(1) as f64 / y.max(1) as f64).ln();
    let mut entries = catalog();
    let score = |a: &FastAlgorithm| {
        let (m, k, n) = a.dec.base();
        let mismatch = (aspect(p, q) - aspect(m, k)).abs() + (aspect(q, r) - aspect(k, n)).abs();
        // Lower is better: each unit of log-aspect mismatch outweighs
        // the typical 10–30% per-step speedup spread.
        mismatch - a.dec.speedup_per_step()
    };
    entries.sort_by(|x, y| {
        score(x)
            .partial_cmp(&score(y))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    entries
}

/// All canonical Table-2 algorithms (exact entries only). Built and
/// checked once per process; every call returns a copy.
pub fn catalog() -> Vec<FastAlgorithm> {
    static CATALOG: OnceLock<Vec<FastAlgorithm>> = OnceLock::new();
    CATALOG
        .get_or_init(|| {
            let mut out = vec![by_name("strassen").unwrap(), by_name("winograd").unwrap()];
            for ((m, k, n), _) in TABLE2_BASES {
                if (*m, *k, *n) == (2, 2, 2) {
                    continue; // strassen already included
                }
                out.push(by_base(*m, *k, *n));
            }
            out
        })
        .clone()
}

/// The level schedule of the composed ⟨54,54,54⟩ algorithm of §5.2:
/// ⟨3,3,6⟩ at level 0, ⟨3,6,3⟩ at level 1, ⟨6,3,3⟩ at level 2. Its
/// square-multiplication exponent is `3·log₅₄(R³) = 3·log₅₄ R` per
/// step — ω ≈ 2.775 with the paper's rank-40 ⟨3,3,6⟩.
pub fn schedule_54() -> Vec<Decomposition> {
    let a336 = by_base(3, 3, 6).dec;
    let a363 = permute_to(&a336, (3, 6, 3)).expect("permutation");
    let a633 = permute_to(&a336, (6, 3, 3)).expect("permutation");
    vec![a336, a363, a633]
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Base-case label.
    pub base: String,
    /// Fast rank (number of multiplies).
    pub fast_multiplies: usize,
    /// Classical multiply count `m·k·n`.
    pub classical_multiplies: usize,
    /// Speedup per recursive step, percent.
    pub speedup_percent: f64,
    /// Provenance note (searched / derived / hand-coded).
    pub provenance: String,
}

/// Generate Table 2 from the live catalog (plus APA rows when their
/// data files exist).
pub fn table2() -> Vec<Table2Row> {
    let mut rows: Vec<Table2Row> = catalog()
        .into_iter()
        .filter(|a| a.name != "winograd")
        .map(|a| Table2Row {
            base: a.base_label(),
            fast_multiplies: a.dec.rank(),
            classical_multiplies: a.dec.classical_rank(),
            speedup_percent: a.dec.speedup_per_step() * 100.0,
            provenance: format!("{:?}", a.provenance),
        })
        .collect();
    for apa in [bini_apa(), schonhage_apa()].into_iter().flatten() {
        rows.push(Table2Row {
            base: format!("{}*", apa.base_label()),
            fast_multiplies: apa.dec.rank(),
            classical_multiplies: apa.dec.classical_rank(),
            speedup_percent: apa.dec.speedup_per_step() * 100.0,
            provenance: format!("{:?}", apa.provenance),
        });
    }
    rows.sort_by(|a, b| {
        a.speedup_percent
            .partial_cmp(&b.speedup_percent)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_entries_all_certify_exactly() {
        for alg in catalog() {
            let cert = alg
                .dec
                .certify()
                .unwrap_or_else(|e| panic!("{} failed exact certification: {e}", alg.name));
            assert_eq!(cert.rank, alg.dec.rank());
        }
    }

    #[test]
    fn apa_entries_load_under_principled_acceptance() {
        // Both shipped APA fits satisfy rank-deficit + unique-rounding
        // + header agreement. (schonhage, residual ≈ 0.356, was
        // silently rejected by the old `> 0.25` magic number.)
        let bini = bini_apa().expect("bini APA fit must load");
        let sch = schonhage_apa().expect("schonhage APA fit must load");
        for (alg, max) in [(&bini, 1e-2), (&sch, 0.5)] {
            match alg.provenance {
                Provenance::Apa(r) => assert!(r < max, "{}: residual {r}", alg.name),
                ref other => panic!("unexpected provenance {other:?}"),
            }
            assert!(alg.dec.rank() < alg.dec.classical_rank());
        }
    }

    #[test]
    fn catalog_ranks_beat_classical() {
        for alg in catalog() {
            assert!(
                alg.dec.rank() < alg.dec.classical_rank(),
                "{} rank {} !< {}",
                alg.name,
                alg.dec.rank(),
                alg.dec.classical_rank()
            );
        }
    }

    #[test]
    fn by_name_variants() {
        assert_eq!(by_name("strassen").unwrap().dec.rank(), 7);
        assert_eq!(by_name("winograd").unwrap().dec.rank(), 7);
        let a = by_name("<4,2,4>").unwrap();
        assert_eq!(a.dec.base(), (4, 2, 4));
        a.dec.verify(EXACT_TOL).unwrap();
        let b = by_name("4,2,4").unwrap();
        assert_eq!(b.dec.base(), (4, 2, 4));
        assert!(by_name("nonsense").is_none());
    }

    #[test]
    fn permuted_entries_share_rank_with_canonical() {
        let canon = by_base(2, 2, 4);
        for target in [(4, 2, 2), (2, 4, 2), (4, 2, 2)] {
            let p = by_base(target.0, target.1, target.2);
            assert_eq!(p.dec.rank(), canon.dec.rank());
            p.dec.verify(EXACT_TOL).unwrap();
        }
    }

    #[test]
    fn known_fixed_ranks() {
        assert_eq!(by_base(2, 2, 3).dec.rank(), 11);
        assert_eq!(by_base(2, 2, 4).dec.rank(), 14);
        assert_eq!(by_base(2, 2, 5).dec.rank(), 18);
        // Flip-graph-searched scheme (crates/algo/data/searched_233_15.alg)
        // and the derived entries it improves.
        assert_eq!(by_base(2, 3, 3).dec.rank(), 15);
        assert!(by_base(3, 3, 3).dec.rank() <= 24);
        assert!(by_base(3, 3, 6).dec.rank() <= 45);
    }

    #[test]
    fn table2_is_sorted_by_speedup_and_nonempty() {
        let rows = table2();
        assert!(rows.len() >= 11);
        for w in rows.windows(2) {
            assert!(w[0].speedup_percent <= w[1].speedup_percent + 1e-12);
        }
    }

    #[test]
    fn schedule_54_composes_to_54_cubed() {
        let sched = schedule_54();
        assert_eq!(sched[0].base(), (3, 3, 6));
        assert_eq!(sched[1].base(), (3, 6, 3));
        assert_eq!(sched[2].base(), (6, 3, 3));
        let m: usize = sched.iter().map(|d| d.m).product();
        let k: usize = sched.iter().map(|d| d.k).product();
        let n: usize = sched.iter().map(|d| d.n).product();
        assert_eq!((m, k, n), (54, 54, 54));
        for d in &sched {
            d.verify(EXACT_TOL).unwrap();
        }
    }

    #[test]
    fn candidates_for_shape_rank_by_fit() {
        // Square problems: a square base case with the best speedup
        // should lead, and every catalog entry must be present.
        let square = candidates_for_shape(1024, 1024, 1024);
        assert_eq!(square.len(), catalog().len());
        let (m, k, n) = square[0].dec.base();
        assert_eq!((m, k), (k, n), "square problem wants a square base");

        // Outer-product shape (large p, r; small q): the leader should
        // have its small dimension in the middle, like ⟨4,2,4⟩.
        let outer = candidates_for_shape(2000, 100, 2000);
        let (m, k, n) = outer[0].dec.base();
        assert!(
            k <= m && k <= n,
            "outer-product shape wants <{m},{k},{n}> with small k"
        );
    }

    #[test]
    fn classical_entry_rank() {
        let c = classical(3, 2, 4);
        assert_eq!(c.dec.rank(), 24);
        assert!(matches!(c.provenance, Provenance::Classical));
    }
}
