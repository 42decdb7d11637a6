//! Rust code generation for fast algorithms (§3.1).
//!
//! The paper's framework *generates* one source file per algorithm so
//! every addition chain is a straight-line, fully-unrolled kernel. This
//! module is the equivalent backend for Rust: given a verified
//! [`Decomposition`], [`generate_rust`] emits a standalone recursive
//! function with
//!
//! * unrolled operand-block bindings,
//! * write-once addition chains with literal coefficients (CSE
//!   temporaries included when enabled),
//! * the singleton-column scale piping of §3.1 (scales are folded into
//!   the literal output coefficients at generation time), and
//! * dynamic peeling (§3.5) around the divisible core.
//!
//! The generated code depends only on `fmm_matrix` and `fmm_gemm`. A
//! generated Strassen implementation is committed under
//! `tests/generated/` and compiled as part of the integration suite, so
//! generator drift is caught by `cargo test`.

use crate::plan::{side_plan, SidePlan, Var};
use fmm_tensor::Decomposition;
use std::fmt::Write as _;

/// Format a coefficient as a Rust f64 literal.
fn lit(x: f64) -> String {
    if x == x.round() && x.abs() < 1e9 {
        format!("{:.1}", x)
    } else {
        format!("{x:.17}")
    }
}

fn chain_terms(
    plan: &SidePlan,
    r: usize,
    block_name: impl Fn(usize) -> String,
    temp_prefix: &str,
) -> String {
    plan.chains[r]
        .iter()
        .map(|&(v, coef)| match v {
            Var::Block(b) => format!("({}, {})", lit(coef), block_name(b)),
            Var::Temp(t) => format!("({}, {temp_prefix}{t}.as_ref())", lit(coef)),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn emit_temps(
    out: &mut String,
    plan: &SidePlan,
    rows: &str,
    cols: &str,
    block_name: impl Fn(usize) -> String,
    temp_prefix: &str,
) {
    for (t, def) in plan.temps.iter().enumerate() {
        let terms: Vec<String> = def
            .iter()
            .map(|&(v, coef)| match v {
                Var::Block(b) => format!("({}, {})", lit(coef), block_name(b)),
                Var::Temp(tt) => format!("({}, {temp_prefix}{tt}.as_ref())", lit(coef)),
            })
            .collect();
        let _ = writeln!(
            out,
            "        let mut {temp_prefix}{t} = Matrix::zeros({rows}, {cols});\n        \
             kernels::lincomb({temp_prefix}{t}.as_mut(), 0.0, &[{}]);",
            terms.join(", ")
        );
    }
}

/// Generate a standalone Rust module implementing `dec` as a recursive
/// function named `fn_name`. Uses write-once additions; set `cse` to
/// emit shared length-2 subexpression temporaries.
pub fn generate_rust(dec: &Decomposition, fn_name: &str, cse: bool) -> String {
    const TOL: f64 = 1e-14;
    let (m, k, n) = dec.base();
    let rank = dec.rank();
    let uplan = side_plan(&dec.u, cse, TOL);
    let vplan = side_plan(&dec.v, cse, TOL);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "// @generated by fmm_core::codegen::generate_rust — do not edit.\n\
         // Algorithm: <{m},{k},{n}> with {rank} multiplies ({} additions without CSE).\n\
         use fmm_matrix::{{kernels, MatMut, MatRef, Matrix}};\n\
         use fmm_gemm::gemm;\n",
        dec.addition_count(TOL)
    );
    let _ = writeln!(
        out,
        "/// `C = A · B` with `steps` recursive applications of the\n\
         /// <{m},{k},{n}> fast algorithm (classical gemm below that).\n\
         #[allow(clippy::too_many_lines, clippy::erasing_op, clippy::identity_op, unused_mut)]\n\
         pub fn {fn_name}(a: MatRef<'_>, b: MatRef<'_>, mut c: MatMut<'_>, steps: usize) {{\n\
         \x20   let (p, q, r) = (a.rows(), a.cols(), b.cols());\n\
         \x20   if steps == 0 || p < {m} || q < {k} || r < {n} {{\n\
         \x20       gemm(1.0, a, b, 0.0, c);\n\
         \x20       return;\n\
         \x20   }}\n\
         \x20   let (p1, q1, r1) = (p - p % {m}, q - q % {k}, r - r % {n});\n\
         \x20   let (bm, bk, bn) = (p1 / {m}, q1 / {k}, r1 / {n});"
    );

    // Core fast step.
    let _ = writeln!(out, "    {{");
    let _ = writeln!(
        out,
        "        let ca = a.block(0, 0, p1, q1);\n        let cb = b.block(0, 0, q1, r1);"
    );
    // Operand block bindings.
    for i in 0..m {
        for p_ in 0..k {
            let _ = writeln!(
                out,
                "        let a_{i}_{p_} = ca.block({i} * bm, {p_} * bk, bm, bk);"
            );
        }
    }
    for p_ in 0..k {
        for j in 0..n {
            let _ = writeln!(
                out,
                "        let b_{p_}_{j} = cb.block({p_} * bk, {j} * bn, bk, bn);"
            );
        }
    }
    let a_name = |b: usize| format!("a_{}_{}", b / k, b % k);
    let b_name = |b: usize| format!("b_{}_{}", b / n, b % n);
    emit_temps(&mut out, &uplan, "bm", "bk", a_name, "ut");
    emit_temps(&mut out, &vplan, "bk", "bn", b_name, "vt");

    // Multiplications.
    let mut scales = vec![1.0f64; rank];
    for (r_, scale_acc) in scales.iter_mut().enumerate() {
        let _ = writeln!(out, "        // M{r_}");
        let s_expr = match uplan.passthrough[r_] {
            Some((b, scale)) => {
                *scale_acc *= scale;
                a_name(b)
            }
            None => {
                let _ = writeln!(
                    out,
                    "        let mut s{r_} = Matrix::zeros(bm, bk);\n        \
                     kernels::lincomb(s{r_}.as_mut(), 0.0, &[{}]);",
                    chain_terms(&uplan, r_, a_name, "ut")
                );
                format!("s{r_}.as_ref()")
            }
        };
        let t_expr = match vplan.passthrough[r_] {
            Some((b, scale)) => {
                *scale_acc *= scale;
                b_name(b)
            }
            None => {
                let _ = writeln!(
                    out,
                    "        let mut t{r_} = Matrix::zeros(bk, bn);\n        \
                     kernels::lincomb(t{r_}.as_mut(), 0.0, &[{}]);",
                    chain_terms(&vplan, r_, b_name, "vt")
                );
                format!("t{r_}.as_ref()")
            }
        };
        let _ = writeln!(
            out,
            "        let mut m{r_} = Matrix::zeros(bm, bn);\n        \
             {fn_name}({s_expr}, {t_expr}, m{r_}.as_mut(), steps - 1);"
        );
    }

    // Output combinations with scales folded into literal coefficients.
    for i in 0..m {
        for j in 0..n {
            let row = i * n + j;
            let terms: Vec<String> = (0..rank)
                .filter(|&r_| dec.w[(row, r_)].abs() > TOL)
                .map(|r_| format!("({}, m{r_}.as_ref())", lit(dec.w[(row, r_)] * scales[r_])))
                .collect();
            let _ = writeln!(
                out,
                "        kernels::lincomb(c.reborrow().into_block({i} * bm, {j} * bn, bm, bn), 0.0, &[{}]);",
                terms.join(", ")
            );
        }
    }
    let _ = writeln!(out, "    }}");

    // Dynamic peeling fix-ups.
    let _ = writeln!(
        out,
        "    // Dynamic peeling (§3.5): thin classical fix-up products.\n\
         \x20   let (dp, dq, dr) = (p - p1, q - q1, r - r1);\n\
         \x20   if dq > 0 {{\n\
         \x20       gemm(1.0, a.block(0, q1, p1, dq), b.block(q1, 0, dq, r1), 1.0, c.reborrow().into_block(0, 0, p1, r1));\n\
         \x20   }}\n\
         \x20   if dr > 0 {{\n\
         \x20       gemm(1.0, a.block(0, 0, p1, q1), b.block(0, r1, q1, dr), 0.0, c.reborrow().into_block(0, r1, p1, dr));\n\
         \x20       if dq > 0 {{\n\
         \x20           gemm(1.0, a.block(0, q1, p1, dq), b.block(q1, r1, dq, dr), 1.0, c.reborrow().into_block(0, r1, p1, dr));\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   if dp > 0 {{\n\
         \x20       gemm(1.0, a.block(p1, 0, dp, q1), b.block(0, 0, q1, r1), 0.0, c.reborrow().into_block(p1, 0, dp, r1));\n\
         \x20       if dq > 0 {{\n\
         \x20           gemm(1.0, a.block(p1, q1, dp, dq), b.block(q1, 0, dq, r1), 1.0, c.reborrow().into_block(p1, 0, dp, r1));\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   if dp > 0 && dr > 0 {{\n\
         \x20       gemm(1.0, a.block(p1, 0, dp, q1), b.block(0, r1, q1, dr), 0.0, c.reborrow().into_block(p1, r1, dp, dr));\n\
         \x20       if dq > 0 {{\n\
         \x20           gemm(1.0, a.block(p1, q1, dp, dq), b.block(q1, r1, dq, dr), 1.0, c.reborrow().into_block(p1, r1, dp, dr));\n\
         \x20       }}\n\
         \x20   }}\n\
         }}"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_algo::strassen;
    use fmm_matrix::Matrix;

    #[test]
    fn generated_code_has_expected_structure() {
        let src = generate_rust(&strassen(), "strassen_gen", false);
        // 7 recursive multiplies + recursion header.
        assert_eq!(src.matches("strassen_gen(").count(), 7 + 1); // 7 recursive calls + the definition
        assert!(src.contains("pub fn strassen_gen"));
        assert!(src.contains("let mut m6"));
        assert!(!src.contains("let mut m7"), "rank 7 → m0..m6 only");
        // Strassen has 4 singleton columns on the U side (S3=A11, S4=A22)
        // and V side (T2=B11, T5=B22): passthrough views, no temp alloc.
        assert!(src.contains("strassen_gen(a_0_0, "));
        assert!(src.contains("b_1_1, "));
        // peeling section present
        assert!(src.contains("Dynamic peeling"));
    }

    #[test]
    fn generated_code_folds_scales_into_outputs() {
        // An algorithm with a scaled singleton column: classical 1x1x1
        // scaled by the Prop-2.3 diagonal transform.
        let c = fmm_tensor::compose::classical(1, 1, 1);
        let scaled = fmm_tensor::transform::scale_columns(&c, &[2.0], &[4.0], &[0.125]);
        scaled.verify(1e-12).unwrap();
        let src = generate_rust(&scaled, "one_gen", false);
        // u-scale 2 and v-scale 4 must fold into the W coefficient 0.125:
        // 0.125 * 2 * 4 = 1.0.
        assert!(src.contains("(1.0, m0.as_ref())"), "{src}");
    }

    #[test]
    fn cse_flag_emits_temps_when_profitable() {
        // Three chains sharing (b0+b1) — CSE should emit a `ut0` temp.
        let mut u = Matrix::zeros(4, 3);
        for c in 0..3 {
            u[(0, c)] = 1.0;
            u[(1, c)] = 1.0;
        }
        u[(2, 0)] = 1.0;
        u[(3, 1)] = -1.0;
        // build a (nonsense but shape-valid) decomposition for codegen
        let v = Matrix::filled(4, 3, 1.0);
        let w = Matrix::filled(4, 3, 1.0);
        let dec = Decomposition::new(2, 2, 2, u, v, w);
        let src = generate_rust(&dec, "cse_gen", true);
        assert!(src.contains("let mut ut0"), "{src}");
    }
}
