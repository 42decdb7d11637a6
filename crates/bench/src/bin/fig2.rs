//! Figure 2: the three addition strategies (pairwise / write-once /
//! streaming) with and without CSE, for ⟨4,2,4⟩ on an outer-product
//! shape and ⟨4,2,3⟩ on square problems, at one and two recursive steps.

use fmm_bench::*;
use fmm_core::{AdditionMethod, Options};

fn main() {
    let cfg = HarnessConfig::from_args();
    let k_fixed = if cfg.quick { 512 } else { 1600 };
    let sizes: Vec<usize> = if cfg.quick {
        vec![256, 384, 512, 768]
    } else {
        vec![512, 1024, 1536, 2048]
    };
    let a424 = fmm_algo::by_name("<4,2,4>").unwrap();
    let a423 = fmm_algo::by_name("<4,2,3>").unwrap();
    let variants = [
        ("write-once", AdditionMethod::WriteOnce, false),
        ("write-once+CSE", AdditionMethod::WriteOnce, true),
        ("streaming", AdditionMethod::Streaming, false),
        ("streaming+CSE", AdditionMethod::Streaming, true),
        ("pairwise", AdditionMethod::Pairwise, false),
        ("pairwise+CSE", AdditionMethod::Pairwise, true),
    ];
    let mut rows = Vec::new();
    for steps in [1usize, 2] {
        for &n in &sizes {
            for (vname, additions, cse) in variants {
                let opts = Options {
                    additions,
                    cse,
                    ..Default::default()
                };
                let mut m = measure_fast(
                    &format!("fig2-424-{steps}step"),
                    &format!("<4,2,4> {vname}"),
                    &a424.dec,
                    n,
                    k_fixed,
                    n,
                    1,
                    &[steps],
                    opts,
                    cfg.trials,
                );
                m.steps = steps;
                rows.push(m);
                let mut m = measure_fast(
                    &format!("fig2-423-{steps}step"),
                    &format!("<4,2,3> {vname}"),
                    &a423.dec,
                    n,
                    n,
                    n,
                    1,
                    &[steps],
                    opts,
                    cfg.trials,
                );
                m.steps = steps;
                rows.push(m);
            }
        }
    }
    emit(&cfg, &rows);
}
