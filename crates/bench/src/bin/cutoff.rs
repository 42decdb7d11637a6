//! §3.4 evidence: a measured depth sweep. Times sequential Strassen at
//! depths 0–4 over several square sizes, so the depth that wins at each
//! size is read off the measurements (the "only recurse on the flat
//! part of the gemm curve" lesson), not predicted by a model.

use fmm_bench::*;
use fmm_core::Options;

fn main() {
    let cfg = HarnessConfig::from_args();
    let sizes: Vec<usize> = if cfg.quick {
        vec![128, 256, 512, 768]
    } else {
        vec![256, 512, 1024, 2048]
    };
    let s = fmm_algo::strassen();
    println!("n,steps,seconds,effective_gflops");
    for &n in &sizes {
        for steps in 0..=4usize {
            let m = measure_fast(
                "cutoff",
                "strassen",
                &s,
                n,
                n,
                n,
                1,
                &[steps],
                Options::default(),
                cfg.trials,
            );
            println!("{n},{steps},{:.6},{:.3}", m.seconds, m.effective_gflops);
        }
    }
}
