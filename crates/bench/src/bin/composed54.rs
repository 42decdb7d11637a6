//! §5.2: the composed ⟨54,54,54⟩ algorithm — asymptotically the
//! fastest implemented (ω₀ ≈ 2.775 with rank-40 ⟨3,3,6⟩), but not
//! practical at modest sizes. Compares the three-level schedule
//! against Strassen and the classical baseline.

use fmm_bench::*;
use fmm_matrix::Matrix;

fn main() {
    let cfg = HarnessConfig::from_args();
    let sizes: Vec<usize> = if cfg.quick {
        vec![216, 324, 432]
    } else {
        vec![324, 540, 756, 1080]
    };
    let sched = fmm_algo::schedule_54();
    let strassen = fmm_algo::strassen();
    // One sequential engine pinned to the composed schedule serves
    // every problem size; its plan cache keeps each size's plan.
    let engine = fmm_core::FmmEngine::builder()
        .threads(1)
        .schedule(&sched)
        .build()
        .expect("engine");
    let mut rows = Vec::new();
    for &n in &sizes {
        rows.push(measure_classical("composed54", n, n, n, 1, cfg.trials));
        rows.push(measure_fast(
            "composed54",
            "strassen",
            &strassen,
            n,
            n,
            n,
            1,
            &[1, 2, 3],
            Default::default(),
            cfg.trials,
        ));
        // The full three-level schedule behind the engine front door:
        // the warm-up call plans the shape and sizes a pooled
        // workspace, so the timed region is cache-hit serving on a
        // pooled arena.
        let (a, b) = workload(n, n, n, 42);
        let mut c = Matrix::zeros(n, n);
        engine.multiply_into(&a, &b, &mut c).expect("warm-up");
        let secs = time_median(
            || engine.multiply_into(&a, &b, &mut c).expect("serve"),
            cfg.trials,
        );
        rows.push(Measurement {
            experiment: "composed54".into(),
            algorithm: "<54,54,54> (336∘363∘633)".into(),
            p: n,
            q: n,
            r: n,
            threads: 1,
            steps: 3,
            seconds: secs,
            effective_gflops: fmm_gemm::effective_gflops(n, n, n, secs),
        });
    }
    let rank: usize = sched.iter().map(|d| d.rank()).product();
    eprintln!(
        "schedule rank {rank} → ω₀ = {:.3}",
        3.0 * (rank as f64).ln() / (54.0f64 * 54.0 * 54.0).ln()
    );
    emit(&cfg, &rows);
}
