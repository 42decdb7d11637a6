//! Machine and layer calibration: timed calls into each crate's public
//! functions, on fixed inputs, independent of the workload measured.

use crate::metrics::{put, Metrics};
use crate::schedule::rng;
use crate::stats::{geomean, median, time_median};
use crate::workloads::{float_engine, start_fleet, Workload, WIDTH};
use fmm_core::Workspace;
use fmm_gemm::classical_flops;
use fmm_gf2::{Gf2Matrix, Gf2Planner, Gf2Workspace};
use fmm_matrix::kernels::{lincomb, par_lincomb};
use fmm_matrix::Matrix;
use fmm_runtime::{ThreadPool, ThreadPoolBuilder};
use fmm_serve::ServeClient;
use rand::Rng;
use std::hint::black_box;
use std::path::Path;

/// Triad arrays: 3 × 256 MiB, over 7× the 105 MiB last-level cache of
/// the reference machine, so the loop streams from memory.
const TRIAD_ELEMS: usize = 32 << 20;

fn pool(width: usize) -> Result<ThreadPool, String> {
    ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .map_err(|e| e.to_string())
}

/// Every calibration metric.
pub fn calibrate(run_dir: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let par = pool(WIDTH)?;
    machine(&mut m);
    gemm(&mut m, &par)?;
    kernels(&mut m, &par);
    planner(&mut m)?;
    engine_overhead(&mut m, &par)?;
    serve_wire(&mut m, run_dir)?;
    gf2(&mut m)?;
    let ratio = |a: &str, b: &str| m[a].value / m[b].value.max(f64::MIN_POSITIVE);
    let (peak, triad) = (
        ratio("gemm.seq_gflops", "machine.madd_gflops"),
        ratio("kernels.par_lincomb_gbs", "machine.triad_gbs.t2"),
    );
    put(&mut m, "gemm.peak_frac", peak, 1);
    put(&mut m, "kernels.triad_frac", triad, 1);
    Ok(m)
}

/// STREAM triad at 1 and 2 threads (24 bytes per element), and a
/// register-resident multiply-add loop in portable code.
fn machine(m: &mut Metrics) {
    let b = vec![1.0f64; TRIAD_ELEMS];
    let c = vec![2.0f64; TRIAD_ELEMS];
    let mut a = vec![0.0f64; TRIAD_ELEMS];
    let s = black_box(3.0);
    let triad = |a: &mut [f64], b: &[f64], c: &[f64]| {
        for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
            *x = y + s * z;
        }
    };
    triad(&mut a, &b, &c);
    for threads in [1usize, 2] {
        let chunk = TRIAD_ELEMS.div_ceil(threads);
        let t = time_median(3, || {
            std::thread::scope(|sc| {
                for ((x, y), z) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    sc.spawn(move || triad(x, y, z));
                }
            });
            black_box(&a);
        });
        let gbs = 24.0 * TRIAD_ELEMS as f64 / t / 1e9;
        put(m, &format!("machine.triad_gbs.t{threads}"), gbs, 3);
    }
    drop((a, b, c));

    // 24 independent chains fit the 16 two-lane vector registers of the
    // baseline x86-64 ISA with room for the two constants.
    const LANES: usize = 24;
    const ITERS: usize = 20_000_000;
    let (x, y) = (black_box(0.999_999_9), black_box(1e-9));
    let t = time_median(3, || {
        let mut acc = [black_box(1.0f64); LANES];
        for _ in 0..ITERS {
            for v in acc.iter_mut() {
                *v = *v * x + y;
            }
        }
        black_box(acc);
    });
    put(
        m,
        "machine.madd_gflops",
        2.0 * (LANES * ITERS) as f64 / t / 1e9,
        3,
    );
}

fn operands(shape: (usize, usize, usize), stream: u64) -> (Matrix, Matrix, Matrix) {
    let (p, q, r) = shape;
    let mut g = rng(0xca1, stream);
    (
        Matrix::random(p, q, &mut g),
        Matrix::random(q, r, &mut g),
        Matrix::zeros(p, r),
    )
}

/// Sequential and parallel gemm on the paper shapes, parallel gemm on
/// the small serving shapes, and the engine's speedup over parallel
/// classical gemm on the paper shapes (each a geometric mean).
fn gemm(m: &mut Metrics, par: &ThreadPool) -> Result<(), String> {
    let engine = float_engine(WIDTH)?;
    let (mut seq, mut pgemm, mut fast) = (Vec::new(), Vec::new(), Vec::new());
    for (i, shape) in Workload::PaperShapes.shapes().into_iter().enumerate() {
        let (a, b, mut c) = operands(shape, i as u64);
        let flops = classical_flops(shape.0, shape.1, shape.2) / 1e9;
        let t_seq = time_median(2, || {
            fmm_gemm::gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut())
        });
        let t_par = time_median(2, || {
            par.install(|| fmm_gemm::par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut()))
        });
        engine
            .multiply_into(&a, &b, &mut c)
            .map_err(|e| e.to_string())?;
        let t_fast = time_median(2, || {
            engine
                .multiply_into(&a, &b, &mut c)
                .expect("engine multiply");
        });
        seq.push(flops / t_seq);
        pgemm.push(flops / t_par);
        fast.push(t_par / t_fast);
    }
    put(m, "gemm.seq_gflops", geomean(&seq), seq.len() as u64);
    put(m, "gemm.par_gflops", geomean(&pgemm), pgemm.len() as u64);
    put(
        m,
        "core.fast_vs_classical",
        geomean(&fast),
        fast.len() as u64,
    );

    let small: Vec<f64> = Workload::ServeMixed
        .shapes()
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let (a, b, mut c) = operands(shape, 100 + i as u64);
            let t = time_median(5, || {
                par.install(|| fmm_gemm::par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut()))
            });
            classical_flops(shape.0, shape.1, shape.2) / 1e9 / t
        })
        .collect();
    put(m, "gemm.small_gflops", geomean(&small), small.len() as u64);
    Ok(())
}

/// Two-term write-once additions on a 768 × 768 block, the sub-block
/// size of a one-step ⟨2,2,2⟩ split of the largest paper shape;
/// computed bytes: two reads and one write per element.
fn kernels(m: &mut Metrics, par: &ThreadPool) {
    let n = 768;
    let mut g = rng(0xadd, 0);
    let (x, y) = (Matrix::random(n, n, &mut g), Matrix::random(n, n, &mut g));
    let mut d = Matrix::zeros(n, n);
    let bytes = 3.0 * (n * n * 8) as f64;
    let terms = [(1.0, x.as_ref()), (-1.0, y.as_ref())];
    let t = time_median(21, || lincomb(d.as_mut(), 0.0, &terms));
    put(m, "kernels.lincomb_gbs", bytes / t / 1e9, 21);
    let t = time_median(21, || par.install(|| par_lincomb(d.as_mut(), 0.0, &terms)));
    put(m, "kernels.par_lincomb_gbs", bytes / t / 1e9, 21);
}

/// Cold planning time per distinct float shape, and the share planned
/// with at least one fast step.
fn planner(m: &mut Metrics) -> Result<(), String> {
    let engine = float_engine(WIDTH)?;
    let mut times = Vec::new();
    let mut fast = 0;
    for w in [
        Workload::PaperShapes,
        Workload::ServeMixed,
        Workload::FleetOpen,
    ] {
        for (p, q, r) in w.shapes() {
            let t0 = std::time::Instant::now();
            let plan = engine.plan_for(p, q, r).map_err(|e| e.to_string())?;
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            fast += usize::from(plan.depth() >= 1);
        }
    }
    put(m, "planner.plan_ms", median(&times), times.len() as u64);
    put(
        m,
        "planner.fast_frac",
        fast as f64 / times.len() as f64,
        times.len() as u64,
    );
    Ok(())
}

/// `multiply_into` minus `Plan::execute` of the same cached plan, on
/// the four smallest serving shapes (median of the differences). The
/// plan runs inside a pool of the engine's width, as the engine runs it;
/// outside any pool every parallel split would hop onto the global pool.
fn engine_overhead(m: &mut Metrics, par: &ThreadPool) -> Result<(), String> {
    let engine = float_engine(WIDTH)?;
    let mut shapes = Workload::ServeMixed.shapes();
    shapes.sort_by_key(|&(p, q, r)| p * q * r);
    let mut diffs = Vec::new();
    for (i, &(p, q, r)) in shapes.iter().take(4).enumerate() {
        let (a, b, mut c) = operands((p, q, r), 200 + i as u64);
        engine
            .multiply_into(&a, &b, &mut c)
            .map_err(|e| e.to_string())?;
        let plan = engine.plan_for(p, q, r).map_err(|e| e.to_string())?;
        let mut ws = Workspace::for_plan(&plan);
        par.install(|| plan.execute(&a, &b, &mut c, &mut ws));
        // Pair the two calls, alternating which goes first, so drift in
        // machine speed and warm-cache order effects cancel.
        let pairs: Vec<f64> = (0..301)
            .map(|i| {
                let (mut t_plan, mut t_engine) = (0.0, 0.0);
                for plan_turn in [i % 2 == 0, i % 2 == 1] {
                    if plan_turn {
                        t_plan = time_median(1, || {
                            par.install(|| plan.execute(&a, &b, &mut c, &mut ws))
                        });
                    } else {
                        t_engine = time_median(1, || {
                            engine
                                .multiply_into(&a, &b, &mut c)
                                .expect("engine multiply")
                        });
                    }
                }
                (t_engine - t_plan) * 1e6
            })
            .collect();
        diffs.push(median(&pairs));
    }
    put(m, "engine.overhead_us", median(&diffs), 4 * 301);
    Ok(())
}

/// Unloaded `ServeClient::multiply` through a one-shard router minus
/// the same multiply on a local width-1 engine, at 64³.
fn serve_wire(m: &mut Metrics, run_dir: &Path) -> Result<(), String> {
    let (a, b, mut c) = operands((64, 64, 64), 300);
    let router = start_fleet(&run_dir.join("wire"), 1)?;
    let result = (|| {
        let mut client = ServeClient::connect(router.socket()).map_err(|e| e.to_string())?;
        for _ in 0..20 {
            client.multiply(&a, &b).map_err(|e| e.to_string())?;
        }
        Ok::<f64, String>(time_median(301, || {
            client.multiply(&a, &b).expect("fleet multiply");
        }))
    })();
    router.shutdown();
    let t_wire = result?;
    let local = float_engine(1)?;
    local
        .multiply_into(&a, &b, &mut c)
        .map_err(|e| e.to_string())?;
    let t_local = time_median(301, || {
        local.multiply_into(&a, &b, &mut c).expect("local multiply")
    });
    put(m, "serve.wire_us", (t_wire - t_local) * 1e6, 301);
    Ok(())
}

/// M4RM XOR and OR rates at 4096, the automatic-depth Strassen plan's
/// speedup over plain M4RM at 4096, and word-XOR bandwidth on 8192².
fn gf2(m: &mut Metrics) -> Result<(), String> {
    let n = 4096;
    let mut g = rng(0x6f2, 0);
    let a = Gf2Matrix::random(n, n, &mut g);
    let b = Gf2Matrix::random(n, n, &mut g);
    let ops = classical_flops(n, n, n) / 1e9;
    let t_m4rm = time_median(3, || {
        black_box(a.mul_m4rm(&b));
    });
    put(m, "gf2.m4rm_gbitops", ops / t_m4rm, 3);

    let mut sparse = Gf2Matrix::zeros(n, n);
    for i in 0..n {
        for _ in 0..8 {
            sparse.set(i, g.gen_range(0..n), true);
        }
    }
    let t_or = time_median(3, || {
        black_box(sparse.or_mul(&sparse));
    });
    put(m, "gf2.or_gbitops", ops / t_or, 3);

    // One thread: see the gf2_closure workload on why not two.
    let plan = pool(1)?
        .install(|| Gf2Planner::new().shape(n, n, n).plan())
        .map_err(|e| e.to_string())?;
    let mut ws = Gf2Workspace::for_plan(&plan);
    let mut c = Gf2Matrix::zeros(n, n);
    let t_plan = time_median(3, || plan.execute_into(&a, &b, &mut c, &mut ws));
    put(m, "gf2.strassen_vs_m4rm", t_m4rm / t_plan, 3);

    let big = 8192;
    let mut x = Gf2Matrix::random(big, big, &mut g);
    let y = Gf2Matrix::random(big, big, &mut g);
    let t = time_median(11, || x.xor_assign(&y));
    put(m, "gf2.xor_gbs", 3.0 * (big * big / 8) as f64 / t / 1e9, 11);
    Ok(())
}
