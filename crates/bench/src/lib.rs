//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/`; this
//! library provides the common pieces: median timing, thread-pool
//! control (the analog of the paper's 6-core/24-core sweeps at this
//! machine's scale), best-of-steps selection (§5: "we take the best of
//! one, two, or three steps of recursion"), and CSV/JSON emission so
//! EXPERIMENTS.md can quote results directly.

use fmm_core::{AdditionMethod, GemmScalar, Options, Planner, Scheme, Workspace};
use fmm_matrix::{DenseMatrix, Matrix, Scalar};
use fmm_tensor::Decomposition;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Element type a harness binary runs its measurements in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dtype {
    /// Double precision (the historical default).
    #[default]
    F64,
    /// Single precision: half the memory traffic, double SIMD width.
    F32,
}

/// Command-line configuration shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Quick mode shrinks sweeps for CI; full mode runs the real sizes.
    pub quick: bool,
    /// Timing repetitions (median is reported; paper uses 5).
    pub trials: usize,
    /// Thread counts to sweep for parallel experiments.
    pub thread_counts: Vec<usize>,
    /// Optional JSON output path.
    pub json_out: Option<String>,
    /// Element type to measure in (`--dtype f32|f64`; default f64).
    /// Only `fig4` reads it.
    pub dtype: Dtype,
}

impl HarnessConfig {
    /// Parse from `std::env::args`: `--quick` (default), `--full`,
    /// `--trials T`, `--threads 1,2`, `--json PATH`, `--dtype f32|f64`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut cfg = HarnessConfig {
            quick: true,
            trials: 3,
            thread_counts: vec![1, num_threads_available()],
            json_out: None,
            dtype: Dtype::F64,
        };
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => cfg.quick = true,
                "--full" => cfg.quick = false,
                "--trials" => {
                    i += 1;
                    cfg.trials = args[i].parse().expect("--trials N");
                }
                "--threads" => {
                    i += 1;
                    cfg.thread_counts = args[i]
                        .split(',')
                        .map(|t| t.parse().expect("--threads 1,2"))
                        .collect();
                }
                "--json" => {
                    i += 1;
                    cfg.json_out = Some(args[i].clone());
                }
                "--dtype" => {
                    i += 1;
                    cfg.dtype = match args[i].as_str() {
                        "f64" => Dtype::F64,
                        "f32" => Dtype::F32,
                        other => panic!("--dtype must be f32 or f64, got {other}"),
                    };
                }
                other => eprintln!("ignoring unknown flag {other}"),
            }
            i += 1;
        }
        cfg
    }
}

/// Available hardware parallelism.
pub fn num_threads_available() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// A rayon pool with exactly `threads` threads, memoized per width for
/// the whole process: the fig/table binaries call this once per
/// measurement, and spinning worker threads up (and tearing them down)
/// inside a sweep both wastes time and — when the caller times around
/// the `install` — pollutes the measured region. Every caller of the
/// same width shares one long-lived pool.
pub fn pool(threads: usize) -> Arc<rayon::ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut by_width = pools.lock().unwrap();
    Arc::clone(by_width.entry(threads).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool"),
        )
    }))
}

/// Median wall-clock seconds over `trials` runs of `f`.
pub fn time_median<F: FnMut()>(mut f: F, trials: usize) -> f64 {
    let mut times: Vec<f64> = (0..trials.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Random operands for a `P × Q × R` problem, in any element type.
/// Same seed ⇒ the same underlying draw sequence for every dtype, so
/// cross-dtype comparisons multiply "the same" matrices.
pub fn workload_in<T: GemmScalar>(
    p: usize,
    q: usize,
    r: usize,
    seed: u64,
) -> (DenseMatrix<T>, DenseMatrix<T>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        DenseMatrix::random(p, q, &mut rng),
        DenseMatrix::random(q, r, &mut rng),
    )
}

/// [`workload_in`] at the default element type.
pub fn workload(p: usize, q: usize, r: usize, seed: u64) -> (Matrix, Matrix) {
    workload_in::<f64>(p, q, r, seed)
}

/// One measurement row, serializable for EXPERIMENTS.md extraction.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Experiment identifier (e.g. "fig5-square").
    pub experiment: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Problem dims.
    pub p: usize,
    /// Inner dimension.
    pub q: usize,
    /// Output columns.
    pub r: usize,
    /// Threads used (1 = sequential).
    pub threads: usize,
    /// Recursion steps that achieved the best time (0 = classical).
    pub steps: usize,
    /// Median seconds.
    pub seconds: f64,
    /// Effective GFLOPS (Eq. 3).
    pub effective_gflops: f64,
}

impl Measurement {
    /// CSV header matching [`Measurement::csv_row`].
    pub fn csv_header() -> &'static str {
        "experiment,algorithm,p,q,r,threads,steps,seconds,effective_gflops"
    }

    /// Render as a CSV row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.6},{:.3}",
            self.experiment,
            self.algorithm,
            self.p,
            self.q,
            self.r,
            self.threads,
            self.steps,
            self.seconds,
            self.effective_gflops
        )
    }
}

/// Time the classical baseline (our MKL stand-in) on a problem, in any
/// element type. The f32 row is labelled `classical(gemm)[f32]` so
/// `summarize` keeps the dtypes apart.
pub fn measure_classical_in<T: GemmScalar>(
    experiment: &str,
    p: usize,
    q: usize,
    r: usize,
    threads: usize,
    trials: usize,
) -> Measurement {
    let (a, b) = workload_in::<T>(p, q, r, 42);
    let mut c = DenseMatrix::<T>::zeros(p, r);
    let tp = pool(threads);
    let secs = if threads == 1 {
        time_median(
            || fmm_gemm::gemm(T::ONE, a.as_ref(), b.as_ref(), T::ZERO, c.as_mut()),
            trials,
        )
    } else {
        tp.install(|| {
            time_median(
                || fmm_gemm::par_gemm(T::ONE, a.as_ref(), b.as_ref(), T::ZERO, c.as_mut()),
                trials,
            )
        })
    };
    Measurement {
        experiment: experiment.into(),
        algorithm: format!("classical(gemm){}", dtype_tag::<T>()),
        p,
        q,
        r,
        threads,
        steps: 0,
        seconds: secs,
        effective_gflops: fmm_gemm::effective_gflops(p, q, r, secs),
    }
}

/// `""` for f64 (keeping historical labels stable), `"[f32]"` etc.
/// otherwise.
fn dtype_tag<T: Scalar>() -> String {
    if T::NAME == "f64" {
        String::new()
    } else {
        format!("[{}]", T::NAME)
    }
}

/// [`measure_classical_in`] at the default element type.
pub fn measure_classical(
    experiment: &str,
    p: usize,
    q: usize,
    r: usize,
    threads: usize,
    trials: usize,
) -> Measurement {
    measure_classical_in::<f64>(experiment, p, q, r, threads, trials)
}

/// Time a fast algorithm with the given options, taking the best over
/// `steps_candidates` recursion depths (paper §5 protocol).
///
/// Planning (and the workspace allocation it sizes) happens once per
/// depth candidate, outside the timed region — the timed loop is the
/// warm [`fmm_core::Plan::execute`] hot path (its workspace never
/// grows), which is what a production caller would run.
#[allow(clippy::too_many_arguments)]
pub fn measure_fast_in<T: GemmScalar>(
    experiment: &str,
    name: &str,
    dec: &Decomposition,
    p: usize,
    q: usize,
    r: usize,
    threads: usize,
    steps_candidates: &[usize],
    base_opts: Options,
    trials: usize,
) -> Measurement {
    let (a, b) = workload_in::<T>(p, q, r, 42);
    let mut c = DenseMatrix::<T>::zeros(p, r);
    let tp = pool(threads);
    let mut best = (f64::INFINITY, 0usize);
    for &steps in steps_candidates {
        let plan = Planner::new()
            .shape(p, q, r)
            .algorithm(dec)
            .steps(steps)
            .options(base_opts)
            .plan::<T>()
            .expect("harness planner configuration is complete");
        let mut ws = Workspace::for_plan(&plan);
        let secs = tp.install(|| time_median(|| plan.execute(&a, &b, &mut c, &mut ws), trials));
        if secs < best.0 {
            best = (secs, steps);
        }
    }
    Measurement {
        experiment: experiment.into(),
        algorithm: format!("{name}{}", dtype_tag::<T>()),
        p,
        q,
        r,
        threads,
        steps: best.1,
        seconds: best.0,
        effective_gflops: fmm_gemm::effective_gflops(p, q, r, best.0),
    }
}

/// [`measure_fast_in`] at the default element type.
#[allow(clippy::too_many_arguments)]
pub fn measure_fast(
    experiment: &str,
    name: &str,
    dec: &Decomposition,
    p: usize,
    q: usize,
    r: usize,
    threads: usize,
    steps_candidates: &[usize],
    base_opts: Options,
    trials: usize,
) -> Measurement {
    measure_fast_in::<f64>(
        experiment,
        name,
        dec,
        p,
        q,
        r,
        threads,
        steps_candidates,
        base_opts,
        trials,
    )
}

/// Scheme used by the paper's §5 protocol at a given core count:
/// best of BFS and HYBRID on few cores, best of DFS and HYBRID on many.
pub fn schemes_for_threads(threads: usize) -> Vec<Scheme> {
    if threads == 1 {
        vec![Scheme::Sequential]
    } else if threads <= 8 {
        vec![Scheme::Bfs, Scheme::Hybrid]
    } else {
        vec![Scheme::Dfs, Scheme::Hybrid]
    }
}

/// Best measurement across the §5 scheme set for this thread count.
#[allow(clippy::too_many_arguments)]
pub fn measure_fast_best_scheme(
    experiment: &str,
    name: &str,
    dec: &Decomposition,
    p: usize,
    q: usize,
    r: usize,
    threads: usize,
    steps_candidates: &[usize],
    trials: usize,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for scheme in schemes_for_threads(threads) {
        let m = measure_fast(
            experiment,
            name,
            dec,
            p,
            q,
            r,
            threads,
            steps_candidates,
            Options {
                scheme,
                additions: AdditionMethod::WriteOnce,
                ..Options::default()
            },
            trials,
        );
        if best.as_ref().is_none_or(|b| m.seconds < b.seconds) {
            best = Some(m);
        }
    }
    best.expect("at least one scheme")
}

/// Emit measurements: CSV to stdout, optional JSON file.
pub fn emit(cfg: &HarnessConfig, rows: &[Measurement]) {
    println!("{}", Measurement::csv_header());
    for row in rows {
        println!("{}", row.csv_row());
    }
    if let Some(path) = &cfg.json_out {
        let json = serde_json::to_string_pretty(rows).expect("serialize");
        std::fs::write(path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_median_is_positive_and_ordered() {
        let t = time_median(
            || {
                std::hint::black_box(1 + 1);
            },
            5,
        );
        assert!(t >= 0.0);
    }

    #[test]
    fn measurement_csv_row_has_all_fields() {
        let m = Measurement {
            experiment: "x".into(),
            algorithm: "y".into(),
            p: 1,
            q: 2,
            r: 3,
            threads: 1,
            steps: 1,
            seconds: 0.5,
            effective_gflops: 1.0,
        };
        assert_eq!(m.csv_row().split(',').count(), 9);
        assert_eq!(Measurement::csv_header().split(',').count(), 9);
    }

    #[test]
    fn pool_is_memoized_per_width() {
        let first = pool(2);
        let second = pool(2);
        assert!(
            Arc::ptr_eq(&first, &second),
            "same width must share one pool"
        );
        assert_eq!(first.current_num_threads(), 2);
        let other = pool(3);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(other.current_num_threads(), 3);
    }

    #[test]
    fn classical_measurement_runs() {
        let m = measure_classical("t", 64, 64, 64, 1, 1);
        assert!(m.seconds > 0.0);
        assert!(m.effective_gflops > 0.0);
    }

    #[test]
    fn fast_measurement_picks_a_step_count() {
        let s = fmm_algo::strassen();
        let m = measure_fast(
            "t",
            "strassen",
            &s,
            64,
            64,
            64,
            1,
            &[1, 2],
            Options::default(),
            1,
        );
        assert!(m.steps == 1 || m.steps == 2);
    }

    #[test]
    fn scheme_selection_matches_paper_protocol() {
        assert_eq!(schemes_for_threads(1), vec![Scheme::Sequential]);
        assert_eq!(schemes_for_threads(2), vec![Scheme::Bfs, Scheme::Hybrid]);
        assert_eq!(schemes_for_threads(24), vec![Scheme::Dfs, Scheme::Hybrid]);
    }
}
