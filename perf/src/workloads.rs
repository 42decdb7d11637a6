//! The four workloads and the worker process that runs one phase of
//! one of them: set up, then either the untraced window or the traced
//! run, streaming every op to the coordinator (see [`crate::stream`]).

use crate::metrics::{put, Metrics};
use crate::schedule::{log_uniform_shapes, open_loop, rng, Cycler};
use crate::spans::{self, OpSpan, Span};
use crate::stream::{
    emit, end_line, layers_line, op_line, ready_line, setup_line, OpRecord, Phase,
};
use fmm_core::{FmmEngine, Options, Scheme};
use fmm_gf2::{Gf2Matrix, Gf2Plan, Gf2Planner, Gf2Workspace};
use fmm_matrix::{relative_error, Matrix};
use fmm_serve::{
    start_router, FleetStats, RouterConfig, RunningRouter, ServeClient, ShardLauncher, ShardSpec,
};
use fmm_trace::TraceSink;
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Pool width of the in-process engines, fixed so the workload is the
/// same on every machine.
pub const WIDTH: usize = 2;

/// Offered load of `fleet_open`, requests per second: about a third of
/// the fleet's closed-loop capacity with two senders (217 requests/s on
/// the 2-core reference machine). At half capacity, queueing amplified
/// host noise into run-to-run latency spreads wider than any bound.
pub const FLEET_RATE: f64 = 70.0;

/// Set-up repetitions of a first worker; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Relative Frobenius error a float product may show against classical
/// gemm.
const TOLERANCE: f64 = 1e-10;

/// Fixed seeds of the shape sets: `--seed` moves operands and order,
/// never which shapes a workload multiplies.
const SERVE_SHAPE_SEED: u64 = 0x5e12e;
const FLEET_SHAPE_SEED: u64 = 0xf1ee7;

/// GF(2) ops of `gf2_closure`: XOR products through the Strassen
/// planner, and OR-mode reachability steps on sparse adjacency.
const GF2_OPS: [(usize, Gf2Mode); 4] = [
    (4096, Gf2Mode::Xor),
    (8192, Gf2Mode::Xor),
    (2048, Gf2Mode::Or),
    (4096, Gf2Mode::Or),
];

/// Ones per row of the reachability operands.
const GF2_ONES_PER_ROW: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gf2Mode {
    Xor,
    Or,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 shapes through one engine caller.
    PaperShapes,
    /// Many small ragged shapes from two engine callers.
    ServeMixed,
    /// Open-loop arrivals through the router into two shard processes.
    FleetOpen,
    /// GF(2) XOR products and OR reachability steps.
    Gf2Closure,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperShapes,
        Workload::ServeMixed,
        Workload::FleetOpen,
        Workload::Gf2Closure,
    ];

    /// Name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperShapes => "paper_shapes",
            Workload::ServeMixed => "serve_mixed",
            Workload::FleetOpen => "fleet_open",
            Workload::Gf2Closure => "gf2_closure",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `(m, k, n)` of every shape the workload multiplies.
    pub fn shapes(self) -> Vec<(usize, usize, usize)> {
        match self {
            Workload::PaperShapes => [1024, 1536]
                .into_iter()
                .flat_map(|n| [(n, n, n), (n, 480, n), (n, 960, 960)])
                .collect(),
            Workload::ServeMixed => log_uniform_shapes(SERVE_SHAPE_SEED, 24, 32, 512),
            Workload::FleetOpen => log_uniform_shapes(FLEET_SHAPE_SEED, 16, 32, 256),
            Workload::Gf2Closure => GF2_OPS.iter().map(|&(n, _)| (n, n, n)).collect(),
        }
    }

    /// Callers (or open-loop senders) that each keep one op in flight.
    pub fn callers(self) -> usize {
        match self {
            Workload::PaperShapes | Workload::Gf2Closure => 1,
            Workload::ServeMixed | Workload::FleetOpen => 2,
        }
    }

    /// Threads that run leaf work: the engine pool, the two
    /// single-threaded shards, or the one GF(2) caller.
    pub fn width(self) -> usize {
        match self {
            Workload::Gf2Closure => 1,
            _ => WIDTH,
        }
    }
}

/// What one worker process runs.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Which slice of the window this worker measures.
    pub slice: u64,
    /// [`Phase::Window`] or [`Phase::Traced`].
    pub phase: Phase,
    /// Window length in seconds.
    pub seconds: f64,
    /// Set-up repetitions (the last one's system is measured).
    pub setup_reps: usize,
    /// Directory for sockets and scratch files, inside the checkout.
    pub run_dir: PathBuf,
    /// Where the traced run writes its Chrome trace.
    pub trace_part: Option<PathBuf>,
}

impl WorkerArgs {
    /// Seed of the op order and arrival times: every slice of a window
    /// runs the seed's operands in an order of its own.
    fn order_seed(&self) -> u64 {
        self.seed ^ (self.slice << 32)
    }
}

/// Run one worker phase to completion.
pub fn run_worker(args: &WorkerArgs) -> Result<(), String> {
    fmm_trace::set_process_label(&format!("perf-{}", args.workload.name()));
    match args.workload {
        Workload::PaperShapes | Workload::ServeMixed => engine_worker(args),
        Workload::FleetOpen => fleet_worker(args),
        Workload::Gf2Closure => gf2_worker(args),
    }
}

/// One op's outcome and its call interval on the trace clock.
#[derive(Debug, Clone, Copy)]
struct Timed {
    ok: bool,
    t0: u64,
    t1: u64,
}

impl Timed {
    fn secs(&self) -> f64 {
        (self.t1 - self.t0) as f64 / 1e9
    }
}

/// Time one public call on the trace clock; `None` when it panicked.
fn timed<R>(call: impl FnOnce() -> R) -> (Option<R>, u64, u64) {
    let t0 = fmm_trace::now_ns();
    let result = catch_unwind(AssertUnwindSafe(call)).ok();
    (result, t0, fmm_trace::now_ns())
}

fn report(phase: Phase, shape: usize, t: Timed) {
    emit(&op_line(&OpRecord {
        phase,
        shape,
        lat: t.secs(),
        svc: t.secs(),
        late: 0.0,
        ok: t.ok,
    }));
}

/// Warm every shape once from every caller, the callers running
/// concurrently, so per-caller resources (pooled workspaces, router
/// connections) exist before anything is measured.
fn warm_up<C: Send>(callers: &mut [C], nshapes: usize, op: impl Fn(&mut C, usize) -> Timed + Sync) {
    std::thread::scope(|s| {
        for caller in callers.iter_mut() {
            let op = &op;
            s.spawn(move || {
                for shape in 0..nshapes {
                    report(Phase::Setup, shape, op(caller, shape));
                }
            });
        }
    });
}

/// Build the system `reps` times, timing each build; earlier systems
/// are torn down outside the timed interval. Returns the last.
fn timed_setups<S>(
    reps: usize,
    mut build: impl FnMut(usize) -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<S, String> {
    let mut last = None;
    for rep in 0..reps.max(1) {
        if let Some(s) = last.take() {
            teardown(s);
        }
        let t0 = Instant::now();
        let s = build(rep)?;
        emit(&setup_line(t0.elapsed().as_secs_f64()));
        last = Some(s);
    }
    Ok(last.expect("at least one set-up repetition"))
}

/// Closed-loop window: every caller cycles through seeded permutations
/// of the shapes and stops at the cycle boundary nearest the deadline,
/// so the window always holds whole cycles of the same mix.
/// Returns how many ops ran.
fn closed_window<F, G>(seed: u64, callers: usize, nshapes: usize, seconds: f64, make: F) -> u64
where
    F: Fn(usize) -> G,
    G: FnMut(usize) -> Timed + Send,
{
    emit(&ready_line(callers));
    let start = Instant::now();
    let count = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..callers {
            let mut op = make(c);
            let count = &count;
            s.spawn(move || {
                let mut order = Cycler::new(seed, c, nshapes);
                let mut cycle_start = Instant::now();
                loop {
                    let (shape, closes) = order.next_shape();
                    report(Phase::Window, shape, op(shape));
                    count.fetch_add(1, Ordering::Relaxed);
                    if closes {
                        let cycle = cycle_start.elapsed().as_secs_f64();
                        if start.elapsed().as_secs_f64() + cycle / 2.0 >= seconds {
                            break;
                        }
                        cycle_start = Instant::now();
                    }
                }
            });
        }
    });
    emit(&end_line(start.elapsed().as_secs_f64()));
    count.into_inner()
}

/// Traced run: `batches` rounds of `batch` ops per caller in the same
/// seeded order as the window; after each round every caller waits and
/// one calls `drain`, so rings are emptied before they can wrap.
fn closed_traced<F, G>(
    seed: u64,
    callers: usize,
    nshapes: usize,
    batch: usize,
    batches: usize,
    make: F,
    drain: &(dyn Fn() + Sync),
) -> Vec<OpSpan>
where
    F: Fn(usize) -> G,
    G: FnMut(usize) -> Timed + Send,
{
    emit(&ready_line(callers));
    let start = Instant::now();
    let barrier = Barrier::new(callers);
    let next_id = AtomicU64::new(0);
    let ops = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..callers {
            let mut op = make(c);
            let (barrier, next_id, ops) = (&barrier, &next_id, &ops);
            s.spawn(move || {
                let mut order = Cycler::new(seed, c, nshapes);
                for _ in 0..batches {
                    for _ in 0..batch {
                        let (shape, _) = order.next_shape();
                        let t = op(shape);
                        report(Phase::Traced, shape, t);
                        ops.lock().expect("op span list").push(OpSpan {
                            op: next_id.fetch_add(1, Ordering::Relaxed),
                            caller: c,
                            shape,
                            t0: t.t0,
                            t1: t.t1,
                        });
                    }
                    if barrier.wait().is_leader() {
                        drain();
                    }
                    barrier.wait();
                }
            });
        }
    });
    emit(&end_line(start.elapsed().as_secs_f64()));
    let mut ops = ops.into_inner().expect("op span list");
    ops.sort_by_key(|o| o.t0);
    ops
}

/// Local ring snapshots taken by `drain`.
#[derive(Default)]
struct Rings(Mutex<Vec<TraceSink>>);

impl Rings {
    fn drain(&self) {
        self.0
            .lock()
            .expect("ring snapshots")
            .push(TraceSink::collect());
        fmm_trace::reset();
    }

    fn spans(&self) -> (Vec<Span>, u64, Vec<String>) {
        let sinks = self.0.lock().expect("ring snapshots");
        let mut all = Vec::new();
        let mut dropped = 0;
        for sink in sinks.iter() {
            let (s, d) = spans::from_sink(sink);
            all.extend(s);
            dropped += d;
        }
        (
            all,
            dropped,
            sinks.iter().map(|s| s.export_chrome_json()).collect(),
        )
    }
}

fn start_tracing() -> Rings {
    fmm_trace::reset();
    fmm_trace::set_enabled(true);
    Rings::default()
}

/// Finish a traced run: span metrics, the exact counts, the drop count,
/// and the Chrome trace part.
fn finish_traced(
    args: &WorkerArgs,
    spans: &[Span],
    ops: &[OpSpan],
    mut parts: Vec<String>,
    dropped: u64,
    mut m: Metrics,
) -> Result<(), String> {
    m.extend(spans::metrics(spans, ops, args.workload.width()));
    put(&mut m, "trace.dropped", dropped as f64, ops.len() as u64);
    emit(&layers_line(&m));
    if let Some(path) = &args.trace_part {
        parts.push(spans::ops_chrome_json(
            ops,
            &format!("perf-bench-{}", args.workload.name()),
        ));
        let merged = TraceSink::merge_chrome_json(&parts)?;
        std::fs::write(path, merged).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Float problems shared by the engine and fleet workloads
// ---------------------------------------------------------------------

struct FloatCase {
    a: Matrix,
    b: Matrix,
    /// Classical product, the reference every result is checked against.
    want: Matrix,
}

fn float_cases(w: Workload, seed: u64) -> Vec<FloatCase> {
    w.shapes()
        .into_iter()
        .enumerate()
        .map(|(i, (m, k, n))| {
            let mut r = rng(seed, i as u64);
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(k, n, &mut r);
            let mut want = Matrix::zeros(m, n);
            fmm_gemm::par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, want.as_mut());
            FloatCase { a, b, want }
        })
        .collect()
}

fn close_enough(c: &Matrix, want: &Matrix) -> bool {
    c.shape() == want.shape() && relative_error(&c.as_ref(), &want.as_ref()) <= TOLERANCE
}

/// The in-process engine of `paper_shapes` and `serve_mixed`: default
/// configuration at width 2, except the DFS scheme. The default HYBRID
/// scheme (and BFS) use `fmm_runtime::scope`, whose completion path can
/// touch a freed scope; at width 2 that panics, corrupts products or
/// kills the process within seconds, and the benchmark's workloads must
/// not fail.
pub fn float_engine(width: usize) -> Result<FmmEngine, String> {
    let scheme = if width > 1 {
        Scheme::Dfs
    } else {
        Scheme::Sequential
    };
    FmmEngine::builder()
        .threads(width)
        .options(Options {
            scheme,
            ..Options::default()
        })
        .build()
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// paper_shapes and serve_mixed
// ---------------------------------------------------------------------

#[derive(Default)]
struct ExactCounts {
    base: u64,
    peel: u64,
    ws_bytes: u64,
}

/// One engine multiply, checked; with `acc`, through
/// `multiply_with_stats` to collect the exact per-op counts.
fn engine_op(
    engine: &FmmEngine,
    case: &FloatCase,
    out: &mut Matrix,
    acc: Option<&Mutex<ExactCounts>>,
) -> Timed {
    let (result, t0, t1) = match acc {
        Some(_) => timed(|| engine.multiply_with_stats(&case.a, &case.b, out).map(Some)),
        None => timed(|| engine.multiply_into(&case.a, &case.b, out).map(|()| None)),
    };
    let ok = match result {
        Some(Ok(snap)) => {
            if let (Some(acc), Some(snap)) = (acc, snap) {
                let mut acc = acc.lock().expect("exact counts");
                acc.base += snap.base_gemms;
                acc.peel += snap.peel_gemms;
                acc.ws_bytes += snap.workspace_bytes;
            }
            close_enough(out, &case.want)
        }
        Some(Err(e)) => {
            eprintln!("engine multiply failed: {e}");
            false
        }
        None => false,
    };
    Timed { ok, t0, t1 }
}

fn engine_worker(args: &WorkerArgs) -> Result<(), String> {
    let w = args.workload;
    let cases = float_cases(w, args.seed);
    let nshapes = cases.len();
    let callers = w.callers();
    let mut outs: Vec<Mutex<Vec<Matrix>>> = (0..callers)
        .map(|_| {
            Mutex::new(
                cases
                    .iter()
                    .map(|c| Matrix::zeros(c.want.rows(), c.want.cols()))
                    .collect(),
            )
        })
        .collect();
    let engine = timed_setups(
        args.setup_reps,
        |_| {
            let engine = float_engine(WIDTH)?;
            warm_up(&mut outs, nshapes, |out, s| {
                let out = &mut out.get_mut().expect("outputs")[s];
                engine_op(&engine, &cases[s], out, None)
            });
            Ok(engine)
        },
        drop,
    )?;
    let (engine_ref, cases_ref, outs_ref) = (&engine, &cases, &outs);

    match args.phase {
        Phase::Window | Phase::Setup => {
            let before = engine.stats();
            closed_window(args.order_seed(), callers, nshapes, args.seconds, |c| {
                move |s| {
                    let out = &mut outs_ref[c].lock().expect("outputs")[s];
                    engine_op(engine_ref, &cases_ref[s], out, None)
                }
            });
            let after = engine.stats();
            let ops = after.multiplies - before.multiplies;
            let hits = (after.plan_cache_hits - before.plan_cache_hits) as f64;
            let misses = (after.plan_cache_misses - before.plan_cache_misses) as f64;
            let mut m = Metrics::new();
            put(
                &mut m,
                "engine.plan_hit_ratio",
                hits / (hits + misses).max(1.0),
                ops,
            );
            let created = after.workspaces_created - before.workspaces_created;
            put(&mut m, "engine.workspaces_created", created as f64, ops);
            let steals = (after.tasks_stolen - before.tasks_stolen) as f64;
            put(
                &mut m,
                "runtime.steals_per_op",
                steals / ops.max(1) as f64,
                ops,
            );
            emit(&layers_line(&m));
        }
        Phase::Traced => {
            // Rings hold 4096 records per thread; a depth-1 op records
            // well under 100, so `serve_mixed` drains every 12 ops per
            // caller and the single caller after every op.
            let (batch, batches) = match w {
                Workload::ServeMixed => (12, 4),
                _ => (1, nshapes),
            };
            let acc = Mutex::new(ExactCounts::default());
            let acc_ref = &acc;
            let rings = start_tracing();
            let make = |c: usize| {
                move |s: usize| {
                    let out = &mut outs_ref[c].lock().expect("outputs")[s];
                    engine_op(engine_ref, &cases_ref[s], out, Some(acc_ref))
                }
            };
            let ops = closed_traced(
                args.order_seed(),
                callers,
                nshapes,
                batch,
                batches,
                make,
                &|| rings.drain(),
            );
            fmm_trace::set_enabled(false);
            rings.drain();
            let (spans, dropped, parts) = rings.spans();
            let acc = acc.into_inner().expect("exact counts");
            let n = ops.len().max(1) as f64;
            let mut m = Metrics::new();
            put(
                &mut m,
                "core.base_gemms_per_op",
                acc.base as f64 / n,
                ops.len() as u64,
            );
            put(
                &mut m,
                "core.peel_gemms_per_op",
                acc.peel as f64 / n,
                ops.len() as u64,
            );
            let mib = acc.ws_bytes as f64 / n / (1 << 20) as f64;
            put(&mut m, "core.workspace_mib_per_op", mib, ops.len() as u64);
            finish_traced(args, &spans, &ops, parts, dropped, m)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// fleet_open
// ---------------------------------------------------------------------

/// Start a router over two single-threaded shard processes (re-execs
/// of this binary). Socket paths are relative, which keeps them short
/// and inside the checkout.
pub fn start_fleet(dir: &Path, shards: usize) -> Result<RunningRouter, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let specs = (0..shards)
        .map(|i| ShardSpec {
            socket: dir.join(format!("s{i}.sock")),
            threads: 1,
            max_inflight: 64,
        })
        .collect();
    let cfg = RouterConfig::new(dir.join("r.sock"), ShardLauncher::SelfExec, specs);
    start_router(cfg).map_err(|e| format!("fleet start: {e}"))
}

fn fleet_op(client: &mut ServeClient, case: &FloatCase) -> Timed {
    let (result, t0, t1) = timed(|| client.multiply(&case.a, &case.b));
    let ok = match result {
        Some(Ok(c)) => close_enough(&c, &case.want),
        Some(Err(e)) => {
            eprintln!("fleet multiply failed: {e}");
            false
        }
        None => false,
    };
    Timed { ok, t0, t1 }
}

/// Sum of a per-shard f64-engine counter over the reporting shards.
fn shard_sum(stats: &FleetStats, field: impl Fn(&fmm_core::EngineStats) -> u64) -> u64 {
    stats
        .slots
        .iter()
        .filter_map(|s| s.report.as_ref())
        .map(|r| field(&r.engine_f64))
        .sum()
}

/// Ops of the traced fleet run: each shard's pool thread records up to
/// about 80 spans per op, and its ring holds 4096.
const TRACED_FLEET_OPS: usize = 32;

/// Issue `arrivals` from one sender thread per client (alternating
/// arrivals), each op at its due time or as soon as its sender is free.
/// Latency runs from the due time. Returns the op spans, sorted.
fn send_open_loop(
    arrivals: &[crate::schedule::Arrival],
    clients: Vec<ServeClient>,
    cases: &[FloatCase],
    phase: Phase,
) -> Vec<OpSpan> {
    let senders = clients.len();
    let ops = Mutex::new(Vec::new());
    emit(&ready_line(senders));
    let start = Instant::now();
    std::thread::scope(|s| {
        for (sender, mut client) in clients.into_iter().enumerate() {
            let ops = &ops;
            s.spawn(move || {
                for (i, a) in arrivals.iter().enumerate().skip(sender).step_by(senders) {
                    let due = start + Duration::from_secs_f64(a.due_s);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let late = Instant::now().saturating_duration_since(due).as_secs_f64();
                    let t = fleet_op(&mut client, &cases[a.shape]);
                    emit(&op_line(&OpRecord {
                        phase,
                        shape: a.shape,
                        lat: late + t.secs(),
                        svc: t.secs(),
                        late,
                        ok: t.ok,
                    }));
                    ops.lock().expect("op span list").push(OpSpan {
                        op: i as u64,
                        caller: sender,
                        shape: a.shape,
                        t0: t.t0,
                        t1: t.t1,
                    });
                }
            });
        }
    });
    emit(&end_line(start.elapsed().as_secs_f64()));
    let mut ops = ops.into_inner().expect("op span list");
    ops.sort_by_key(|o| o.t0);
    ops
}

fn fleet_worker(args: &WorkerArgs) -> Result<(), String> {
    let cases = float_cases(Workload::FleetOpen, args.seed);
    let nshapes = cases.len();
    let base_dir = args.run_dir.join(format!("fleet-{}", std::process::id()));
    // Set-up: the fleet plus the senders' connections, warmed.
    let (router, clients) = timed_setups(
        args.setup_reps,
        |rep| {
            let router = start_fleet(&base_dir.join(rep.to_string()), 2)?;
            let mut clients = (0..Workload::FleetOpen.callers())
                .map(|_| ServeClient::connect(router.socket()).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            warm_up(&mut clients, nshapes, |client, s| {
                fleet_op(client, &cases[s])
            });
            Ok((router, clients))
        },
        |(router, _)| router.shutdown(),
    )?;

    match args.phase {
        Phase::Window | Phase::Setup => {
            let arrivals = open_loop(args.order_seed(), FLEET_RATE, args.seconds, nshapes);
            let before = router.fleet_stats();
            send_open_loop(&arrivals, clients, &cases, Phase::Window);
            let after = router.fleet_stats();
            let ops = arrivals.len() as u64;
            let mut m = Metrics::new();
            let d = |f: fn(&FleetStats) -> u64| (f(&after) - f(&before)) as f64;
            put(&mut m, "serve.retries", d(|s| s.router.retries), ops);
            put(
                &mut m,
                "serve.busy_rejections",
                d(|s| s.router.rejected),
                ops,
            );
            put(&mut m, "serve.respawns", d(|s| s.router.respawns), ops);
            let e = |f: fn(&fmm_core::EngineStats) -> u64| {
                (shard_sum(&after, f) - shard_sum(&before, f)) as f64
            };
            let lookups = e(|s| s.plan_cache_hits) + e(|s| s.plan_cache_misses);
            put(
                &mut m,
                "engine.plan_hit_ratio",
                e(|s| s.plan_cache_hits) / lookups.max(1.0),
                ops,
            );
            put(
                &mut m,
                "engine.workspaces_created",
                e(|s| s.workspaces_created),
                ops,
            );
            put(
                &mut m,
                "runtime.steals_per_op",
                e(|s| s.tasks_stolen) / ops as f64,
                ops,
            );
            emit(&layers_line(&m));
        }
        Phase::Traced => {
            // The coordinator started this worker with FMM_TRACE_DIR, so the
            // shards trace from birth and flush their rings there.
            let trace_dir = std::env::var_os("FMM_TRACE_DIR")
                .map(PathBuf::from)
                .ok_or("traced fleet worker needs FMM_TRACE_DIR")?;
            let before = router.fleet_stats();
            // The same offered load as the window, for a fixed count of
            // ops few enough that no shard ring wraps.
            let arrivals = open_loop(
                args.order_seed(),
                FLEET_RATE,
                TRACED_FLEET_OPS as f64 / FLEET_RATE,
                nshapes,
            );
            let rings = start_tracing();
            let ops = send_open_loop(&arrivals, clients, &cases, Phase::Traced);
            fmm_trace::set_enabled(false);
            rings.drain();
            let after = router.fleet_stats();
            router.shutdown();

            let (mut all, dropped, mut parts) = rings.spans();
            let mut shard_spans = Vec::new();
            let mut files: Vec<PathBuf> = std::fs::read_dir(&trace_dir)
                .map_err(|e| format!("{}: {e}", trace_dir.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            files.sort();
            for file in files {
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("{}: {e}", file.display()))?;
                shard_spans.extend(spans::from_chrome(&text)?);
                parts.push(text);
            }
            // Shard rings report no drop count; compare what the files
            // hold with what the shards say they ran since spawn.
            let count = |k| shard_spans.iter().filter(|s: &&Span| s.kind == k).count() as u64;
            let served: u64 = after
                .slots
                .iter()
                .filter_map(|s| s.report.as_ref())
                .map(|r| r.served)
                .sum();
            let shard_dropped = served.saturating_sub(count(fmm_trace::SpanKind::RpcExecute))
                + shard_sum(&after, |s| s.base_gemms)
                    .saturating_sub(count(fmm_trace::SpanKind::BaseGemm))
                + shard_sum(&after, |s| s.peel_gemms)
                    .saturating_sub(count(fmm_trace::SpanKind::PeelGemm));
            all.extend(shard_spans);

            let n = ops.len().max(1) as f64;
            let delta = |f: fn(&fmm_core::EngineStats) -> u64| {
                (shard_sum(&after, f) - shard_sum(&before, f)) as f64 / n
            };
            let mut m = Metrics::new();
            put(
                &mut m,
                "core.base_gemms_per_op",
                delta(|s| s.base_gemms),
                ops.len() as u64,
            );
            put(
                &mut m,
                "core.peel_gemms_per_op",
                delta(|s| s.peel_gemms),
                ops.len() as u64,
            );
            // Shards plan exactly as a local width-1 engine does.
            let local = float_engine(1)?;
            let shapes = Workload::FleetOpen.shapes();
            let mut bytes = 0.0;
            for o in &ops {
                let (p, q, r) = shapes[o.shape];
                bytes += local
                    .plan_for(p, q, r)
                    .map_err(|e| e.to_string())?
                    .workspace_bytes() as f64;
            }
            put(
                &mut m,
                "core.workspace_mib_per_op",
                bytes / n / (1 << 20) as f64,
                ops.len() as u64,
            );
            return finish_traced(args, &all, &ops, parts, dropped + shard_dropped, m);
        }
    }
    router.shutdown();
    Ok(())
}

// ---------------------------------------------------------------------
// gf2_closure
// ---------------------------------------------------------------------

struct Gf2Case {
    mode: Gf2Mode,
    a: Gf2Matrix,
    b: Gf2Matrix,
    want: Gf2Matrix,
}

/// An `n × n` adjacency matrix with [`GF2_ONES_PER_ROW`] random ones
/// per row.
fn sparse(n: usize, r: &mut impl Rng) -> Gf2Matrix {
    let mut m = Gf2Matrix::zeros(n, n);
    for i in 0..n {
        for _ in 0..GF2_ONES_PER_ROW {
            m.set(i, r.gen_range(0..n), true);
        }
    }
    m
}

fn gf2_cases(seed: u64) -> Vec<Gf2Case> {
    GF2_OPS
        .iter()
        .enumerate()
        .map(|(i, &(n, mode))| {
            let mut r = rng(seed, i as u64);
            match mode {
                Gf2Mode::Xor => {
                    let a = Gf2Matrix::random(n, n, &mut r);
                    let b = Gf2Matrix::random(n, n, &mut r);
                    let want = a.mul_m4rm(&b);
                    Gf2Case { mode, a, b, want }
                }
                Gf2Mode::Or => {
                    let a = sparse(n, &mut r);
                    let b = sparse(n, &mut r);
                    let want = a.or_mul_naive(&b);
                    Gf2Case { mode, a, b, want }
                }
            }
        })
        .collect()
}

/// Plan every XOR op with automatic depth. Planning reads the pool
/// width, so it runs in a one-thread pool: at width 2 `Gf2Plan` fans
/// out through `fmm_runtime::scope` and meets the same freed-scope
/// failure as the engine's HYBRID scheme.
fn gf2_plans(cases: &[Gf2Case]) -> Result<Vec<Option<(Gf2Plan, Gf2Workspace)>>, String> {
    let pool = fmm_runtime::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    cases
        .iter()
        .map(|c| match c.mode {
            Gf2Mode::Or => Ok(None),
            Gf2Mode::Xor => {
                let n = c.a.rows();
                let plan = pool
                    .install(|| Gf2Planner::new().shape(n, n, n).plan())
                    .map_err(|e| e.to_string())?;
                let ws = Gf2Workspace::for_plan(&plan);
                Ok(Some((plan, ws)))
            }
        })
        .collect()
}

fn gf2_worker(args: &WorkerArgs) -> Result<(), String> {
    let cases = gf2_cases(args.seed);
    let nshapes = cases.len();
    let mut outs: Vec<Gf2Matrix> = cases
        .iter()
        .map(|c| Gf2Matrix::zeros(c.a.rows(), c.b.cols()))
        .collect();
    let run = |plans: &mut [Option<(Gf2Plan, Gf2Workspace)>], outs: &mut [Gf2Matrix], s: usize| {
        let case = &cases[s];
        let (ok, t0, t1) = match &mut plans[s] {
            Some((plan, ws)) => {
                let out = &mut outs[s];
                let (done, t0, t1) = timed(|| plan.execute_into(&case.a, &case.b, out, ws));
                (done.is_some() && outs[s] == case.want, t0, t1)
            }
            None => {
                let (c, t0, t1) = timed(|| case.a.or_mul(&case.b));
                (c.is_some_and(|c| c == case.want), t0, t1)
            }
        };
        Timed { ok, t0, t1 }
    };
    let plans = timed_setups(
        args.setup_reps,
        |_| {
            let mut plans = gf2_plans(&cases)?;
            for s in 0..nshapes {
                report(Phase::Setup, s, run(&mut plans, &mut outs, s));
            }
            Ok(plans)
        },
        drop,
    )?;
    let state = Mutex::new((plans, outs));
    let make = |_c: usize| {
        let (state, run) = (&state, &run);
        move |s: usize| {
            let mut guard = state.lock().expect("gf2 state");
            let (plans, outs) = &mut *guard;
            run(plans, outs, s)
        }
    };
    let steals = fmm_runtime::steal_count();
    match args.phase {
        Phase::Window | Phase::Setup => {
            let ops = closed_window(args.order_seed(), 1, nshapes, args.seconds, make);
            let steals = (fmm_runtime::steal_count() - steals) as f64;
            let mut m = Metrics::new();
            put(
                &mut m,
                "runtime.steals_per_op",
                steals / ops.max(1) as f64,
                ops,
            );
            emit(&layers_line(&m));
        }
        Phase::Traced => {
            let rings = start_tracing();
            let ops = closed_traced(args.order_seed(), 1, nshapes, 1, 2 * nshapes, make, &|| {
                rings.drain()
            });
            fmm_trace::set_enabled(false);
            rings.drain();
            let (spans, dropped, parts) = rings.spans();
            let owner = spans::attribute(&spans, &ops);
            let gemms = spans
                .iter()
                .zip(&owner)
                .filter(|(s, o)| s.kind == fmm_trace::SpanKind::BaseGemm && o.is_some())
                .count();
            let guard = state.lock().expect("gf2 state");
            let words: usize = ops
                .iter()
                .filter_map(|o| guard.0[o.shape].as_ref().map(|(p, _)| p.workspace_words()))
                .sum();
            drop(guard);
            let n = ops.len().max(1) as f64;
            let mut m = Metrics::new();
            put(
                &mut m,
                "core.base_gemms_per_op",
                gemms as f64 / n,
                ops.len() as u64,
            );
            put(&mut m, "core.peel_gemms_per_op", 0.0, ops.len() as u64);
            put(
                &mut m,
                "core.workspace_mib_per_op",
                words as f64 * 8.0 / n / (1 << 20) as f64,
                ops.len() as u64,
            );
            finish_traced(args, &spans, &ops, parts, dropped, m)?;
        }
    }
    Ok(())
}
