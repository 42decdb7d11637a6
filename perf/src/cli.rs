//! Command line and the coordinator process: run each workload's phases in
//! worker processes, respawn crashed workers, and turn the op streams,
//! worker counters and calibration into metrics.

use crate::calibrate::calibrate;
use crate::diff;
use crate::metrics::{put, Metrics, RunRecord, Sample, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile};
use crate::stream::{OpRecord, Phase, Tally};
use crate::workloads::{run_worker, WorkerArgs, Workload, SETUP_REPS, WIDTH};
use fmm_gemm::classical_flops;
use fmm_trace::TraceSink;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: perf [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
            [--json PATH] [--trace-out PATH]
       perf --diff A.json [A2.json ...] -- B.json [B2.json ...]
workloads: paper_shapes serve_mixed fleet_open gf2_closure";

/// A worker silent this long is hung; it is killed and counted as a
/// crash.
const HANG: Duration = Duration::from_secs(120);

/// Entry point of the `perf` binary; returns the exit code.
pub fn main() -> i32 {
    // Shard processes of the fleet workloads are re-execs of this binary.
    fmm_serve::maybe_run_shard_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--diff") => run_diff(&args[1..]),
        Some("--worker") => parse_worker(&args[1..]).and_then(|w| {
            run_worker(&w).map(|()| {
                crate::stream::emit(crate::stream::DONE_LINE);
                0
            })
        }),
        _ => parse_run_args(&args).and_then(|cfg| run_coordinator(&cfg)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        2
    })
}

fn run_diff(args: &[String]) -> Result<i32, String> {
    let split = args.iter().position(|a| a == "--").ok_or(USAGE)?;
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err(USAGE.into());
    }
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    diff::run(a, b, &diff::bounds_from_benchmark(&text)?)
}

/// Pair up `--flag value` arguments.
fn flag_values(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if flag.starts_with("--") => Ok((flag.as_str(), value.as_str())),
            _ => Err(format!("unexpected arguments {pair:?}\n{USAGE}")),
        })
        .collect()
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: bad value {value:?}"))
}

fn workload(value: &str) -> Result<Workload, String> {
    Workload::from_name(value).ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))
}

fn parse_worker(args: &[String]) -> Result<WorkerArgs, String> {
    let mut w = WorkerArgs {
        workload: Workload::PaperShapes,
        seed: 1,
        slice: 0,
        phase: Phase::Window,
        seconds: 10.0,
        setup_reps: 1,
        run_dir: PathBuf::from(".perf_run"),
        trace_part: None,
    };
    for (flag, value) in flag_values(args)? {
        match flag {
            "--workload" => w.workload = workload(value)?,
            "--seed" => w.seed = number(flag, value)?,
            "--slice" => w.slice = number(flag, value)?,
            "--phase" => {
                w.phase = match value {
                    "window" => Phase::Window,
                    "traced" => Phase::Traced,
                    _ => return Err(format!("--phase: expected window or traced, got {value:?}")),
                }
            }
            "--seconds" => w.seconds = number(flag, value)?,
            "--setup-reps" => w.setup_reps = number(flag, value)?,
            "--run-dir" => w.run_dir = PathBuf::from(value),
            "--trace-part" => w.trace_part = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown worker flag {flag}")),
        }
    }
    Ok(w)
}

struct RunArgs {
    workloads: Vec<Workload>,
    single: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    trace_out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut cfg = RunArgs {
        workloads: Workload::ALL.to_vec(),
        single: false,
        seed: 1,
        seconds: 16.0,
        trace: true,
        json: None,
        trace_out: None,
    };
    let mut trace = None;
    for (flag, value) in flag_values(args)? {
        match flag {
            "--workload" if value == "all" => {}
            "--workload" => {
                cfg.workloads = vec![workload(value)?];
                cfg.single = true;
            }
            "--seed" => cfg.seed = number(flag, value)?,
            "--seconds" => cfg.seconds = number(flag, value)?,
            "--trace" => trace = Some(number::<u8>(flag, value)? != 0),
            "--json" => cfg.json = Some(value.to_string()),
            "--trace-out" => cfg.trace_out = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    // One workload defaults to its untraced end-to-end run; the full
    // sweep defaults to everything.
    cfg.trace = trace.unwrap_or(!cfg.single);
    Ok(cfg)
}

fn run_coordinator(cfg: &RunArgs) -> Result<i32, String> {
    let run_dir = PathBuf::from(".perf_run").join(std::process::id().to_string());
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = sweep(cfg, &run_dir);
    reap_shards(&run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".perf_run");
    let records = result?;

    let mut code = 0;
    for rec in &records {
        let dropped = rec.metrics.get("trace.dropped").map_or(0.0, |s| s.value);
        if dropped > 0.0 {
            eprintln!(
                "perf: {}: the trace rings dropped {dropped} records; per-layer numbers are incomplete",
                rec.workload
            );
            code = 3;
        }
    }
    if let Some(path) = &cfg.json {
        let doc = serde::Value::Array(records.iter().map(RunRecord::to_value).collect());
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    if cfg.single {
        let specs = if cfg.trace { PER_LAYER } else { END_TO_END };
        println!("{}", records[0].result_line(specs));
    }
    Ok(code)
}

fn sweep(cfg: &RunArgs, run_dir: &Path) -> Result<Vec<RunRecord>, String> {
    let mut calib = None;
    if cfg.trace && !cfg.single {
        calib = Some(calibrate(run_dir)?);
    }
    let mut records = Vec::new();
    let mut parts = Vec::new();
    for &w in &cfg.workloads {
        let part = run_dir.join(format!("trace-{}.json", w.name()));
        let window = drive(w, cfg.seed, Phase::Window, cfg.seconds, run_dir, None)?;
        let mut rec = RunRecord {
            workload: w.name().to_string(),
            seed: cfg.seed,
            attempted: window.attempted,
            failed: window.failed,
            metrics: end_to_end(w, &window),
        };
        if cfg.trace {
            let traced = drive(w, cfg.seed, Phase::Traced, 0.0, run_dir, Some(&part))?;
            if calib.is_none() {
                calib = Some(calibrate(run_dir)?);
            }
            rec.attempted += traced.attempted;
            rec.failed += traced.failed;
            rec.metrics
                .extend(per_layer(w, &window, &traced, &rec, calib.as_ref()));
            for spec in PER_LAYER {
                rec.metrics
                    .entry(spec.name.to_string())
                    .or_insert(Sample { value: 0.0, n: 0 });
            }
            parts.push(part);
        }
        for (name, s) in &rec.metrics {
            println!(
                "{} {name} {} {} {}",
                w.name(),
                s.value,
                crate::metrics::unit_of(name),
                s.n
            );
        }
        records.push(rec);
    }
    if let Some(out) = &cfg.trace_out {
        let texts = parts
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect::<Result<Vec<_>, _>>()?;
        let merged = TraceSink::merge_chrome_json(&texts)?;
        std::fs::write(out, merged).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(records)
}

/// Window seconds one worker process measures. A longer window is split
/// into up to [`MAX_SLICES`] fresh processes whose ops are pooled: run
/// speed on a shared host depends on where a process's memory lands, and
/// pooling several processes averages that out of every run.
const SLICE_S: f64 = 4.0;
const MAX_SLICES: usize = 4;

/// Run one phase of a workload in worker processes until it completes,
/// respawning a worker that dies. A slice keeps its deadline across
/// respawns, and the time from a crash to the respawned worker's start
/// counts as window time.
fn drive(
    w: Workload,
    seed: u64,
    phase: Phase,
    seconds: f64,
    run_dir: &Path,
    trace_part: Option<&Path>,
) -> Result<Tally, String> {
    let traced = phase == Phase::Traced;
    let slices = if traced {
        1
    } else {
        ((seconds / SLICE_S).ceil() as usize).clamp(1, MAX_SLICES)
    };
    let slice_len = seconds / slices as f64;
    let mut tally = Tally::default();
    let mut spawned = 0;
    for slice in 0..slices {
        let mut deadline: Option<Instant> = None;
        let mut down_since: Option<Instant> = None;
        for attempt in 0.. {
            let remaining = deadline.map_or(slice_len, |d| {
                d.saturating_duration_since(Instant::now()).as_secs_f64()
            });
            let reps = if spawned == 0 && !traced {
                SETUP_REPS
            } else {
                1
            };
            let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
            cmd.arg("--worker")
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--slice", &slice.to_string()])
                .args(["--phase", if traced { "traced" } else { "window" }])
                .args(["--seconds", &remaining.to_string()])
                .args(["--setup-reps", &reps.to_string()])
                .arg("--run-dir")
                .arg(run_dir)
                .env("FMM_THREADS", WIDTH.to_string())
                .env_remove("FMM_TRACE_DIR");
            if let Some(part) = trace_part {
                cmd.arg("--trace-part").arg(part);
                let dir = run_dir.join(format!("shard-spans-{}-{spawned}", w.name()));
                std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                cmd.env("FMM_TRACE_DIR", dir);
            }
            spawned += 1;
            let (ready_at, status) = stream_worker(cmd, &mut tally, w)?;
            if let (Some(down), Some(ready)) = (down_since.take(), ready_at) {
                tally.elapsed += ready.duration_since(down).as_secs_f64();
            }
            if deadline.is_none() {
                deadline = ready_at.map(|t| t + Duration::from_secs_f64(slice_len));
            }
            if !tally.end_incarnation(ready_at.map_or(0.0, |t| t.elapsed().as_secs_f64())) {
                break;
            }
            eprintln!(
                "perf: {} worker died ({status}); crash {}",
                w.name(),
                tally.crashes
            );
            reap_shards(run_dir);
            let now = Instant::now();
            if deadline.is_some() {
                down_since = Some(now);
            }
            let give_up = if traced {
                attempt >= 1
            } else {
                deadline.map_or(attempt >= 2, |d| now >= d)
            };
            if give_up {
                break;
            }
        }
    }
    if tally.attempted == 0 {
        return Err(format!("{}: no op completed", w.name()));
    }
    Ok(tally)
}

/// Run one worker process to its end, folding its stdout into `tally`;
/// a worker silent for [`HANG`] is killed. Returns when its measured
/// phase started, and its exit status.
fn stream_worker(
    mut cmd: Command,
    tally: &mut Tally,
    w: Workload,
) -> Result<(Option<Instant>, std::process::ExitStatus), String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut ready_at = None;
    loop {
        match rx.recv_timeout(HANG) {
            Ok(line) => {
                if tally.feed(&line) == Some("ready") {
                    ready_at = Some(Instant::now());
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                eprintln!("perf: {} worker silent for {HANG:?}; killing it", w.name());
                let _ = child.kill();
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let _ = reader.join();
    Ok((ready_at, status))
}

/// Drain any shard a dead worker left behind (its socket still exists)
/// and wait for it to remove its socket on the way out.
fn reap_shards(dir: &Path) {
    let mut sockets = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for p in entries.filter_map(|e| e.ok().map(|e| e.path())) {
            if p.is_dir() {
                stack.push(p);
            } else if p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with('s') && n.ends_with(".sock"))
            {
                sockets.push(p);
            }
        }
    }
    for sock in sockets {
        if let Ok(mut client) =
            fmm_serve::ServeClient::connect_with_timeout(&sock, Duration::from_secs(2))
        {
            let _ = client.drain();
            let deadline = Instant::now() + Duration::from_secs(10);
            while sock.exists() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Median service time per shape over the ok ops of `phase`.
fn shape_medians(w: Workload, ops: &[OpRecord], phase: Phase) -> Vec<Option<f64>> {
    (0..w.shapes().len())
        .map(|s| {
            let t: Vec<f64> = ops
                .iter()
                .filter(|o| o.phase == phase && o.ok && o.shape == s)
                .map(|o| o.svc)
                .collect();
            (!t.is_empty()).then(|| median(&t))
        })
        .collect()
}

fn end_to_end(w: Workload, t: &Tally) -> Metrics {
    let ok: Vec<&OpRecord> = t
        .ops
        .iter()
        .filter(|o| o.phase == Phase::Window && o.ok)
        .collect();
    let n = ok.len() as u64;
    let lat_ms: Vec<f64> = ok.iter().map(|o| o.lat * 1e3).collect();
    let shapes = w.shapes();
    let gops: Vec<f64> = shape_medians(w, &t.ops, Phase::Window)
        .iter()
        .zip(&shapes)
        .filter_map(|(med, &(p, q, r))| med.map(|s| classical_flops(p, q, r) / 1e9 / s))
        .collect();
    let mut m = Metrics::new();
    put(
        &mut m,
        "effective_gflops",
        geomean(&gops),
        gops.len() as u64,
    );
    put(&mut m, "ops_per_s", n as f64 / t.elapsed.max(1e-9), n);
    put(&mut m, "latency_p50_ms", percentile(&lat_ms, 0.5), n);
    put(&mut m, "latency_p90_ms", percentile(&lat_ms, 0.9), n);
    put(&mut m, "bench.latency_p99_ms", percentile(&lat_ms, 0.99), n);
    put(
        &mut m,
        "setup_s",
        median(&t.setup_s),
        t.setup_s.len() as u64,
    );
    m
}

fn per_layer(
    w: Workload,
    window: &Tally,
    traced: &Tally,
    rec: &RunRecord,
    calib: Option<&Metrics>,
) -> Metrics {
    let mut m = Metrics::new();
    if let Some(c) = calib {
        m.extend(c.iter().map(|(k, v)| (k.clone(), *v)));
    }
    m.extend(window.layers.iter().map(|(k, v)| (k.clone(), *v)));
    m.extend(traced.layers.iter().map(|(k, v)| (k.clone(), *v)));
    put(
        &mut m,
        "bench.crashes",
        (window.crashes + traced.crashes) as f64,
        2,
    );
    put(
        &mut m,
        "bench.failed_frac",
        rec.failed as f64 / rec.attempted.max(1) as f64,
        rec.attempted,
    );
    let late: Vec<f64> = window
        .ops
        .iter()
        .filter(|o| o.phase == Phase::Window)
        .map(|o| o.late * 1e3)
        .collect();
    put(
        &mut m,
        "bench.gen_late_ms_p99",
        percentile(&late, 0.99),
        late.len() as u64,
    );
    let ratios: Vec<f64> = shape_medians(w, &traced.ops, Phase::Traced)
        .iter()
        .zip(shape_medians(w, &window.ops, Phase::Window))
        .filter_map(|(t, u)| Some(t.as_ref()? / u?))
        .collect();
    put(
        &mut m,
        "trace.overhead_pct",
        100.0 * (geomean(&ratios) - 1.0),
        ratios.len() as u64,
    );
    m
}
