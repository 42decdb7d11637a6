//! The op stream between a worker process and the coordinator process.
//!
//! A worker writes one JSON line per event to stdout: `setup` (one
//! set-up repetition), `ready` (a measured phase starts, with how many
//! callers keep an op in flight), `op` (one per finished op), `end`
//! (the phase's wall time), `layers` (per-layer metrics) and `done`.
//! The coordinator folds the lines into a [`Tally`]. A stream that stops
//! without `done` is a crash: the ops in flight count as attempted and
//! failed, and the crash is counted.

use crate::metrics::{compact, put, Metrics};
use serde::Value;
use std::io::Write;

/// Which part of a worker's life an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A warm-up op inside a set-up repetition.
    Setup,
    /// The untraced measurement window.
    Window,
    /// The traced run.
    Traced,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Setup => "s",
            Phase::Window => "w",
            Phase::Traced => "t",
        }
    }

    fn from_code(code: &str) -> Option<Phase> {
        match code {
            "s" => Some(Phase::Setup),
            "w" => Some(Phase::Window),
            "t" => Some(Phase::Traced),
            _ => None,
        }
    }
}

/// One finished op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Phase the op ran in.
    pub phase: Phase,
    /// Index into the workload's shape list.
    pub shape: usize,
    /// Latency in seconds: from the due time for open-loop ops, from
    /// the call otherwise.
    pub lat: f64,
    /// Service time in seconds, from the call to the checked result.
    pub svc: f64,
    /// How late the generator issued the op, in seconds.
    pub late: f64,
    /// The op returned a product that passed its check.
    pub ok: bool,
}

/// Write one line to stdout and flush it, so a crash right after loses
/// nothing already reported.
pub fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    // A closed pipe means the coordinator is gone; there is nobody to tell.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// A finished set-up repetition.
pub fn setup_line(seconds: f64) -> String {
    format!("{{\"ev\":\"setup\",\"s\":{seconds}}}")
}

/// A measured phase starts with `callers` ops in flight from now on.
pub fn ready_line(callers: usize) -> String {
    format!("{{\"ev\":\"ready\",\"callers\":{callers}}}")
}

/// One finished op.
pub fn op_line(op: &OpRecord) -> String {
    format!(
        "{{\"ev\":\"op\",\"ph\":\"{}\",\"shape\":{},\"lat\":{},\"svc\":{},\"late\":{},\"ok\":{}}}",
        op.phase.code(),
        op.shape,
        op.lat,
        op.svc,
        op.late,
        op.ok
    )
}

/// The measured phase ended after `elapsed` seconds.
pub fn end_line(elapsed: f64) -> String {
    format!("{{\"ev\":\"end\",\"elapsed\":{elapsed}}}")
}

/// Per-layer metrics the worker measured.
pub fn layers_line(metrics: &Metrics) -> String {
    let pairs = metrics
        .iter()
        .map(|(k, s)| {
            (
                k.clone(),
                Value::Array(vec![Value::Num(s.value), Value::Num(s.n as f64)]),
            )
        })
        .collect();
    compact(&Value::Object(vec![
        ("ev".into(), Value::Str("layers".into())),
        ("metrics".into(), Value::Object(pairs)),
    ]))
}

/// The worker finished cleanly.
pub const DONE_LINE: &str = "{\"ev\":\"done\"}";

/// Coordinator-side fold of every worker incarnation's stream for one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Set-up repetition times of the first incarnation.
    pub setup_s: Vec<f64>,
    /// Every op reported.
    pub ops: Vec<OpRecord>,
    /// Ops attempted, including those lost in crashes.
    pub attempted: u64,
    /// Ops failed, including those lost in crashes.
    pub failed: u64,
    /// Incarnations that ended without `done`.
    pub crashes: u64,
    /// Wall time of the measured phase, summed over incarnations.
    pub elapsed: f64,
    /// Per-layer metrics reported by the workers.
    pub layers: Metrics,
    incarnation: u64,
    inflight: u64,
    running: bool,
    done: bool,
}

impl Tally {
    /// Fold one line; returns the event name, or `None` for a line that
    /// is not a well-formed event (such as one cut short by a crash).
    pub fn feed(&mut self, line: &str) -> Option<&'static str> {
        let v: Value = serde_json::from_str(line).ok()?;
        let num = |k: &str| match v.get(k) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        };
        let Some(Value::Str(ev)) = v.get("ev") else {
            return None;
        };
        match ev.as_str() {
            "setup" => {
                let s = num("s")?;
                if self.incarnation == 0 {
                    self.setup_s.push(s);
                }
                Some("setup")
            }
            "ready" => {
                self.inflight = num("callers")? as u64;
                self.running = true;
                Some("ready")
            }
            "op" => {
                let Some(Value::Str(ph)) = v.get("ph") else {
                    return None;
                };
                let op = OpRecord {
                    phase: Phase::from_code(ph)?,
                    shape: num("shape")? as usize,
                    lat: num("lat")?,
                    svc: num("svc")?,
                    late: num("late")?,
                    ok: matches!(v.get("ok"), Some(Value::Bool(true))),
                };
                self.attempted += 1;
                self.failed += u64::from(!op.ok);
                self.ops.push(op);
                Some("op")
            }
            "end" => {
                self.elapsed += num("elapsed")?;
                self.running = false;
                self.inflight = 0;
                Some("end")
            }
            "layers" => {
                let Some(Value::Object(pairs)) = v.get("metrics") else {
                    return None;
                };
                for (name, pair) in pairs {
                    let Value::Array(vn) = pair else { continue };
                    let [Value::Num(value), Value::Num(n)] = vn.as_slice() else {
                        continue;
                    };
                    // Several slices report the same counters: rates and
                    // ratios combine weighted by samples, totals add up.
                    let (value, n) = match self.layers.get(name) {
                        None => (*value, *n as u64),
                        Some(old) if name.ends_with("_per_op") || name.ends_with("_ratio") => {
                            let total = old.n as f64 + n;
                            let mean = (old.value * old.n as f64 + value * n) / total.max(1.0);
                            (mean, old.n + *n as u64)
                        }
                        Some(old) => (old.value + value, old.n + *n as u64),
                    };
                    put(&mut self.layers, name, value, n);
                }
                Some("layers")
            }
            "done" => {
                self.done = true;
                Some("done")
            }
            _ => None,
        }
    }

    /// Close the current incarnation. `running_for` is the coordinator's own
    /// measure of how long its measured phase had run, used only when
    /// the worker died before reporting `end`. Returns whether it crashed.
    pub fn end_incarnation(&mut self, running_for: f64) -> bool {
        let crashed = !self.done;
        if crashed {
            self.crashes += 1;
            self.attempted += self.inflight;
            self.failed += self.inflight;
            if self.running {
                self.elapsed += running_for;
            }
        }
        self.incarnation += 1;
        self.inflight = 0;
        self.running = false;
        self.done = false;
        crashed
    }
}
