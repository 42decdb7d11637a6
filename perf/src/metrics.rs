//! Metric names and units, the per-workload run record, and its JSON
//! forms: the one-line result a run ends with and the `--json` file
//! `--diff` compares.

use serde::Value;
use std::collections::BTreeMap;

/// A metric's name and unit. `BENCHMARK.json` lists the same pairs.
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Spec] = &[
    spec("effective_gflops", "Gop/s"),
    spec("ops_per_s", "1/s"),
    spec("latency_p50_ms", "ms"),
    spec("latency_p90_ms", "ms"),
    spec("setup_s", "s"),
];

/// One layer each, from calibration, window counters and the traced
/// run. A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[Spec] = &[
    spec("machine.triad_gbs.t1", "GB/s"),
    spec("machine.triad_gbs.t2", "GB/s"),
    spec("machine.madd_gflops", "GFLOP/s"),
    spec("gemm.seq_gflops", "GFLOP/s"),
    spec("gemm.par_gflops", "GFLOP/s"),
    spec("gemm.small_gflops", "GFLOP/s"),
    spec("gemm.peak_frac", "ratio"),
    spec("kernels.lincomb_gbs", "GB/s"),
    spec("kernels.par_lincomb_gbs", "GB/s"),
    spec("kernels.triad_frac", "ratio"),
    spec("core.base_gemm_pct", "%"),
    spec("core.additions_pct", "%"),
    spec("core.combine_pct", "%"),
    spec("core.peel_pct", "%"),
    spec("core.uncovered_pct", "%"),
    spec("core.base_gemms_per_op", "count"),
    spec("core.peel_gemms_per_op", "count"),
    spec("core.workspace_mib_per_op", "MiB"),
    spec("core.fast_vs_classical", "ratio"),
    spec("planner.plan_ms", "ms"),
    spec("planner.fast_frac", "ratio"),
    spec("engine.overhead_us", "us"),
    spec("engine.plan_lookup_us", "us"),
    spec("engine.ws_checkout_us", "us"),
    spec("engine.plan_hit_ratio", "ratio"),
    spec("engine.workspaces_created", "count"),
    spec("runtime.steals_per_op", "count"),
    spec("runtime.park_pct", "%"),
    spec("serve.wire_us", "us"),
    spec("serve.rpc_decode_us", "us"),
    spec("serve.rpc_encode_us", "us"),
    spec("serve.router_forward_us", "us"),
    spec("serve.retries", "count"),
    spec("serve.busy_rejections", "count"),
    spec("serve.respawns", "count"),
    spec("gf2.m4rm_gbitops", "Gop/s"),
    spec("gf2.or_gbitops", "Gop/s"),
    spec("gf2.strassen_vs_m4rm", "ratio"),
    spec("gf2.xor_gbs", "GB/s"),
    spec("bench.crashes", "count"),
    spec("bench.failed_frac", "ratio"),
    spec("bench.latency_p99_ms", "ms"),
    spec("bench.gen_late_ms_p99", "ms"),
    spec("trace.overhead_pct", "%"),
    spec("trace.dropped", "count"),
];

/// Per-layer metrics that repeat exactly for a given seed and build;
/// `--diff` lists every one that changed instead of judging noise.
pub const EXACT: &[&str] = &[
    "core.base_gemms_per_op",
    "core.peel_gemms_per_op",
    "core.workspace_mib_per_op",
    "planner.fast_frac",
    "engine.workspaces_created",
    "trace.dropped",
];

/// Unit of a known metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|s| s.name == name)
        .map_or("", |s| s.unit)
}

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples (ops, shapes, repetitions) the value summarizes.
    pub n: u64,
}

/// Metric name → sample.
pub type Metrics = BTreeMap<String, Sample>;

/// Insert a metric.
pub fn put(m: &mut Metrics, name: &str, value: f64, n: u64) {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    m.insert(
        name.to_string(),
        Sample {
            value: value + 0.0,
            n,
        },
    );
}

/// Everything one workload run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Ops attempted, including ones lost in a worker crash.
    pub attempted: u64,
    /// Ops that panicked, errored, returned a wrong product or were lost.
    pub failed: u64,
    /// Every metric measured.
    pub metrics: Metrics,
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

impl RunRecord {
    /// The one-line result a single-workload run ends with: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (value and unit of each metric in `specs`).
    pub fn result_line(&self, specs: &[Spec]) -> String {
        let metrics = specs
            .iter()
            .map(|s| {
                let value = self.metrics.get(s.name).map_or(0.0, |m| m.value);
                (
                    s.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), num(value)),
                        ("unit".into(), Value::Str(s.unit.into())),
                    ]),
                )
            })
            .collect();
        compact(&Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
    }

    /// The `--json` form, read back by [`RunRecord::from_value`].
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), num(s.value)),
                        ("unit".into(), Value::Str(unit_of(name).into())),
                        ("n".into(), num(s.n as f64)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), num(self.seed as f64)),
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// Parse one record of a `--json` file.
    pub fn from_value(v: &Value) -> Result<RunRecord, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("run record lacks `{k}`"));
        let number = |x: &Value| match x {
            Value::Num(n) => Ok(*n),
            _ => Err("expected a number".to_string()),
        };
        let Value::Str(workload) = field("workload")? else {
            return Err("`workload` is not a string".into());
        };
        let Value::Object(pairs) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Metrics::new();
        for (name, m) in pairs {
            let value = number(m.get("value").ok_or("metric lacks `value`")?)?;
            let n = m.get("n").map(number).transpose()?.unwrap_or(1.0);
            put(&mut metrics, name, value, n as u64);
        }
        Ok(RunRecord {
            workload: workload.clone(),
            seed: number(field("seed")?)? as u64,
            attempted: number(field("attempted")?)? as u64,
            failed: number(field("failed")?)? as u64,
            metrics,
        })
    }
}

/// Single-line JSON. Non-finite numbers, which JSON cannot carry, are
/// written as 0.
pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    write_compact(v, &mut out);
    out
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Value::Num(_) => out.push('0'),
        Value::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(&Value::Str(k.clone()), out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}
