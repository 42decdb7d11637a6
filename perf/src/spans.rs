//! The traced run's span ledger: the benchmark's own op spans around
//! every public call, the program's fmm-trace spans (local rings and
//! shard trace files), attribution of each program span to the op whose
//! interval contains it, self times, and the per-layer metrics derived
//! from them.

use crate::metrics::{put, Metrics};
use crate::stats::percentile;
use fmm_trace::{SpanKind, TraceSink};
use serde::Value;

/// One program span on the trace clock (ns since the Unix epoch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Process the span was recorded in.
    pub pid: u64,
    /// Track (thread) within the process.
    pub tid: u64,
    /// What it measured.
    pub kind: SpanKind,
    /// Start.
    pub t0: u64,
    /// End.
    pub t1: u64,
}

/// One op as the benchmark saw it from outside the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpan {
    /// Op id, unique within the traced run.
    pub op: u64,
    /// Caller thread index.
    pub caller: usize,
    /// Shape index.
    pub shape: usize,
    /// Call start.
    pub t0: u64,
    /// Checked result in hand.
    pub t1: u64,
}

/// Spans of a collected ring snapshot, and how many records its rings
/// overwrote.
pub fn from_sink(sink: &TraceSink) -> (Vec<Span>, u64) {
    let spans = sink
        .tracks
        .iter()
        .flat_map(|t| {
            t.records.iter().map(move |r| Span {
                pid: sink.pid,
                tid: t.tid,
                kind: r.kind,
                t0: r.t_start,
                t1: r.t_end,
            })
        })
        .collect();
    (spans, sink.tracks.iter().map(|t| t.dropped).sum())
}

/// Spans of a Chrome trace written by another process (a shard's
/// `FMM_TRACE_DIR` file). Timestamps come back at the JSON number's
/// precision, a fraction of a microsecond.
pub fn from_chrome(text: &str) -> Result<Vec<Span>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Value::Array(events) = doc else {
        return Err("a Chrome trace must be an event array".into());
    };
    let num = |ev: &Value, k: &str| match ev.get(k) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    };
    Ok(events
        .iter()
        .filter_map(|ev| {
            let Some(Value::Str(name)) = ev.get("name") else {
                return None;
            };
            let kind = SpanKind::from_name(name)?;
            let t0 = (num(ev, "ts")? * 1000.0) as u64;
            let dur = (num(ev, "dur").unwrap_or(0.0) * 1000.0) as u64;
            Some(Span {
                pid: num(ev, "pid")? as u64,
                tid: num(ev, "tid")? as u64,
                kind,
                t0,
                t1: t0 + dur,
            })
        })
        .collect())
}

/// For each span, the index of the first op whose interval contains
/// the span's midpoint.
pub fn attribute(spans: &[Span], ops: &[OpSpan]) -> Vec<Option<usize>> {
    spans
        .iter()
        .map(|s| {
            let mid = s.t0 + (s.t1 - s.t0) / 2;
            ops.iter().position(|o| o.t0 <= mid && mid <= o.t1)
        })
        .collect()
}

/// Self time of each span: its duration minus the time its direct
/// children on the same track cover (spans on one track nest).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.pid, s.tid, s.t0, std::cmp::Reverse(s.t1))
    });
    let mut own: Vec<u64> = spans.iter().map(|s| s.t1 - s.t0).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        let s = spans[i];
        while let Some(&top) = stack.last() {
            let p = spans[top];
            if (p.pid, p.tid) == (s.pid, s.tid) && p.t0 <= s.t0 && s.t1 <= p.t1 {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            own[parent] = own[parent].saturating_sub(s.t1 - s.t0);
        }
        stack.push(i);
    }
    own
}

/// The union of intervals as sorted disjoint intervals.
fn merged(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (a, b) in intervals {
        match out.last_mut() {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Total length of the union of intervals.
pub fn union_ns(intervals: Vec<(u64, u64)>) -> u64 {
    merged(intervals).iter().map(|(a, b)| b - a).sum()
}

/// Per-layer metrics of a traced run: leaf work shares, the share of op
/// wall time no leaf span covers, parked share of `width` workers,
/// span medians of the engine and serve phases. Only spans attributed
/// to an op count. Also prints a per-kind ledger to stderr.
pub fn metrics(spans: &[Span], ops: &[OpSpan], width: usize) -> Metrics {
    let owner = attribute(spans, ops);
    let mine: Vec<(Span, &OpSpan)> = spans
        .iter()
        .zip(&owner)
        .filter_map(|(s, o)| o.map(|o| (*s, &ops[o])))
        .collect();
    let op_union = merged(ops.iter().map(|o| (o.t0, o.t1)).collect());
    let wall = op_union.iter().map(|(a, b)| b - a).sum::<u64>().max(1) as f64;
    let dur = |k: SpanKind| -> Vec<f64> {
        mine.iter()
            .filter(|(s, _)| s.kind == k)
            .map(|(s, _)| (s.t1 - s.t0) as f64)
            .collect()
    };
    let total = |k: SpanKind| dur(k).iter().sum::<f64>();
    let p50_us = |k: SpanKind| percentile(&dur(k), 0.5) / 1e3;

    let mut m = Metrics::new();
    let n = ops.len() as u64;
    let leaf_kinds = [
        ("core.base_gemm_pct", SpanKind::BaseGemm),
        ("core.additions_pct", SpanKind::Additions),
        ("core.combine_pct", SpanKind::Combine),
        ("core.peel_pct", SpanKind::PeelGemm),
    ];
    let leaf_total: f64 = leaf_kinds.iter().map(|&(_, k)| total(k)).sum();
    for (name, k) in leaf_kinds {
        let share = if leaf_total > 0.0 {
            100.0 * total(k) / leaf_total
        } else {
            0.0
        };
        put(&mut m, name, share, n);
    }
    let covered = union_ns(
        mine.iter()
            .filter(|(s, _)| s.kind.is_leaf_work())
            .map(|(s, o)| (s.t0.max(o.t0), s.t1.min(o.t1).max(s.t0.max(o.t0))))
            .collect(),
    ) as f64;
    put(
        &mut m,
        "core.uncovered_pct",
        100.0 * (1.0 - covered / wall),
        n,
    );
    // Parked time of the threads that ran leaf work (an idle pool, such
    // as a shard's unused f32 engine, parks throughout), within ops.
    let workers: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.kind.is_leaf_work())
        .map(|s| (s.pid, s.tid))
        .collect();
    let parked: u64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Park && workers.contains(&(s.pid, s.tid)))
        .map(|s| {
            op_union
                .iter()
                .map(|&(a, b)| s.t1.min(b).saturating_sub(s.t0.max(a)))
                .sum::<u64>()
        })
        .sum();
    put(
        &mut m,
        "runtime.park_pct",
        100.0 * parked as f64 / (wall * width.max(1) as f64),
        n,
    );
    for (name, k) in [
        ("engine.plan_lookup_us", SpanKind::PlanLookup),
        ("engine.ws_checkout_us", SpanKind::WorkspaceCheckout),
        ("serve.rpc_decode_us", SpanKind::RpcDecode),
        ("serve.rpc_encode_us", SpanKind::RpcEncode),
        ("serve.router_forward_us", SpanKind::RouterForward),
    ] {
        put(&mut m, name, p50_us(k), dur(k).len() as u64);
    }

    let selfs = self_times(spans);
    eprintln!(
        "span ledger ({} ops, {} of {} spans attributed):",
        ops.len(),
        mine.len(),
        spans.len()
    );
    for k in SpanKind::ALL {
        let idx: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].kind == k && owner[i].is_some())
            .collect();
        if idx.is_empty() {
            continue;
        }
        let self_ms: f64 = idx.iter().map(|&i| selfs[i] as f64).sum::<f64>() / 1e6;
        eprintln!(
            "  {:<20} n={:<6} p50={:>10.2} us  self={:>10.3} ms",
            k.name(),
            idx.len(),
            p50_us(k),
            self_ms
        );
    }
    m
}

/// The benchmark's op spans as Chrome trace events in a process of
/// their own, for merging with the program's traces.
pub fn ops_chrome_json(ops: &[OpSpan], label: &str) -> String {
    let pid = 1_000_000_000 + u64::from(std::process::id());
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    let mut parts = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{label}\"}}}}"
    )];
    for o in ops {
        parts.push(format!(
            "{{\"name\":\"op\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"op\":{},\"shape\":{}}}}}",
            us(o.t0),
            us(o.t1 - o.t0),
            o.caller,
            o.op,
            o.shape
        ));
    }
    format!("[\n{}\n]\n", parts.join(",\n"))
}
