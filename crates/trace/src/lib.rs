//! `fmm-trace`: always-on observability for the fast-matmul stack.
//!
//! Three pieces, all safe Rust with no dependencies beyond the
//! vendored `serde` value tree:
//!
//! 1. **Span/event recorder** — per-thread fixed-capacity ring buffers
//!    of `(span_kind, t_start, t_end, payload)` records. The hot path
//!    is gated on one [`AtomicBool`] (relaxed load); when tracing is
//!    disabled, [`span_start`] returns `0` and [`span_end`] is a
//!    branch on that zero — no clock read, no buffer write, no
//!    allocation. Callers in per-leaf loops hoist the gate once (see
//!    [`now_if`]) so the leaf loop carries only a plain bool test.
//!    Each thread claims its own ring on first record, so recording
//!    takes an uncontended mutex — no cross-thread traffic.
//! 2. **Export** — [`TraceSink::collect`] snapshots every ring;
//!    [`TraceSink::export_chrome_json`] renders Chrome trace-event
//!    JSON loadable in Perfetto / `chrome://tracing`, and
//!    [`TraceSink::work_share`] reports the gemm-vs-addition time share
//!    (a software re-instrumentation of the paper's Fig. 4 schedule
//!    comparison).
//! 3. **Histograms** ([`Histogram`], [`HistogramSet`]) — mergeable
//!    log-bucketed latency histograms with the workspace's single
//!    percentile rule.
//!
//! Timestamps are nanoseconds anchored to the Unix epoch at process
//! trace-init (monotonic within a process via [`std::time::Instant`];
//! cross-process alignment is wall-clock accurate, which is what a
//! merged multi-process Chrome trace needs).

#![forbid(unsafe_code)]

mod histogram;
mod sink;

pub use histogram::{
    bucket_hi, bucket_index, bucket_lo, bucket_mid, merge_rows, merged_total, percentile_rank,
    percentile_sorted, Histogram, HistogramRow, HistogramSet, NUM_BUCKETS, RELATIVE_ERROR_BOUND,
    SUB_BUCKETS, SUB_BUCKET_BITS,
};
pub use sink::{TraceSink, TrackSnapshot};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime};

/// Records a ring can hold before the oldest are overwritten.
pub const RING_CAPACITY: usize = 4096;
/// Maximum distinct thread tracks; later threads share the last track
/// (mutex-protected, so sharing is safe, just less legible).
pub const MAX_TRACKS: usize = 128;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off, process-wide. Histograms
/// ([`HistogramSet`]) are independent of this gate — they are
/// always-on by design.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Current state of the recording gate.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Epoch {
    instant: Instant,
    unix_ns: u64,
}

static EPOCH: OnceLock<Epoch> = OnceLock::new();

fn epoch() -> &'static Epoch {
    EPOCH.get_or_init(|| Epoch {
        instant: Instant::now(),
        unix_ns: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
    })
}

/// The trace clock: nanoseconds since the Unix epoch, monotonic
/// within the process. This is the only sanctioned timing source for
/// executor/gemm hot paths (enforced by the xtask lint).
#[inline]
pub fn now_ns() -> u64 {
    let e = epoch();
    e.unix_ns + e.instant.elapsed().as_nanos() as u64
}

/// `now_ns()` when `flag` is set, else `0` — for call sites that
/// hoisted the [`enabled`] check out of a loop. A zero start
/// timestamp makes the matching [`span_end`] a no-op.
#[inline(always)]
pub fn now_if(flag: bool) -> u64 {
    if flag {
        now_ns()
    } else {
        0
    }
}

/// Start a span: reads the clock only when tracing is enabled.
#[inline(always)]
pub fn span_start() -> u64 {
    now_if(enabled())
}

/// Finish a span started at `t_start` (from [`span_start`] /
/// [`now_if`]); a zero `t_start` means recording was off at span
/// start and the call is a no-op.
#[inline]
pub fn span_end(kind: SpanKind, t_start: u64, payload: u64) {
    if t_start == 0 {
        return;
    }
    push(Record {
        kind,
        t_start,
        t_end: now_ns(),
        payload,
    });
}

/// Record an instant event (zero-duration span) if tracing is enabled.
#[inline]
pub fn event(kind: SpanKind, payload: u64) {
    if !enabled() {
        return;
    }
    let t = now_ns();
    push(Record {
        kind,
        t_start: t,
        t_end: t,
        payload,
    });
}

/// What a span measures. Kinds cover the whole stack: engine request
/// anatomy (plan lookup, workspace checkout), executor recursion
/// (S/T additions, base-case and peel gemms, M-combine), runtime
/// scheduler events (steal, park), and serve RPC phases
/// (decode/execute/encode, router forward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// Engine plan-cache lookup (hit or miss+plan).
    PlanLookup,
    /// Engine workspace pool checkout.
    WorkspaceCheckout,
    /// S/T operand formation (the paper's matrix additions).
    Additions,
    /// Base-case gemm at a recursion leaf.
    BaseGemm,
    /// Dynamic-peeling strip gemm (§3.5 border handling).
    PeelGemm,
    /// M-to-C output combination.
    Combine,
    /// Scheduler: a worker stole a task (instant; payload = victim).
    Steal,
    /// Scheduler: a worker parked waiting for work.
    Park,
    /// Whole engine request (multiply through `FmmEngine`).
    Request,
    /// Shard RPC: decode request matrices off the wire.
    RpcDecode,
    /// Shard RPC: execute the multiply.
    RpcExecute,
    /// Shard RPC: encode the result.
    RpcEncode,
    /// Router: forward a request to a shard (includes retries).
    RouterForward,
}

impl SpanKind {
    /// Every kind, in declaration order.
    pub const ALL: [SpanKind; 13] = [
        SpanKind::PlanLookup,
        SpanKind::WorkspaceCheckout,
        SpanKind::Additions,
        SpanKind::BaseGemm,
        SpanKind::PeelGemm,
        SpanKind::Combine,
        SpanKind::Steal,
        SpanKind::Park,
        SpanKind::Request,
        SpanKind::RpcDecode,
        SpanKind::RpcExecute,
        SpanKind::RpcEncode,
        SpanKind::RouterForward,
    ];

    /// Stable snake_case name (the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::PlanLookup => "plan_lookup",
            SpanKind::WorkspaceCheckout => "workspace_checkout",
            SpanKind::Additions => "additions",
            SpanKind::BaseGemm => "base_gemm",
            SpanKind::PeelGemm => "peel_gemm",
            SpanKind::Combine => "combine",
            SpanKind::Steal => "steal",
            SpanKind::Park => "park",
            SpanKind::Request => "request",
            SpanKind::RpcDecode => "rpc_decode",
            SpanKind::RpcExecute => "rpc_execute",
            SpanKind::RpcEncode => "rpc_encode",
            SpanKind::RouterForward => "router_forward",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True for zero-duration scheduler events.
    pub fn is_instant(self) -> bool {
        matches!(self, SpanKind::Steal)
    }

    /// True for the leaf work kinds whose durations partition actual
    /// compute (the Fig. 4 decomposition): additions, base/peel gemm,
    /// combine. Enclosing spans (request, RPC phases) double-count
    /// leaf time and are excluded from time-share accounting.
    pub fn is_leaf_work(self) -> bool {
        matches!(
            self,
            SpanKind::Additions | SpanKind::BaseGemm | SpanKind::PeelGemm | SpanKind::Combine
        )
    }
}

/// One recorded span or event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// What was measured.
    pub kind: SpanKind,
    /// Start, ns since Unix epoch (trace clock).
    pub t_start: u64,
    /// End, ns since Unix epoch; equals `t_start` for instant events.
    pub t_end: u64,
    /// Kind-specific detail (victim index, flop count, byte count…).
    pub payload: u64,
}

struct Track {
    label: String,
    records: Vec<Record>,
    /// Next overwrite position once the ring is full.
    next: usize,
    /// Total records ever pushed (dropped = total - len).
    total: u64,
}

fn tracks() -> &'static Vec<Mutex<Track>> {
    static TRACKS: OnceLock<Vec<Mutex<Track>>> = OnceLock::new();
    TRACKS.get_or_init(|| {
        (0..MAX_TRACKS)
            .map(|i| {
                Mutex::new(Track {
                    label: format!("thread-{i}"),
                    records: Vec::new(),
                    next: 0,
                    total: 0,
                })
            })
            .collect()
    })
}

static NEXT_TRACK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TRACK: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn claim_track() -> usize {
    TRACK.with(|t| {
        let mut idx = t.get();
        if idx == usize::MAX {
            idx = NEXT_TRACK
                .fetch_add(1, Ordering::Relaxed)
                .min(MAX_TRACKS - 1);
            t.set(idx);
            let mut track = tracks()[idx].lock().unwrap_or_else(|e| e.into_inner());
            if track.records.capacity() == 0 {
                track.records.reserve_exact(RING_CAPACITY);
            }
        }
        idx
    })
}

/// Name this thread's track in exported Chrome traces (e.g.
/// `fmm-worker-3`, `router`). Claims the track if needed.
pub fn set_thread_label(label: &str) {
    let idx = claim_track();
    let mut track = tracks()[idx].lock().unwrap_or_else(|e| e.into_inner());
    track.label = label.to_string();
}

fn push(rec: Record) {
    let idx = claim_track();
    let mut track = tracks()[idx].lock().unwrap_or_else(|e| e.into_inner());
    if track.records.len() < RING_CAPACITY {
        track.records.push(rec);
    } else {
        let n = track.next;
        track.records[n] = rec;
        track.next = (n + 1) % RING_CAPACITY;
    }
    track.total += 1;
}

/// Clear every ring (labels are kept). Used by tests and by tools
/// that capture disjoint windows.
pub fn reset() {
    for track in tracks() {
        let mut t = track.lock().unwrap_or_else(|e| e.into_inner());
        t.records.clear();
        t.next = 0;
        t.total = 0;
    }
}

static PROCESS_LABEL: Mutex<Option<String>> = Mutex::new(None);

/// Name this process in exported traces (e.g. `shard-0`, `perf-fleet_open`).
pub fn set_process_label(label: &str) {
    *PROCESS_LABEL.lock().unwrap_or_else(|e| e.into_inner()) = Some(label.to_string());
}

pub(crate) fn process_label() -> String {
    PROCESS_LABEL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_else(|| format!("pid-{}", std::process::id()))
}

pub(crate) fn snapshot_tracks() -> Vec<TrackSnapshot> {
    let mut out = Vec::new();
    for (tid, track) in tracks().iter().enumerate() {
        let t = track.lock().unwrap_or_else(|e| e.into_inner());
        if t.records.is_empty() {
            continue;
        }
        // Ring order: oldest first.
        let mut records = Vec::with_capacity(t.records.len());
        records.extend_from_slice(&t.records[t.next..]);
        records.extend_from_slice(&t.records[..t.next]);
        out.push(TrackSnapshot {
            label: t.label.clone(),
            tid: tid as u64,
            dropped: t.total - t.records.len() as u64,
            records,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // All recorder tests share process-global rings; serialize them.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn disabled_recorder_writes_nothing() {
        with_tracing(|| {
            set_enabled(false);
            let t = span_start();
            assert_eq!(t, 0);
            span_end(SpanKind::BaseGemm, t, 1);
            event(SpanKind::Steal, 0);
            assert!(TraceSink::collect().tracks.is_empty());
        });
    }

    #[test]
    fn spans_and_events_are_recorded_in_order() {
        with_tracing(|| {
            let t = span_start();
            assert!(t > 0);
            span_end(SpanKind::BaseGemm, t, 99);
            event(SpanKind::Steal, 7);
            let sink = TraceSink::collect();
            assert_eq!(sink.tracks.len(), 1);
            let recs = &sink.tracks[0].records;
            assert_eq!(recs.len(), 2);
            assert_eq!(recs[0].kind, SpanKind::BaseGemm);
            assert!(recs[0].t_end >= recs[0].t_start);
            assert_eq!(recs[0].payload, 99);
            assert_eq!(recs[1].kind, SpanKind::Steal);
            assert_eq!(recs[1].t_start, recs[1].t_end);
        });
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        with_tracing(|| {
            for i in 0..(RING_CAPACITY as u64 + 10) {
                event(SpanKind::Steal, i);
            }
            let sink = TraceSink::collect();
            let track = &sink.tracks[0];
            assert_eq!(track.records.len(), RING_CAPACITY);
            assert_eq!(track.dropped, 10);
            // Oldest-first order survived the wraparound.
            assert_eq!(track.records[0].payload, 10);
            assert_eq!(
                track.records[RING_CAPACITY - 1].payload,
                RING_CAPACITY as u64 + 9
            );
        });
    }

    #[test]
    fn clock_is_monotonic_and_epoch_anchored() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        // Anchored to the Unix epoch: after 2020, before 2100.
        assert!(a > 1_577_836_800_000_000_000);
        assert!(a < 4_102_444_800_000_000_000);
        assert_eq!(now_if(false), 0);
        assert!(now_if(true) > 0);
    }

    #[test]
    fn span_kind_names_roundtrip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("nope"), None);
    }

    #[test]
    fn thread_labels_stick() {
        with_tracing(|| {
            std::thread::spawn(|| {
                set_thread_label("helper");
                event(SpanKind::Park, 0);
            })
            .join()
            .unwrap();
            let sink = TraceSink::collect();
            assert!(sink.tracks.iter().any(|t| t.label == "helper"));
        });
    }
}
