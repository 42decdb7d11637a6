//! The shard: one serving process hosting one [`FmmEngine`] per dtype
//! behind a Unix-domain socket.
//!
//! A shard is deliberately thin — the engine already is the serving
//! object (plan cache, workspace pool, owned thread pool); the shard
//! adds exactly the process-boundary concerns:
//!
//! * **admission control** — a bounded inflight count; a multiply
//!   beyond the bound is rejected with a typed `Busy` *immediately*
//!   instead of queueing unboundedly (the router turns that into
//!   retry-onto-a-sibling backpressure);
//! * **bounded accept** — connections beyond the bound are told `Busy`
//!   and closed rather than parked;
//! * **observability** — a stats RPC reporting the
//!   [`crate::stats::ShardStatsReport`];
//! * **graceful drain** — a drain RPC that stops admission, lets
//!   inflight multiplies finish, acknowledges, and exits the process.

use crate::stats::ShardStatsReport;
use crate::wire::{
    decode_matrix, encode_matrix, multiply_payload_lens, read_frame, write_frame, ErrorCode, Frame,
    WireDtype, WireError, WireScalar, MAX_FRAME,
};
use fmm_core::{EngineError, FmmEngine};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections beyond this are rejected with `Busy` and closed.
const MAX_CONNECTIONS: u64 = 64;

/// Poll tick for the accept loop and idle-connection reads; also the
/// granularity at which a drain is noticed.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Shard process configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Unix-domain socket path to serve on (created at bind, removed
    /// at exit; a stale file from a crashed predecessor is replaced).
    pub socket: PathBuf,
    /// Engine pool width (both dtype engines).
    pub threads: usize,
    /// Admission bound: multiplies inflight beyond this are rejected
    /// with `Busy`.
    pub max_inflight: usize,
}

impl ShardConfig {
    /// A shard on `socket` with defaults: width-1 engines, 8 inflight.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ShardConfig {
            socket: socket.into(),
            threads: 1,
            max_inflight: 8,
        }
    }

    /// Set the engine pool width.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the inflight admission bound.
    #[must_use]
    pub fn max_inflight(mut self, max: usize) -> Self {
        self.max_inflight = max.max(1);
        self
    }
}

/// Shared state of a running shard.
struct ShardState {
    cfg: ShardConfig,
    engine_f64: FmmEngine<f64>,
    engine_f32: FmmEngine<f32>,
    inflight: AtomicU64,
    connections: AtomicU64,
    draining: AtomicBool,
    drain_acked: AtomicBool,
    served: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_draining: AtomicU64,
    malformed: AtomicU64,
}

impl ShardState {
    fn report(&self) -> ShardStatsReport {
        ShardStatsReport {
            queue_depth: self.inflight.load(Ordering::Relaxed),
            max_inflight: self.cfg.max_inflight as u64,
            draining: self.draining.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            engine_f64: self.engine_f64.stats(),
            engine_f32: self.engine_f32.stats(),
        }
    }

    /// Serve one multiply through the dtype-matching engine.
    fn multiply(&self, frame: &Frame) -> Frame {
        let Frame::MultiplyReq {
            id,
            dtype,
            m,
            k,
            n,
            a,
            b,
        } = frame
        else {
            unreachable!("caller dispatches only multiply requests here");
        };
        let id = *id;
        if self.draining.load(Ordering::Relaxed) {
            self.rejected_draining.fetch_add(1, Ordering::Relaxed);
            return error(id, ErrorCode::Draining, "shard is draining");
        }
        if *m == 0 || *k == 0 || *n == 0 {
            return error(id, ErrorCode::Shape, "zero-sized dimension");
        }
        // Request and response must each fit in one frame, headers
        // included, the client's own rule: small operands can still ask
        // for a huge `m × n`.
        let fits = multiply_payload_lens(*m as usize, *k as usize, *n as usize, *dtype)
            .is_some_and(|(request, response)| request.max(response) <= MAX_FRAME);
        if !fits {
            return error(
                id,
                ErrorCode::Shape,
                format!("a {m}x{n} product exceeds the {MAX_FRAME}-byte frame cap"),
            );
        }
        // Admission control: reject beyond the bound instead of
        // buffering unboundedly.
        let was = self.inflight.fetch_add(1, Ordering::AcqRel);
        if was >= self.cfg.max_inflight as u64 {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.rejected_busy.fetch_add(1, Ordering::Relaxed);
            return error(id, ErrorCode::Busy, "inflight bound reached");
        }
        let resp = match dtype {
            WireDtype::F64 => run_engine(&self.engine_f64, id, *m, *k, *n, a, b),
            WireDtype::F32 => run_engine(&self.engine_f32, id, *m, *k, *n, a, b),
        };
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        if matches!(resp, Frame::MultiplyOk { .. }) {
            self.served.fetch_add(1, Ordering::Relaxed);
        }
        resp
    }
}

/// Build an error response frame.
fn error(id: u64, code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        id,
        code,
        message: message.into(),
    }
}

/// Decode, multiply on `engine`, re-encode.
fn run_engine<T: WireScalar>(
    engine: &FmmEngine<T>,
    id: u64,
    m: u32,
    k: u32,
    n: u32,
    a: &[u8],
    b: &[u8],
) -> Frame {
    // Gate read once per RPC; the three phase spans share it.
    let trace = fmm_trace::enabled();
    let t_span = fmm_trace::now_if(trace);
    let a = match decode_matrix::<T>(m as usize, k as usize, a) {
        Ok(a) => a,
        Err(e) => return error(id, ErrorCode::Malformed, e.to_string()),
    };
    let b = match decode_matrix::<T>(k as usize, n as usize, b) {
        Ok(b) => b,
        Err(e) => return error(id, ErrorCode::Malformed, e.to_string()),
    };
    fmm_trace::span_end(
        fmm_trace::SpanKind::RpcDecode,
        t_span,
        (a.rows() * a.cols() + b.rows() * b.cols()) as u64,
    );
    let t_span = fmm_trace::now_if(trace);
    let result = engine.multiply(&a, &b);
    fmm_trace::span_end(
        fmm_trace::SpanKind::RpcExecute,
        t_span,
        (m as u64) * (k as u64) * (n as u64),
    );
    match result {
        Ok(c) => {
            let t_span = fmm_trace::now_if(trace);
            let encoded = encode_matrix(&c);
            fmm_trace::span_end(
                fmm_trace::SpanKind::RpcEncode,
                t_span,
                (c.rows() * c.cols()) as u64,
            );
            Frame::MultiplyOk {
                id,
                dtype: T::DTYPE,
                m,
                n: c.cols() as u32,
                c: encoded,
            }
        }
        Err(e @ (EngineError::InnerDimMismatch { .. } | EngineError::OutputShape { .. })) => {
            error(id, ErrorCode::Shape, e.to_string())
        }
        Err(EngineError::Plan(e)) => error(id, ErrorCode::Plan, e.to_string()),
        Err(EngineError::Pool(e)) => error(id, ErrorCode::Internal, e),
    }
}

/// A bound, not-yet-running shard server. [`ShardServer::run`] blocks
/// the calling thread until the shard drains; [`ShardServer::start`]
/// runs it on a background thread (the in-process form the tests and
/// examples use).
pub struct ShardServer {
    state: Arc<ShardState>,
    listener: UnixListener,
}

impl ShardServer {
    /// Build both engines and bind the socket (replacing a stale
    /// socket file left by a crashed predecessor).
    pub fn bind(cfg: ShardConfig) -> io::Result<ShardServer> {
        let _ = std::fs::remove_file(&cfg.socket);
        if let Some(parent) = cfg.socket.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        let mk_err = |e: EngineError| io::Error::other(e.to_string());
        let engine_f64 = FmmEngine::<f64>::builder()
            .threads(cfg.threads)
            .build()
            .map_err(mk_err)?;
        let engine_f32 = FmmEngine::<f32>::builder()
            .threads(cfg.threads)
            .build()
            .map_err(mk_err)?;
        Ok(ShardServer {
            state: Arc::new(ShardState {
                cfg,
                engine_f64,
                engine_f32,
                inflight: AtomicU64::new(0),
                connections: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                drain_acked: AtomicBool::new(false),
                served: AtomicU64::new(0),
                rejected_busy: AtomicU64::new(0),
                rejected_draining: AtomicU64::new(0),
                malformed: AtomicU64::new(0),
            }),
            listener,
        })
    }

    /// Serve until drained (blocking). Returns after a drain request
    /// has been acknowledged and all inflight work finished; the
    /// socket file is removed on the way out.
    pub fn run(self) -> io::Result<()> {
        let state = Arc::clone(&self.state);
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conns = state.connections.fetch_add(1, Ordering::AcqRel) + 1;
                    let over = conns > MAX_CONNECTIONS || state.draining.load(Ordering::Relaxed);
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || {
                        if over {
                            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                            let mut stream = stream;
                            let _ = write_frame(
                                &mut stream,
                                &error(0, ErrorCode::Busy, "connection bound reached"),
                            );
                        } else {
                            handle_connection(&state, stream);
                        }
                        state.connections.fetch_sub(1, Ordering::AcqRel);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if state.draining.load(Ordering::Relaxed)
                        && state.inflight.load(Ordering::Relaxed) == 0
                        && state.drain_acked.load(Ordering::Relaxed)
                    {
                        break;
                    }
                    std::thread::sleep(POLL_TICK);
                }
                Err(e) => return Err(e),
            }
        }
        let _ = std::fs::remove_file(&state.cfg.socket);
        Ok(())
    }

    /// Run on a background thread, returning a handle that can wait
    /// for the drain-triggered exit.
    pub fn start(cfg: ShardConfig) -> io::Result<RunningShard> {
        let server = ShardServer::bind(cfg)?;
        let state = Arc::clone(&server.state);
        let thread = std::thread::spawn(move || server.run());
        Ok(RunningShard { state, thread })
    }
}

/// Handle of an in-process shard started with [`ShardServer::start`].
pub struct RunningShard {
    state: Arc<ShardState>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl RunningShard {
    /// The socket the shard serves on.
    pub fn socket(&self) -> &std::path::Path {
        &self.state.cfg.socket
    }

    /// Block until the shard exits (i.e. until something sends it a
    /// drain request).
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("shard thread panicked"))?
    }
}

/// One connection's request loop.
fn handle_connection(state: &Arc<ShardState>, mut stream: UnixStream) {
    fmm_trace::set_thread_label("shard-conn");
    // Reads poll at the shard's tick so an idle connection notices a
    // drain promptly; writes get a generous bound so a stalled client
    // cannot wedge the handler forever.
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean close.
            Ok(None) => return,
            // Idle tick: keep serving unless the shard is draining.
            Err(WireError::IdleTimeout) => {
                if state.draining.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            // Malformed traffic: answer with a typed error (the peer
            // may still be listening) and drop the connection — after
            // a framing error the stream position is untrustworthy.
            Err(e) => {
                state.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut stream, &error(0, ErrorCode::Malformed, e.to_string()));
                return;
            }
        };
        let resp = match &frame {
            Frame::MultiplyReq { .. } => state.multiply(&frame),
            Frame::StatsReq { id } => Frame::StatsOk {
                id: *id,
                json: state.report().to_json(),
            },
            Frame::HealthReq { id } => Frame::HealthOk {
                id: *id,
                queue_depth: state.inflight.load(Ordering::Relaxed) as u32,
                draining: state.draining.load(Ordering::Relaxed),
            },
            Frame::DrainReq { id } => {
                state.draining.store(true, Ordering::SeqCst);
                // Wait out inflight work (bounded: a multiply that
                // outlives this is a bug, not a reason to hang the
                // drain forever).
                let deadline = Instant::now() + Duration::from_secs(60);
                while state.inflight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                state.drain_acked.store(true, Ordering::SeqCst);
                Frame::DrainOk { id: *id }
            }
            other => error(
                other.id(),
                ErrorCode::Malformed,
                "frame kind is not a request",
            ),
        };
        let done = matches!(resp, Frame::DrainOk { .. });
        if write_frame(&mut stream, &resp).is_err() {
            // Peer went away mid-response; nothing to salvage.
            return;
        }
        if done {
            return;
        }
    }
}

/// If `FMM_TRACE_DIR` is set, turn tracing on and keep a periodically
/// refreshed Chrome-trace file in that directory, named
/// `trace-shard-<pid>.json`. The flush is write-to-temp-then-rename,
/// so a SIGKILL'd incarnation still leaves its most recent (≤ ~500 ms
/// stale) complete snapshot behind for the load generator to merge.
fn start_trace_flusher() -> Option<std::thread::JoinHandle<()>> {
    let dir = PathBuf::from(std::env::var_os("FMM_TRACE_DIR")?);
    let pid = std::process::id();
    fmm_trace::set_process_label(&format!("shard-{pid}"));
    fmm_trace::set_enabled(true);
    let path = dir.join(format!("trace-shard-{pid}.json"));
    let tmp = dir.join(format!(".trace-shard-{pid}.json.tmp"));
    let flush = move || {
        let json = fmm_trace::TraceSink::collect().export_chrome_json();
        if std::fs::write(&tmp, json).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    };
    Some(std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(500));
        flush();
    }))
}

/// Blocking main of a shard worker process: bind, serve, exit when
/// drained. This is what the `fmm-shard` binary and the self-exec'd
/// worker (see [`crate::maybe_run_shard_worker`]) call.
pub fn shard_main(cfg: ShardConfig) -> io::Result<()> {
    // The flusher thread is detached: it dies with the process, and
    // clean exits below write one final up-to-date snapshot.
    let tracing = start_trace_flusher().is_some();
    let result = ShardServer::bind(cfg)?.run();
    if tracing {
        if let Some(dir) = std::env::var_os("FMM_TRACE_DIR") {
            let pid = std::process::id();
            let path = PathBuf::from(dir).join(format!("trace-shard-{pid}.json"));
            let _ = std::fs::write(&path, fmm_trace::TraceSink::collect().export_chrome_json());
        }
    }
    result
}
