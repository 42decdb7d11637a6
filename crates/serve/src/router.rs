//! The routing tier: one process that owns a [`Fleet`] of shard
//! processes, hashes every multiply onto a shard, retries transient
//! failures onto siblings, respawns dead shards, and aggregates
//! fleet-wide statistics into one JSON document.
//!
//! Placement is deterministic: `shape_hash(m, k, n, dtype) % shards`
//! — the same product shape always lands on the same shard, so each
//! shard's plan cache stays hot for its slice of the shape mix.
//! Retries walk the ring (`primary + attempt`) with doubling backoff,
//! so a dead or saturated shard degrades into extra latency on its
//! siblings, never into a client-visible error (until the whole ring
//! is exhausted, which surfaces as [`ErrorCode::Unavailable`]).

use crate::client::ServeClient;
use crate::fleet::{Fleet, ShardLauncher, ShardSpec};
use crate::stats::{FleetStats, RouterCounters, ShardSlotStats, ShardStatsReport};
use crate::wire::{read_frame, shape_hash, write_frame, ErrorCode, Frame, WireError};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Total forward attempts per multiply (first try + retries).
const MAX_ATTEMPTS: usize = 12;

/// First retry backoff; doubles per attempt.
const BASE_BACKOFF: Duration = Duration::from_millis(2);

/// Backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(200);

/// Accept/idle poll granularity and supervisor health interval.
const POLL_TICK: Duration = Duration::from_millis(50);

/// How long a (re)spawned shard may take to answer health.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything a router needs to come up.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Socket the router listens on for clients.
    pub socket: PathBuf,
    /// How shard processes are spawned.
    pub launcher: ShardLauncher,
    /// One spec per shard slot.
    pub shards: Vec<ShardSpec>,
}

impl RouterConfig {
    /// A router on `socket` over one shard per spec.
    pub fn new(
        socket: impl Into<PathBuf>,
        launcher: ShardLauncher,
        shards: Vec<ShardSpec>,
    ) -> Self {
        RouterConfig {
            socket: socket.into(),
            launcher,
            shards,
        }
    }
}

/// Router-side view of one shard slot. The `ok_*` pair reconstructs
/// completed work across incarnations: `ok_since_spawn` is zeroed
/// right before a respawn, so `ok_total - ok_since_spawn` is exactly
/// the successful multiplies whose engine counters died with earlier
/// incarnations.
struct SlotCtl {
    healthy: AtomicBool,
    respawns: AtomicU64,
    ok_since_spawn: AtomicU64,
    ok_total: AtomicU64,
}

struct RouterState {
    cfg: RouterConfig,
    /// Shard socket paths, indexed by slot (never changes).
    sockets: Vec<PathBuf>,
    /// The shard processes; locked only by the supervisor (respawn)
    /// and shutdown — the forward path never takes this lock.
    fleet: Mutex<Option<Fleet>>,
    slots: Vec<SlotCtl>,
    requests: AtomicU64,
    completions: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    respawns: AtomicU64,
    rejected: AtomicU64,
    inflight: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Router-observed latency of successful forwards, keyed
    /// `"<shape-class>/<dtype>"`. Lives in the router process, so it
    /// survives shard crashes and respawns — the fleet's crash-immune
    /// tail-latency source.
    hists: fmm_trace::HistogramSet,
}

impl RouterState {
    fn counters(&self) -> RouterCounters {
        RouterCounters {
            requests: self.requests.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// One cheap health round-trip against slot `i`'s socket.
    fn probe_slot(&self, i: usize) -> bool {
        match ServeClient::connect_with_timeout(&self.sockets[i], Duration::from_secs(2)) {
            Ok(mut c) => c.health().is_ok(),
            Err(_) => false,
        }
    }

    /// Pull slot `i`'s stats report (None while the shard is down).
    fn slot_report(&self, i: usize) -> Option<ShardStatsReport> {
        let mut client =
            ServeClient::connect_with_timeout(&self.sockets[i], Duration::from_secs(2)).ok()?;
        let json = client.stats_json().ok()?;
        ShardStatsReport::from_json(&json).ok()
    }

    /// Aggregate the whole fleet into one snapshot document.
    fn fleet_stats(&self) -> FleetStats {
        let slots: Vec<ShardSlotStats> = (0..self.sockets.len())
            .map(|i| {
                let report = self.slot_report(i);
                ShardSlotStats {
                    slot: i,
                    healthy: report.is_some(),
                    respawns: self.slots[i].respawns.load(Ordering::Relaxed),
                    ok_since_spawn: self.slots[i].ok_since_spawn.load(Ordering::Relaxed),
                    ok_total: self.slots[i].ok_total.load(Ordering::Relaxed),
                    report,
                }
            })
            .collect();
        let latency = FleetStats::merged_slot_latency(&slots);
        FleetStats {
            shards: self.sockets.len() as u64,
            router: self.counters(),
            slots,
            latency,
            router_latency: self.hists.snapshot(),
        }
    }
}

/// Write `frame` to slot `i` and read one response, reusing (or
/// repairing) the handler's cached connection. Any transport failure
/// marks the slot unhealthy so the supervisor investigates.
fn try_forward(
    state: &RouterState,
    conns: &mut [Option<UnixStream>],
    slot: usize,
    frame: &Frame,
) -> Result<Frame, ()> {
    if conns[slot].is_none() {
        let stream = UnixStream::connect(&state.sockets[slot]).map_err(|_| ())?;
        // A multiply may legitimately take a while on a loaded shard;
        // the timeout only guards against a wedged process.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|_| ())?;
        stream
            .set_write_timeout(Some(Duration::from_secs(60)))
            .map_err(|_| ())?;
        conns[slot] = Some(stream);
    }
    let stream = conns[slot].as_mut().expect("just inserted");
    let result = write_frame(stream, frame).and_then(|()| match read_frame(stream)? {
        Some(resp) => Ok(resp),
        None => Err(WireError::Truncated),
    });
    match result {
        Ok(resp) => Ok(resp),
        Err(_) => {
            // The stream is no longer trustworthy mid-frame.
            conns[slot] = None;
            state.slots[slot].healthy.store(false, Ordering::Relaxed);
            Err(())
        }
    }
}

/// Route one multiply: primary slot by shape hash, then walk the ring
/// with doubling backoff until a shard gives a definitive answer.
fn forward_with_retry(
    state: &RouterState,
    conns: &mut [Option<UnixStream>],
    frame: &Frame,
    id: u64,
    hash: u64,
) -> Frame {
    let n = state.sockets.len();
    let primary = (hash % n as u64) as usize;
    let mut backoff = BASE_BACKOFF;
    for attempt in 0..MAX_ATTEMPTS {
        let slot = (primary + attempt) % n;
        if attempt > 0 {
            state.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
        match try_forward(state, conns, slot, frame) {
            Ok(resp @ Frame::MultiplyOk { .. }) => {
                state.slots[slot]
                    .ok_since_spawn
                    .fetch_add(1, Ordering::Relaxed);
                state.slots[slot].ok_total.fetch_add(1, Ordering::Relaxed);
                return resp;
            }
            // Backpressure and drains are transient: try a sibling.
            Ok(Frame::Error { code, .. }) if code.retryable() => continue,
            // Deterministic failures (shape, plan, malformed) pass through
            // unchanged — no sibling would answer differently.
            Ok(resp @ Frame::Error { .. }) => return resp,
            Ok(_) => {
                return Frame::Error {
                    id,
                    code: ErrorCode::Internal,
                    message: "shard sent a non-multiply response".to_string(),
                }
            }
            Err(()) => continue,
        }
    }
    Frame::Error {
        id,
        code: ErrorCode::Unavailable,
        message: format!("no shard answered within {MAX_ATTEMPTS} attempts"),
    }
}

/// Serve one client connection until it closes (or the router drains).
fn handle_client(state: &Arc<RouterState>, stream: UnixStream) {
    fmm_trace::set_thread_label("router-client");
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut stream = stream;
    let mut conns: Vec<Option<UnixStream>> = (0..state.sockets.len()).map(|_| None).collect();
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(WireError::IdleTimeout) => {
                if state.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            // Malformed traffic: answer with a typed error (the peer
            // may still be listening) and drop the connection — after
            // a framing error the stream position is untrustworthy.
            Err(e) => {
                let reply = Frame::Error {
                    id: 0,
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                };
                let _ = write_frame(&mut stream, &reply);
                return;
            }
        };
        match frame {
            Frame::MultiplyReq {
                id, dtype, m, k, n, ..
            } => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                state.inflight.fetch_add(1, Ordering::Relaxed);
                let hash = shape_hash(m as usize, k as usize, n as usize, dtype);
                let t_fwd = fmm_trace::now_ns();
                let resp = forward_with_retry(state, &mut conns, &frame, id, hash);
                match &resp {
                    Frame::MultiplyOk { .. } => {
                        state.completions.fetch_add(1, Ordering::Relaxed);
                        state.hists.record(
                            fmm_core::shape_class(m as usize, k as usize, n as usize),
                            dtype.name(),
                            fmm_trace::now_ns().saturating_sub(t_fwd),
                        );
                        if fmm_trace::enabled() {
                            fmm_trace::span_end(
                                fmm_trace::SpanKind::RouterForward,
                                t_fwd,
                                (m as u64) * (k as u64) * (n as u64),
                            );
                        }
                    }
                    Frame::Error { code, .. } if code.retryable() => {
                        state.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        state.failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                state.inflight.fetch_sub(1, Ordering::Relaxed);
                if write_frame(&mut stream, &resp).is_err() {
                    return;
                }
            }
            Frame::StatsReq { id } => {
                let reply = Frame::StatsOk {
                    id,
                    json: state.fleet_stats().to_json(),
                };
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            Frame::HealthReq { id } => {
                let reply = Frame::HealthOk {
                    id,
                    queue_depth: state.inflight.load(Ordering::Relaxed).min(u32::MAX as u64) as u32,
                    draining: state.draining.load(Ordering::Relaxed),
                };
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            Frame::DrainReq { id } => {
                state.draining.store(true, Ordering::Relaxed);
                state.shutdown.store(true, Ordering::Relaxed);
                let _ = write_frame(&mut stream, &Frame::DrainOk { id });
                return;
            }
            other => {
                let reply = Frame::Error {
                    id: other.id(),
                    code: ErrorCode::Malformed,
                    message: "frame kind is not a request the router serves".to_string(),
                };
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
        }
    }
}

/// Periodically verify every slot; respawn the dead. The counter
/// reset happens *before* the new process can serve anything, so
/// `ok_since_spawn` tracks exactly the live incarnation.
fn supervise(state: &Arc<RouterState>) {
    while !state.shutdown.load(Ordering::Relaxed) {
        for i in 0..state.sockets.len() {
            if state.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if state.probe_slot(i) {
                state.slots[i].healthy.store(true, Ordering::Relaxed);
                continue;
            }
            let mut guard = state.fleet.lock().expect("fleet lock");
            let Some(fleet) = guard.as_mut() else { return };
            // The probe may have raced a busy shard; only respawn a
            // slot whose process is actually gone.
            if fleet.process_alive(i) {
                continue;
            }
            state.slots[i].healthy.store(false, Ordering::Relaxed);
            // Move this incarnation's successes into the "earlier
            // incarnations" bucket before a new process can serve.
            state.slots[i].ok_since_spawn.store(0, Ordering::Relaxed);
            if fleet.respawn(i, READY_TIMEOUT).is_ok() {
                state.slots[i].respawns.fetch_add(1, Ordering::Relaxed);
                state.respawns.fetch_add(1, Ordering::Relaxed);
                state.slots[i].healthy.store(true, Ordering::Relaxed);
            }
        }
        std::thread::sleep(POLL_TICK);
    }
}

/// A router accept loop plus supervisor, running on background
/// threads. Dropping without [`RunningRouter::shutdown`] still kills
/// the shard processes (via the fleet's `Drop`).
pub struct RunningRouter {
    state: Arc<RouterState>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl RunningRouter {
    /// Path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.state.cfg.socket
    }

    /// Current fleet-wide snapshot (same document the stats RPC
    /// serves).
    pub fn fleet_stats(&self) -> FleetStats {
        self.state.fleet_stats()
    }

    /// Chaos hook for robustness tests: SIGKILL shard `i` right now.
    /// The supervisor notices and respawns it.
    pub fn kill_shard(&self, i: usize) -> io::Result<()> {
        let mut guard = self.state.fleet.lock().expect("fleet lock");
        match guard.as_mut() {
            Some(fleet) => fleet.kill(i),
            None => Ok(()),
        }
    }

    /// Stop accepting, stop the supervisor, drain and reap the fleet.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let fleet = self.state.fleet.lock().expect("fleet lock").take();
        if let Some(fleet) = fleet {
            fleet.shutdown();
        }
        let _ = std::fs::remove_file(&self.state.cfg.socket);
    }
}

impl Drop for RunningRouter {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Spawn the fleet, bind the router socket, and start serving on
/// background threads.
pub fn start_router(cfg: RouterConfig) -> io::Result<RunningRouter> {
    assert!(!cfg.shards.is_empty(), "a router needs at least one shard");
    let specs = cfg.shards.clone();
    let sockets: Vec<PathBuf> = specs.iter().map(|s| s.socket.clone()).collect();
    let fleet = Fleet::spawn(cfg.launcher.clone(), specs, READY_TIMEOUT)?;

    let _ = std::fs::remove_file(&cfg.socket);
    if let Some(parent) = cfg.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let listener = UnixListener::bind(&cfg.socket)?;
    listener.set_nonblocking(true)?;

    let slots = sockets
        .iter()
        .map(|_| SlotCtl {
            healthy: AtomicBool::new(true),
            respawns: AtomicU64::new(0),
            ok_since_spawn: AtomicU64::new(0),
            ok_total: AtomicU64::new(0),
        })
        .collect();
    let state = Arc::new(RouterState {
        cfg,
        sockets,
        fleet: Mutex::new(Some(fleet)),
        slots,
        requests: AtomicU64::new(0),
        completions: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        respawns: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        hists: fmm_trace::HistogramSet::new(),
    });

    let accept_state = Arc::clone(&state);
    let accept = std::thread::spawn(move || {
        while !accept_state.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    if accept_state.draining.load(Ordering::Relaxed) {
                        drop(stream);
                        continue;
                    }
                    let client_state = Arc::clone(&accept_state);
                    std::thread::spawn(move || handle_client(&client_state, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_TICK);
                }
                Err(_) => std::thread::sleep(POLL_TICK),
            }
        }
    });

    let sup_state = Arc::clone(&state);
    let supervisor = std::thread::spawn(move || supervise(&sup_state));

    Ok(RunningRouter {
        state,
        accept: Some(accept),
        supervisor: Some(supervisor),
    })
}

/// Blocking entry point for the `fmm-router` binary: serve until a
/// client sends a drain request, then shut the fleet down.
pub fn router_main(cfg: RouterConfig) -> io::Result<()> {
    let running = start_router(cfg)?;
    while !running.state.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(POLL_TICK);
    }
    running.shutdown();
    Ok(())
}
