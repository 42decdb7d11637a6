//! The worker registry: spawned threads, their deques, the global
//! injector, and the sleep machinery, plus the blocking primitives
//! (`join`, `scope`, `install`) built on top of them.
//!
//! Scheduling policy (the rayon/Cilk discipline):
//!
//! 1. a worker runs jobs popped LIFO from its own deque;
//! 2. when that is empty it takes from the FIFO injector (work handed
//!    in by non-worker threads);
//! 3. then it tries to steal FIFO from the other workers' deques;
//! 4. after repeated failure it parks on a condvar until new work is
//!    announced.
//!
//! Blocked operations never sleep while work might exist: a worker
//! waiting on a `join`/`scope` latch keeps executing other jobs
//! (work-stealing wait), which is what lets arbitrarily nested
//! parallelism run on a fixed thread count without deadlock.

use crate::deque::{Deque, Steal};
use crate::job::{HeapJob, JobRef, LockLatch, SpinLatch, StackJob};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Process-wide count of successful deque-to-deque steals. This is the
/// observable the executor surfaces as `ExecStatsSnapshot::tasks_stolen`
/// so tests can assert the scheduler actually balances load.
static STEALS: AtomicU64 = AtomicU64::new(0);

/// Total jobs taken from another worker's deque since process start,
/// across every pool. Monotonic; diff two readings to attribute steals
/// to a region of execution.
pub fn steal_count() -> u64 {
    STEALS.load(Ordering::Relaxed)
}

thread_local! {
    /// `(registry address, worker index)` of the current thread, when
    /// it is a pool worker.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Index of the current thread inside its pool, or `None` on threads
/// that are not pool workers.
pub fn worker_index() -> Option<usize> {
    WORKER.with(|w| w.get()).map(|(_, i)| i)
}

/// Environment variable overriding the default pool width.
pub const THREADS_ENV: &str = "FMM_THREADS";

/// Default pool width: `FMM_THREADS` when set to a positive integer,
/// otherwise the hardware thread count.
pub fn default_num_threads() -> usize {
    if let Ok(val) = std::env::var(THREADS_ENV) {
        if let Ok(n) = val.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub(crate) struct Registry {
    deques: Vec<Deque>,
    injector: Mutex<VecDeque<JobRef>>,
    /// Lock-free emptiness hint for `injector`.
    injector_len: AtomicUsize,
    sleep_mutex: Mutex<()>,
    sleep_cond: Condvar,
    /// Workers currently parked (or about to park) on `sleep_cond`.
    sleepers: AtomicUsize,
    terminating: AtomicBool,
    width: usize,
}

impl Registry {
    fn new(width: usize) -> Self {
        Registry {
            deques: (0..width).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            sleep_mutex: Mutex::new(()),
            sleep_cond: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            terminating: AtomicBool::new(false),
            width,
        }
    }

    fn addr(&self) -> usize {
        self as *const Registry as usize
    }

    /// Is the current thread a worker of this registry? Returns its
    /// index if so.
    fn current_index(&self) -> Option<usize> {
        match WORKER.with(|w| w.get()) {
            Some((addr, index)) if addr == self.addr() => Some(index),
            _ => None,
        }
    }

    fn has_work(&self) -> bool {
        self.injector_len.load(Ordering::Relaxed) > 0 || self.deques.iter().any(|d| !d.is_empty())
    }

    /// Wake parked workers because new work exists. Cheap when nobody
    /// sleeps (one fenced load).
    fn notify_work(&self) {
        // Store-buffer pairing with `idle_sleep`: our work became
        // visible (push) before this fence; a worker that incremented
        // `sleepers` before our load re-checks `has_work` after its own
        // fence. One of the two must observe the other.
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep_mutex.lock().unwrap();
            self.sleep_cond.notify_all();
        }
    }

    /// Push onto the current worker's own deque; `Err` gives the job
    /// back when the deque is full.
    fn push_local(&self, index: usize, job: JobRef) -> Result<(), JobRef> {
        let res = self.deques[index].push(job);
        if res.is_ok() {
            self.notify_work();
        }
        res
    }

    /// Hand work in from outside (or across pools): FIFO injector.
    fn inject(&self, job: JobRef) {
        {
            let mut q = self.injector.lock().unwrap();
            q.push_back(job);
            self.injector_len.store(q.len(), Ordering::Relaxed);
        }
        self.notify_work();
    }

    fn pop_injected(&self) -> Option<JobRef> {
        if self.injector_len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut q = self.injector.lock().unwrap();
        let job = q.pop_front();
        self.injector_len.store(q.len(), Ordering::Relaxed);
        job
    }

    /// One full work-finding pass for worker `index`: own deque, then
    /// the injector, then one steal sweep over the other workers.
    fn find_work(&self, index: usize) -> Option<JobRef> {
        if let Some(job) = self.deques[index].pop() {
            return Some(job);
        }
        if let Some(job) = self.pop_injected() {
            return Some(job);
        }
        self.steal_work(index)
    }

    /// Steal sweep: scan the other deques (starting after ourselves so
    /// thieves spread out), retrying victims that report contention.
    fn steal_work(&self, index: usize) -> Option<JobRef> {
        if self.width <= 1 {
            return None;
        }
        let mut contended = true;
        while std::mem::take(&mut contended) {
            for k in 1..self.width {
                let victim = (index + k) % self.width;
                match self.deques[victim].steal() {
                    Steal::Success(job) => {
                        STEALS.fetch_add(1, Ordering::Relaxed);
                        fmm_trace::event(fmm_trace::SpanKind::Steal, victim as u64);
                        return Some(job);
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
        }
        None
    }

    /// Park until work is announced. The advertise-then-recheck
    /// protocol (fenced against `notify_work`) makes the wakeup
    /// reliable; the long timeout is only a belt-and-braces bound so an
    /// idle pool costs ~2 wakeups/s/worker rather than a busy poll.
    fn idle_sleep(&self) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);
        if !self.has_work() && !self.terminating.load(Ordering::Acquire) {
            let guard = self.sleep_mutex.lock().unwrap();
            if !self.has_work() && !self.terminating.load(Ordering::Acquire) {
                let t_park = fmm_trace::span_start();
                let _ = self
                    .sleep_cond
                    .wait_timeout(guard, Duration::from_millis(500));
                fmm_trace::span_end(fmm_trace::SpanKind::Park, t_park, 0);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Work-stealing wait: keep the CPU busy with other jobs until the
    /// latch fires. Only callable on a worker of this registry.
    fn wait_until(&self, index: usize, latch: &SpinLatch) {
        self.wait_while(index, || !latch.probe());
    }

    /// The work-stealing wait discipline shared by every blocked
    /// worker-side wait (`join` latches, [`JobHandle::wait`]): execute
    /// other jobs while `probe` holds, spinning briefly then yielding
    /// when none exist. Only callable on a worker of this registry.
    fn wait_while(&self, index: usize, probe: impl Fn() -> bool) {
        let mut idle_spins = 0u32;
        while probe() {
            if let Some(job) = self.find_work(index) {
                // SAFETY: `find_work` yields each queued job exactly
                // once, and a queued job's pointee is alive until it
                // runs (StackJob frames block; HeapJobs own themselves).
                unsafe { job.execute() };
                idle_spins = 0;
            } else if idle_spins < 32 {
                idle_spins += 1;
                std::hint::spin_loop();
            } else {
                // Let the thread that holds our awaited work run
                // (essential on machines with fewer cores than
                // workers).
                std::thread::yield_now();
            }
        }
    }

    /// Run `op` on a worker of this registry, blocking the calling
    /// thread until it completes. No-op indirection when the caller
    /// already is one.
    fn in_worker<OP, R>(self: &Arc<Registry>, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        if self.current_index().is_some() {
            return op();
        }
        let latch = LockLatch::new();
        let job = StackJob::new(&latch, op);
        // SAFETY: this frame blocks on the latch until the job ran.
        let job_ref = unsafe { job.as_job_ref() };
        self.inject(job_ref);
        latch.wait();
        job.into_result()
    }

    fn terminate(&self) {
        self.terminating.store(true, Ordering::Release);
        let _guard = self.sleep_mutex.lock().unwrap();
        self.sleep_cond.notify_all();
    }
}

fn worker_main(registry: Arc<Registry>, index: usize) {
    WORKER.with(|w| w.set(Some((registry.addr(), index))));
    fmm_trace::set_thread_label(&format!("fmm-worker-{index}"));
    loop {
        if let Some(job) = registry.find_work(index) {
            // Jobs handle their own panics (StackJob catches for the
            // owner; scope tasks catch for the scope), so an unwind
            // escaping here would indicate a runtime bug and is allowed
            // to take the worker down loudly.
            // SAFETY: `find_work` hands out each job once, live until run.
            unsafe { job.execute() };
            continue;
        }
        if registry.terminating.load(Ordering::Acquire) && !registry.has_work() {
            break;
        }
        registry.idle_sleep();
    }
}

/// Error from [`ThreadPoolBuilder::build`] (thread spawn failure).
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    msg: String,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error: {}", self.msg)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Fresh builder with the default width
    /// ([`default_num_threads`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin the pool width; `0` means "default", as in rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Spawn the worker threads.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = self.num_threads.unwrap_or_else(default_num_threads).max(1);
        let registry = Arc::new(Registry::new(width));
        let mut handles = Vec::with_capacity(width);
        for index in 0..width {
            let reg = Arc::clone(&registry);
            let handle = std::thread::Builder::new()
                .name(format!("fmm-worker-{index}"))
                .spawn(move || worker_main(reg, index))
                .map_err(|e| ThreadPoolBuildError { msg: e.to_string() })?;
            handles.push(handle);
        }
        Ok(ThreadPool { registry, handles })
    }
}

/// A work-stealing thread pool: one OS thread per unit of width, each
/// with a private Chase–Lev deque, sharing a FIFO injector.
///
/// Dropping the pool drains outstanding work and joins the workers.
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.width)
            .finish()
    }
}

impl ThreadPool {
    /// Run `op` inside the pool: `join`/`scope` calls made from `op`
    /// schedule onto this pool's workers, and
    /// [`current_num_threads`] reports this pool's width. The calling
    /// thread blocks until `op` returns; panics propagate.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        self.registry.in_worker(op)
    }

    /// This pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.registry.width
    }

    /// Detached spawn with a completion latch: schedule `op` onto this
    /// pool and return immediately with a [`JobHandle`] that
    /// [`JobHandle::wait`] later joins on. Called from a worker of this
    /// pool, the job goes to that worker's deque (cheap, stealable);
    /// from any other thread it goes through the injector.
    ///
    /// Unlike [`join`]/[`scope`], the closure must be `'static`: the
    /// spawning frame does not block, so the job can outlive it.
    pub fn spawn<F, T>(&self, op: F) -> JobHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let state = Arc::new(HandleState {
            result: Mutex::new(None),
            cond: Condvar::new(),
            done: AtomicBool::new(false),
        });
        let job_state = Arc::clone(&state);
        let job = HeapJob::into_job_ref(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(op));
            let mut slot = job_state.result.lock().unwrap();
            *slot = Some(outcome);
            // Publish under the lock, before notify: an external waiter
            // holding the lock either sees the result or reaches the
            // condvar before this notify fires.
            job_state.done.store(true, Ordering::Release);
            job_state.cond.notify_all();
        });
        match self.registry.current_index() {
            Some(index) => {
                if let Err(job) = self.registry.push_local(index, job) {
                    // Deque full (pathological fan-out): run inline.
                    // SAFETY: the rejected ref is this HeapJob's only
                    // copy; executing it here is its single run.
                    unsafe { job.execute() };
                }
            }
            None => self.registry.inject(job),
        }
        JobHandle {
            state,
            registry: Arc::clone(&self.registry),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate();
        let myself = std::thread::current().id();
        for handle in self.handles.drain(..) {
            // The pool can die *on one of its own workers*: a detached
            // job may own the last handle to a structure containing the
            // pool (e.g. an engine dropped while a submit is in
            // flight). Joining ourselves would error ("resource
            // deadlock avoided") and panic inside the job; detach
            // instead — this worker exits its loop normally once the
            // terminating registry drains.
            if handle.thread().id() == myself {
                continue;
            }
            let _ = handle.join();
        }
    }
}

/// Completion state shared between a detached [`ThreadPool::spawn`] job
/// and its [`JobHandle`]. The `result` mutex doubles as the condvar
/// mutex for external waiters, so the store-then-notify in the job and
/// the check-then-wait in the handle can never miss each other.
struct HandleState<T> {
    result: Mutex<Option<std::thread::Result<T>>>,
    cond: Condvar,
    done: AtomicBool,
}

/// Completion latch of a detached [`ThreadPool::spawn`] job.
///
/// [`JobHandle::wait`] joins the job and returns its result (rethrowing
/// its panic, as `join` does). A waiter that is itself a worker of the
/// spawning pool does not block: it executes other pool jobs until the
/// latch fires — the same work-stealing wait `join`/`scope` use — so a
/// pool thread can submit work to its own pool and wait on it without
/// deadlock. External threads park on a condvar.
///
/// Dropping the handle without waiting detaches the job; it still runs.
///
/// This goes beyond the rayon API surface (rayon's `ThreadPool::spawn`
/// returns nothing); like [`steal_count`]/[`worker_index`], callers that
/// need it should depend on `fmm-runtime` directly rather than on the
/// `vendor/rayon` facade.
pub struct JobHandle<T> {
    state: Arc<HandleState<T>>,
    registry: Arc<Registry>,
}

impl<T: Send + 'static> JobHandle<T> {
    /// Has the job finished (successfully or by panicking)?
    pub fn is_done(&self) -> bool {
        self.state.done.load(Ordering::Acquire)
    }

    /// Block until the job completes and return its result, rethrowing
    /// the job's panic if it had one. On a worker of the spawning pool
    /// this is the same work-stealing wait `join`/`scope` use: the
    /// caller executes other pool jobs, spinning then yielding when
    /// none exist (yields hand the core to whichever thread runs the
    /// awaited job on oversubscribed machines). External threads park
    /// on the handle's condvar.
    pub fn wait(self) -> T {
        if let Some(index) = self.registry.current_index() {
            self.registry.wait_while(index, || !self.is_done());
        } else {
            let mut guard = self.state.result.lock().unwrap();
            while guard.is_none() {
                guard = self.state.cond.wait(guard).unwrap();
            }
        }
        let outcome = self
            .state
            .result
            .lock()
            .unwrap()
            .take()
            .expect("JobHandle latch fired without a result");
        match outcome {
            Ok(value) => value,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The lazily-created global pool ([`default_num_threads`] wide) that
/// serves `join`/`scope` calls made outside any
/// [`ThreadPool::install`].
fn global_pool() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new()
            .build()
            .expect("failed to build the global thread pool")
    })
}

/// Advertised parallelism: the width of the pool the current thread
/// runs in (the global pool outside any [`ThreadPool::install`]).
///
/// Deliberately side-effect free: querying the width does *not* spawn
/// the global pool (a sequential caller sizing its splits should not
/// pay for worker threads it never uses), it only reads the width the
/// pool has or would have.
pub fn current_num_threads() -> usize {
    match WORKER.with(|w| w.get()) {
        // SAFETY: the worker TLS holds its own registry's address, and
        // a registry outlives its workers.
        Some((addr, _)) => unsafe { &*(addr as *const Registry) }.width,
        None => match GLOBAL.get() {
            Some(pool) => pool.current_num_threads(),
            None => default_num_threads(),
        },
    }
}

/// Run `oper_a` and `oper_b`, potentially in parallel, returning both
/// results. Panics in either closure propagate to the caller.
///
/// On a worker thread, `oper_b` is pushed onto the local deque (where
/// idle workers steal it) while `oper_a` runs inline; if nobody stole
/// it, the worker pops it back and runs it itself — the classic
/// work-stealing `join`. Called from outside a pool, the whole join
/// first migrates onto the global pool.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let worker = WORKER.with(|w| w.get());
    match worker {
        Some((addr, index)) => {
            // SAFETY: the worker TLS holds its own registry's address,
            // and a registry outlives its workers.
            let registry = unsafe { &*(addr as *const Registry) };
            join_on_worker(registry, index, oper_a, oper_b)
        }
        None => global_pool().install(|| join(oper_a, oper_b)),
    }
}

fn join_on_worker<A, B, RA, RB>(registry: &Registry, index: usize, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let latch = SpinLatch::new();
    let job_b = StackJob::new(&latch, oper_b);
    // SAFETY: this frame outlives the job — every path below either
    // executes it or waits for its latch before returning/unwinding.
    let job_b_ref = unsafe { job_b.as_job_ref() };
    if registry.push_local(index, job_b_ref).is_err() {
        // Deque full (pathological fan-out): degrade to sequential.
        let func_b = job_b.take_func();
        return (oper_a(), func_b());
    }

    let result_a = panic::catch_unwind(AssertUnwindSafe(oper_a));

    // Resolve b: pop it back if still local (running jobs pushed above
    // it first), otherwise wait for the thief — executing other work
    // the whole time.
    while !latch.probe() {
        match registry.deques[index].pop() {
            Some(job) if job.same_job(job_b_ref) => {
                if result_a.is_err() {
                    // a panicked: discard b rather than running it.
                    drop(job_b.take_func());
                } else {
                    // SAFETY: we popped our own b back — this is its
                    // only copy and only run; the frame is live.
                    unsafe { job.execute() };
                }
                break;
            }
            // SAFETY: a pop yields each pushed job exactly once.
            Some(job) => unsafe { job.execute() },
            None => {
                registry.wait_until(index, &latch);
                break;
            }
        }
    }

    match result_a {
        Ok(ra) => (ra, job_b.into_result()),
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Raw pointer wrapper that asserts cross-thread validity; used to
/// smuggle the scope pointer into erased task closures, which is sound
/// because the scope outlives (blocks on) all of its tasks.
struct SendPtr(*const ());
// SAFETY: only used for the scope pointer, which stays valid on every
// thread because the scope blocks until all of its tasks are done.
unsafe impl Send for SendPtr {}

impl SendPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Send` wrapper, not the raw-pointer field.
    fn get(&self) -> *const () {
        self.0
    }
}

/// Why locking a scope's `done_mutex` cannot fail: no code panics while
/// holding it, so it is never poisoned.
const DONE_MUTEX: &str = "scope done_mutex is never held across a panic";

/// Structured task scope handed to [`scope`] closures: every task
/// spawned through it completes before `scope` returns, so tasks may
/// borrow from the enclosing environment (`'scope`).
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    /// Outstanding tasks (+1 virtual token held by the scope body, so
    /// the count cannot reach zero before `complete` runs).
    pending: AtomicUsize,
    /// First task panic, rethrown after all tasks finish.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done_mutex: Mutex<()>,
    done_cond: Condvar,
    /// Invariant over `'scope`, as in rayon.
    marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    fn new(registry: Arc<Registry>) -> Self {
        Scope {
            registry,
            pending: AtomicUsize::new(1),
            panic: Mutex::new(None),
            done_mutex: Mutex::new(()),
            done_cond: Condvar::new(),
            marker: PhantomData,
        }
    }

    /// Schedule `body` to run on the scope's pool before the scope
    /// ends. Tasks spawned from a worker go to its deque (and get
    /// stolen from there); tasks spawned from other threads go through
    /// the injector.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let scope_ptr = SendPtr(self as *const Scope<'scope> as *const ());
        let task = move || {
            // SAFETY: the scope blocks in `wait_all` until `pending`
            // drains, so the pointer is valid for the task's lifetime.
            let scope = unsafe { &*(scope_ptr.get() as *const Scope<'scope>) };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(scope))) {
                scope.store_panic(payload);
            }
            scope.task_done(); // must be the task's last touch of the scope
        };
        let job = HeapJob::into_job_ref(task);
        match self.registry.current_index() {
            Some(index) => {
                if let Err(job) = self.registry.push_local(index, job) {
                    // Deque full: run inline; unwind-safety is inside
                    // the closure.
                    // SAFETY: the rejected ref is this HeapJob's only
                    // copy; executing it here is its single run.
                    unsafe { job.execute() };
                }
            }
            None => self.registry.inject(job),
        }
    }

    fn store_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Retire one task. The decrement happens under `done_mutex`, so a
    /// waiter that reads `pending == 0` and then takes the mutex knows
    /// this call has released its last touch of the scope.
    fn task_done(&self) {
        let _guard = self.done_mutex.lock().expect(DONE_MUTEX);
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.done_cond.notify_all();
        }
    }

    /// Block until every spawned task has finished. On a worker this is
    /// a work-stealing wait (executing pending tasks, including this
    /// scope's own); externally it parks on the scope's condvar.
    fn wait_all(&self) {
        // Release the scope body's virtual token.
        self.task_done();
        match self.registry.current_index() {
            Some(index) => {
                let mut idle_spins = 0u32;
                while self.pending.load(Ordering::SeqCst) > 0 {
                    if let Some(job) = self.registry.find_work(index) {
                        // SAFETY: `find_work` hands out each queued job
                        // exactly once, live until run.
                        unsafe { job.execute() };
                        idle_spins = 0;
                    } else if idle_spins < 32 {
                        idle_spins += 1;
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
                // The last `task_done` may still hold the mutex; wait it
                // out before the caller frees the scope.
                drop(self.done_mutex.lock().expect(DONE_MUTEX));
            }
            None => {
                let mut guard = self.done_mutex.lock().expect(DONE_MUTEX);
                while self.pending.load(Ordering::SeqCst) > 0 {
                    guard = self.done_cond.wait(guard).expect(DONE_MUTEX);
                }
            }
        }
    }
}

/// Structured task scope: every task spawned inside completes before
/// `scope` returns; task panics propagate to the caller. Runs on the
/// current pool, migrating onto the global pool when called from a
/// non-worker thread.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let worker = WORKER.with(|w| w.get());
    match worker {
        Some((addr, _)) => {
            // SAFETY: the worker TLS holds its own registry's address,
            // and a registry outlives its workers.
            let registry = unsafe { &*(addr as *const Registry) };
            // Re-arc through the worker's registry address. SAFETY: the
            // address points into a live Arc<Registry> allocation, so
            // bumping the count and re-wrapping yields a valid handle.
            let registry = unsafe {
                Arc::increment_strong_count(registry as *const Registry);
                Arc::from_raw(registry as *const Registry)
            };
            scope_on(registry, op)
        }
        None => global_pool().install(|| scope(op)),
    }
}

fn scope_on<'scope, OP, R>(registry: Arc<Registry>, op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let s = Scope::new(registry);
    let result = panic::catch_unwind(AssertUnwindSafe(|| op(&s)));
    // The scope body's borrows end before wait_all, and every spawned
    // task finishes inside it — even when the body panicked.
    s.wait_all();
    match result {
        Ok(r) => {
            if let Some(payload) = s.panic.lock().unwrap().take() {
                panic::resume_unwind(payload);
            }
            r
        }
        Err(payload) => panic::resume_unwind(payload),
    }
}
