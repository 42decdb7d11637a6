//! `fmm-runtime`: a real work-stealing scheduler for the fast-matmul
//! workspace.
//!
//! The paper's §4 parallel schemes (DFS, BFS, HYBRID) assume a runtime
//! in which spawned tasks are *stolen* by idle threads — OpenMP tasks
//! in the original, rayon in this reproduction's source code. The build
//! environment has no crates.io access, so this crate implements the
//! scheduler in-tree:
//!
//! * one OS thread per unit of pool width, each owning a fixed-capacity
//!   **Chase–Lev deque** (LIFO local push/pop for cache locality, FIFO
//!   steal so thieves take the oldest — largest — task);
//! * a FIFO **injector** for work handed in by non-pool threads;
//! * **parking**: idle workers sleep on a condvar and are woken when
//!   work is pushed, so an idle pool costs ~nothing;
//! * **work-stealing waits**: a worker blocked on a [`join`]/[`scope`]
//!   executes other tasks instead of sleeping, which makes arbitrarily
//!   nested parallelism deadlock-free on a fixed thread count;
//! * unwind-safe accounting: a panicking task neither leaks its scope's
//!   task count nor deadlocks the waiters — panics are captured and
//!   rethrown on the spawning side, as in rayon.
//!
//! The public surface mirrors the subset of rayon the workspace uses —
//! [`join`], [`scope`], [`ThreadPool::install`] and
//! [`current_num_threads`] — so `vendor/rayon` is a thin facade over
//! this crate. [`ThreadPool::spawn`] goes beyond rayon: it returns a
//! [`JobHandle`] that `fmm_core::FmmEngine::submit` joins later.
//!
//! Two observability hooks go beyond rayon, feeding
//! `fmm_core::ExecStatsSnapshot`:
//!
//! * [`steal_count`] — monotonic process-wide count of deque steals
//!   (diff around a region to attribute steals to it);
//! * [`worker_index`] — which worker the current thread is, letting
//!   callers count distinct participating threads.
//!
//! The default (global) pool width honors the `FMM_THREADS` environment
//! variable, falling back to the hardware thread count; CI runs the
//! suite at both `FMM_THREADS=1` and `FMM_THREADS=4`.

mod deque;
mod job;
mod registry;

pub use registry::{
    current_num_threads, default_num_threads, join, scope, steal_count, worker_index, JobHandle,
    Scope, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder, THREADS_ENV,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn nested_joins_compute_fib() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(18), 2584);
    }

    #[test]
    fn scope_runs_every_task() {
        let counter = AtomicU32::new(0);
        scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_tasks_can_spawn_nested_tasks() {
        let counter = AtomicU32::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|s| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    s.spawn(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn join_propagates_panics() {
        join(|| (), || panic!("boom"));
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn scope_propagates_task_panics() {
        scope(|s| {
            s.spawn(|_| panic!("task boom"));
        });
    }

    #[test]
    fn panic_does_not_poison_the_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        for trial in 0..4 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.install(|| {
                    scope(|s| {
                        s.spawn(|_| panic!("die {trial}"));
                        s.spawn(|_| ());
                    })
                })
            }));
            assert!(r.is_err(), "panic must propagate out of install");
            // The pool must still do real work afterwards.
            let sum = pool.install(|| {
                let (a, b) = join(|| 21, || 21);
                a + b
            });
            assert_eq!(sum, 42);
        }
    }

    #[test]
    fn install_reports_pool_width() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        assert_eq!(pool.current_num_threads(), 3);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn nested_installs_on_same_pool_run_inline() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let n = pool.install(|| pool.install(current_num_threads));
        assert_eq!(n, 2);
    }

    #[test]
    fn width_one_pool_is_deterministically_sequential() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let order = Mutex::new(Vec::new());
        let order_ref = &order;
        pool.install(|| {
            scope(|s| {
                for i in 0..10 {
                    s.spawn(move |_| order_ref.lock().unwrap().push(i));
                }
            });
        });
        // One worker pops its own LIFO deque: strict reverse order.
        assert_eq!(*order.lock().unwrap(), (0..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn steals_happen_with_many_workers() {
        // On a single hardware thread the four workers time-slice and a
        // worker can drain its own deque before anyone wakes to steal,
        // so the assertion below would be flaky. Skip, as the scaling
        // integration tests do.
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        if hw < 2 {
            eprintln!("steals_happen_with_many_workers: skipped ({hw} hardware threads < 2)");
            return;
        }
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let before = steal_count();
        // Spawn enough slow-ish tasks that idle workers must steal.
        for _ in 0..8 {
            pool.install(|| {
                scope(|s| {
                    for _ in 0..64 {
                        s.spawn(|_| {
                            let mut x = 0u64;
                            for i in 0..50_000 {
                                x = x.wrapping_add(std::hint::black_box(i) * i);
                            }
                            std::hint::black_box(x);
                        });
                    }
                });
            });
        }
        assert!(
            steal_count() > before,
            "4 workers × 512 tasks must produce at least one steal"
        );
    }

    #[test]
    fn worker_index_is_set_only_on_workers() {
        assert_eq!(worker_index(), None);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let idx = pool.install(worker_index);
        assert!(matches!(idx, Some(0 | 1)));
    }

    #[test]
    fn scope_returns_body_value_after_tasks() {
        let done = AtomicU32::new(0);
        let v = scope(|s| {
            s.spawn(|_| {
                done.fetch_add(1, Ordering::Relaxed);
            });
            "body result"
        });
        assert_eq!(v, "body result");
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn spawn_handle_returns_the_job_result() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let handle = pool.spawn(|| {
            let mut x = 0u64;
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
            x
        });
        assert_eq!(handle.wait(), 499_500);
    }

    #[test]
    fn spawn_handle_is_done_flips_after_completion() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let handle = pool.spawn(|| 7);
        // Drain the pool with a barrier job so the spawned job must
        // have run before we probe.
        pool.install(|| ());
        assert!(handle.is_done());
        assert_eq!(handle.wait(), 7);
    }

    #[test]
    #[should_panic(expected = "handle boom")]
    fn spawn_handle_wait_rethrows_the_job_panic() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let handle = pool.spawn(|| -> () { panic!("handle boom") });
        handle.wait();
    }

    #[test]
    fn spawn_handle_panic_does_not_poison_the_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let handle = pool.spawn(|| -> u32 { panic!("die") });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.wait()));
        assert!(r.is_err());
        assert_eq!(pool.install(|| 41 + 1), 42);
    }

    #[test]
    fn waiting_on_a_handle_from_a_pool_worker_helps_instead_of_blocking() {
        // One worker: if the waiting worker blocked instead of
        // executing queued jobs, this would deadlock (the handle's job
        // can only run on the thread doing the waiting).
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let pool = std::sync::Arc::new(pool);
        let inner = std::sync::Arc::clone(&pool);
        let outer = pool.spawn(move || {
            let h = inner.spawn(|| 21);
            h.wait() * 2
        });
        assert_eq!(outer.wait(), 42);
    }

    #[test]
    fn dropped_handles_still_run_their_jobs() {
        use std::sync::mpsc;
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            drop(pool.spawn(move || tx.send(i).unwrap()));
        }
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pool_dropped_from_its_own_worker_detaches_instead_of_self_joining() {
        // A detached job owning the last Arc of its own pool: when the
        // job finishes, the pool drops on the worker executing it. The
        // drop must not try to join that worker (self-join errors and
        // would poison the job); the handle must still deliver.
        let pool = std::sync::Arc::new(ThreadPoolBuilder::new().num_threads(2).build().unwrap());
        let inner = std::sync::Arc::clone(&pool);
        let handle = pool.spawn(move || {
            drop(inner);
            5
        });
        drop(pool); // whichever side drops last frees the pool
        assert_eq!(handle.wait(), 5);
    }

    #[test]
    fn many_concurrent_handles_complete_with_correct_results() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let handles: Vec<_> = (0..64u64).map(|i| pool.spawn(move || i * i)).collect();
        let got: Vec<u64> = handles.into_iter().map(|h| h.wait()).collect();
        let want: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deep_join_recursion_inside_small_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        fn sum(range: std::ops::Range<u64>) -> u64 {
            let span = range.end - range.start;
            if span <= 32 {
                return range.sum();
            }
            let mid = range.start + span / 2;
            let (a, b) = join(|| sum(range.start..mid), move || sum(mid..range.end));
            a + b
        }
        let total = pool.install(|| sum(0..100_000));
        assert_eq!(total, 100_000 * 99_999 / 2);
    }
}
