//! A warm depth-0 `FmmEngine::multiply_into` allocates nothing: the
//! plan is cached, the workspace is pooled, the base gemm packs into
//! grow-only per-thread buffers, and the latency histogram keys its row
//! by the static shape class and dtype.
//!
//! The multiply runs on the engine's pool worker, not on the calling
//! thread, so allocations are counted process-wide. This file holds a
//! single test, so no other test allocates while it counts.

use fmm_core::{FmmEngine, GemmScalar};
use fmm_matrix::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation in the process.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the ones callers get; the counter is a
// static atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's `layout` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's `layout` contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `ptr` came from this allocator, which is `System`;
        // the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`;
        // the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Warm multiplies counted per dtype.
const WARM_CALLS: usize = 8;

/// Allocations made by `WARM_CALLS` depth-0 96³ `multiply_into` calls
/// on a width-1 engine, after one call has warmed its plan cache,
/// workspace pool, pack buffers and histogram row.
fn warm_allocs<T: GemmScalar>() -> usize {
    let engine = FmmEngine::<T>::builder()
        .threads(1)
        .steps(0)
        .build()
        .expect("width-1 engine");
    let mut rng = StdRng::seed_from_u64(7);
    let a = DenseMatrix::<T>::random(96, 96, &mut rng);
    let b = DenseMatrix::<T>::random(96, 96, &mut rng);
    let mut c = DenseMatrix::<T>::zeros(96, 96);
    engine
        .multiply_into(&a, &b, &mut c)
        .expect("first multiply");
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..WARM_CALLS {
        engine.multiply_into(&a, &b, &mut c).expect("warm multiply");
    }
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_depth_zero_multiply_into_allocates_nothing() {
    let f64_allocs = warm_allocs::<f64>();
    let f32_allocs = warm_allocs::<f32>();
    assert_eq!(
        (f64_allocs, f32_allocs),
        (0, 0),
        "allocations over {WARM_CALLS} warm calls (f64, f32)"
    );
}
