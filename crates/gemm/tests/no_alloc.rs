//! A warm base gemm allocates nothing: the pack buffers live in
//! grow-only per-thread storage, so once a thread has run a shape,
//! running it again makes no heap call.
//!
//! Allocations are counted per thread, so tests running in parallel do
//! not disturb each other's counts.

use fmm_gemm::{gemm, par_gemm, GemmScalar};
use fmm_matrix::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the ones callers get; the counter is a
// const-initialised thread-local `Cell` without a destructor, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// Above the small-product rules (48 × 64 × 40, 128³), a peel strip
/// (1 × 300 × 200) and products straddling the MC/KC and NC blocks.
const SHAPES: [(usize, usize, usize); 5] = [
    (48, 64, 40),
    (128, 128, 128),
    (1, 300, 200),
    (131, 259, 37),
    (5, 3, 2053),
];

/// Allocations this thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Runs `multiply` once to warm this thread's buffers, then asserts a
/// second call on every shape allocates nothing.
fn assert_warm_calls_allocate_nothing<T: GemmScalar>(
    multiply: impl Fn(T, &DenseMatrix<T>, &DenseMatrix<T>, &mut DenseMatrix<T>),
) {
    let mut rng = StdRng::seed_from_u64(7);
    for (m, k, n) in SHAPES {
        let a = DenseMatrix::<T>::random(m, k, &mut rng);
        let b = DenseMatrix::<T>::random(k, n, &mut rng);
        let mut c = DenseMatrix::<T>::zeros(m, n);
        multiply(T::ONE, &a, &b, &mut c);
        let allocs = allocs_during(|| multiply(T::ONE, &a, &b, &mut c));
        assert_eq!(allocs, 0, "{} {m}x{k}x{n}: warm call allocated", T::NAME);
    }
}

fn seq<T: GemmScalar>(alpha: T, a: &DenseMatrix<T>, b: &DenseMatrix<T>, c: &mut DenseMatrix<T>) {
    gemm(alpha, a.as_ref(), b.as_ref(), T::ZERO, c.as_mut());
}

fn par<T: GemmScalar>(alpha: T, a: &DenseMatrix<T>, b: &DenseMatrix<T>, c: &mut DenseMatrix<T>) {
    par_gemm(alpha, a.as_ref(), b.as_ref(), T::ZERO, c.as_mut());
}

#[test]
fn warm_gemm_allocates_nothing() {
    assert_warm_calls_allocate_nothing::<f64>(seq);
    assert_warm_calls_allocate_nothing::<f32>(seq);
}

#[test]
fn warm_par_gemm_in_a_width_one_pool_allocates_nothing() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("width-1 pool");
    // Counted inside `install`, on the thread that runs the product.
    pool.install(|| {
        assert_warm_calls_allocate_nothing::<f64>(par);
        assert_warm_calls_allocate_nothing::<f32>(par);
    });
}
