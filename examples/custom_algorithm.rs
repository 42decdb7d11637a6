//! Bring your own algorithm: define a `⟦U,V,W⟧` decomposition, verify
//! it against the Brent equations, inspect its Table-2 statistics,
//! derive new base cases from it with the composition toolkit, and run
//! it through the executor — the full life cycle the paper's framework
//! automates.
//!
//! Run with: `cargo run --release --example custom_algorithm`

use fast_matmul::core::{Planner, Workspace};
use fast_matmul::gemm;
use fast_matmul::matrix::{relative_error, Matrix};
use fast_matmul::tensor::compose::{direct_sum_n, kron_compose};
use fast_matmul::tensor::transform::permute_to;
use fast_matmul::tensor::Decomposition;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Strassen's ⟦U,V,W⟧, entered by hand (row-major vec convention).
    let u = Matrix::from_rows(&[
        &[1., 0., 1., 0., 1., -1., 0.],
        &[0., 0., 0., 0., 1., 0., 1.],
        &[0., 1., 0., 0., 0., 1., 0.],
        &[1., 1., 0., 1., 0., 0., -1.],
    ]);
    let v = Matrix::from_rows(&[
        &[1., 1., 0., -1., 0., 1., 0.],
        &[0., 0., 1., 0., 0., 1., 0.],
        &[0., 0., 0., 1., 0., 0., 1.],
        &[1., 0., -1., 0., 1., 0., 1.],
    ]);
    let w = Matrix::from_rows(&[
        &[1., 0., 0., 1., -1., 0., 1.],
        &[0., 0., 1., 0., 1., 0., 0.],
        &[0., 1., 0., 1., 0., 0., 0.],
        &[1., -1., 1., 0., 0., 1., 0.],
    ]);
    let mine = Decomposition::new(2, 2, 2, u, v, w);

    // 1. Verify: the framework refuses nothing — but you should check.
    mine.verify(0.0).expect("Brent equations hold");
    println!(
        "verified ⟨2,2,2⟩ rank {}: speedup/step {:.0}%, ω₀ = {:.3}, nnz = {}",
        mine.rank(),
        mine.speedup_per_step() * 100.0,
        mine.square_exponent(),
        mine.nnz(1e-12),
    );

    // 2. Derive new algorithms from it (§2.3 constructions).
    let a223 = direct_sum_n(&mine, &fast_matmul::tensor::compose::classical(2, 2, 1));
    println!(
        "⟨2,2,3⟩ by direct sum: rank {} (Hopcroft–Kerr optimal is 11)",
        a223.rank()
    );
    let a224 = kron_compose(&mine, &fast_matmul::tensor::compose::classical(1, 1, 2));
    println!("⟨2,2,4⟩ by composition: rank {}", a224.rank());
    let a322 = permute_to(&a223, (3, 2, 2)).expect("permutation");
    println!("⟨3,2,2⟩ by Prop. 2.1/2.2: rank {}", a322.rank());
    for d in [&a223, &a224, &a322] {
        d.verify(1e-12).expect("derived algorithms stay exact");
    }

    // 3. Run the derived ⟨2,2,3⟩ on a problem that needs peeling.
    let (p, q, r) = (355, 210, 451);
    let mut rng = StdRng::seed_from_u64(3);
    let a = Matrix::random(p, q, &mut rng);
    let b = Matrix::random(q, r, &mut rng);
    let plan = Planner::new()
        .shape(p, q, r)
        .algorithm(&a223)
        .steps(2)
        .plan()
        .expect("an exact f64 scheme always plans");
    let mut c = Matrix::zeros(p, r);
    plan.execute(&a, &b, &mut c, &mut Workspace::new());
    let c_ref = gemm::matmul(&a, &b);
    let err = relative_error(&c.as_ref(), &c_ref.as_ref());
    println!("⟨2,2,3⟩ on {p}×{q}×{r} (dynamic peeling): relative error {err:.2e}");
    assert!(err < 1e-10);
}
