//! Shared plumbing of the integration tests: plan for the operands'
//! shape and run once with a fresh workspace.

use fast_matmul::core::{ExecStatsSnapshot, Options, Planner, Workspace};
use fast_matmul::matrix::Matrix;
use fast_matmul::tensor::Decomposition;

/// Finish `planner` with the shape of `a · b`, run it once, and return
/// the product with the run's execution statistics.
#[allow(dead_code)]
pub fn run(planner: Planner, a: &Matrix, b: &Matrix) -> (Matrix, ExecStatsSnapshot) {
    let plan = planner
        .shape(a.rows(), a.cols(), b.cols())
        .plan()
        .unwrap_or_else(|e| panic!("{e}"));
    let mut c = Matrix::zeros(a.rows(), b.cols());
    let stats = plan.execute_with_stats(a, b, &mut c, &mut Workspace::new());
    (c, stats)
}

/// `steps` levels of `dec` under `opts` applied to `a · b`.
#[allow(dead_code)]
pub fn multiply(
    dec: &Decomposition,
    steps: usize,
    opts: Options,
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    let planner = Planner::new().algorithm(dec).steps(steps).options(opts);
    run(planner, a, b).0
}

/// The exact bits of a product, so `-0.0` and NaN payloads count too.
#[allow(dead_code)]
pub fn bits(c: &Matrix) -> Vec<u64> {
    c.as_slice().iter().map(|x| x.to_bits()).collect()
}
